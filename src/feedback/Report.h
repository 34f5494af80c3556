//===- feedback/Report.h - Labeled feedback reports -----------------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A feedback report R (Section 1) is one bit saying whether the run
/// succeeded or failed plus, for each predicate P, whether P was observed
/// and whether it was observed to be true. This module stores reports
/// sparsely, together with per-run provenance the experiments (but never
/// the analysis) may consult: trap kind, stack signature, and the
/// ground-truth set of bugs that actually occurred in the run. A ReportSet
/// is what a campaign produces and what the corpus writer reads; on disk it
/// is an SBI-CORPUS v2 directory (feedback/Corpus.h). The analysis reads
/// neither counts nor provenance, only a RunProfiles store
/// (feedback/RunProfiles.h).
///
//===----------------------------------------------------------------------===//

#ifndef SBI_FEEDBACK_REPORT_H
#define SBI_FEEDBACK_REPORT_H

#include "instrument/Collector.h"
#include "runtime/Interp.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sbi {

/// One labeled run.
struct FeedbackReport {
  /// The outcome bit the analysis is allowed to see.
  bool Failed = false;

  /// Sparse observation counts (the analysis input).
  RawReport Counts;

  // --- Provenance, hidden from the analysis ---
  TrapKind Trap = TrapKind::None;
  int ExitCode = 0;
  /// "func@line>func@line>..." innermost first; empty when no crash.
  std::string StackSignature;
  /// Bit n set iff ground-truth bug id n (1-based, 1 <= n <= 63)
  /// occurred. Bit 0 is never set: it is not a valid bug id.
  uint64_t BugMask = 0;

  /// Mask bit for ground-truth bug id \p BugId. Bug ids are 1-based and at
  /// most 63; any id outside [1, 63] maps to no bit at all (0), so an
  /// out-of-contract id can neither alias a valid id's bit (the old
  /// `& 63` masking made id 64 collide with bit 0) nor register as
  /// present via hasBug().
  static uint64_t bugBit(int BugId) {
    if (BugId < 1 || BugId > 63)
      return 0;
    return 1ull << BugId;
  }
  bool hasBug(int BugId) const { return (BugMask & bugBit(BugId)) != 0; }
};

/// A set of feedback reports over one program's predicate space.
class ReportSet {
public:
  ReportSet() = default;
  ReportSet(uint32_t NumSites, uint32_t NumPredicates)
      : NumSites(NumSites), NumPredicates(NumPredicates) {}

  void add(FeedbackReport Report) { Reports.push_back(std::move(Report)); }

  size_t size() const { return Reports.size(); }
  const FeedbackReport &operator[](size_t I) const { return Reports[I]; }
  const std::vector<FeedbackReport> &reports() const { return Reports; }

  uint32_t numSites() const { return NumSites; }
  uint32_t numPredicates() const { return NumPredicates; }

  size_t numFailing() const;
  size_t numSuccessful() const { return size() - numFailing(); }

private:
  uint32_t NumSites = 0;
  uint32_t NumPredicates = 0;
  std::vector<FeedbackReport> Reports;
};

} // namespace sbi

#endif // SBI_FEEDBACK_REPORT_H
