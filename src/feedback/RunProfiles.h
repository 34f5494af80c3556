//===- feedback/RunProfiles.h - Compact run-major observation store -------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis of Section 3 consumes only three facts per run: the failure
/// label, which sites were observed (sampled at least once), and which
/// predicates were observed true — counts beyond "at least once" and the
/// per-run provenance (trap kind, stack signature) never reach it. This
/// module stores exactly that in CSR (compressed sparse row) form: two flat
/// id arrays with per-run offsets, a failure bitvector, and the ground-truth
/// bug masks the table renderers want. Compared to a materialized ReportSet
/// it halves the bytes per posting (ids only, no counts) and drops the
/// per-report vector and string overhead, which is what lets `sbi` ingest
/// an SBI-CORPUS v2 directory without rebuilding FeedbackReports.
///
/// It is the one store every analysis reads: the aggregation engines
/// (core/Aggregator, core/InvertedIndex, core/BitMatrix, core/Analysis),
/// the logistic-regression baseline, the paper-table helpers
/// (harness/Tables) and the HTML report. A campaign held in memory is
/// converted once with fromReports(). A corpus ingest (feedback/Corpus.h)
/// decodes each shard once, then reserves the exact size and copies each
/// decoded run in with addRun(). Either way the analysis executes the same
/// code over the same integers, so the two stay bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_FEEDBACK_RUNPROFILES_H
#define SBI_FEEDBACK_RUNPROFILES_H

#include "feedback/Report.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace sbi {

/// Sorted, duplicate-free ids for one run: [First, Last).
struct IdSpan {
  const uint32_t *First = nullptr;
  const uint32_t *Last = nullptr;

  const uint32_t *begin() const { return First; }
  const uint32_t *end() const { return Last; }
  size_t size() const { return static_cast<size_t>(Last - First); }
};

/// Run-major observation structure in CSR form. Append-only: build it with
/// beginRun/addSite/addPred, addRun (one copy of a decoded run) or
/// fromReports (in-memory conversion), then read spans per run.
class RunProfiles {
public:
  RunProfiles() = default;
  RunProfiles(uint32_t NumSites, uint32_t NumPredicates)
      : NumSitesVal(NumSites), NumPredicatesVal(NumPredicates) {}

  /// Converts a report set. An entry counts as observed iff its count is
  /// positive, so entries with zero counts are dropped.
  static RunProfiles fromReports(const ReportSet &Set);

  // --- Streaming construction --------------------------------------------
  /// Opens run slot size(); subsequent addSite/addPred calls append to it.
  void beginRun(bool Failed, uint64_t BugMask = 0);
  /// \p Site must be strictly greater than the current run's last site id.
  void addSite(uint32_t Site) { SiteIds.push_back(Site); }
  /// \p Pred must be strictly greater than the current run's last pred id.
  void addPred(uint32_t Pred) { PredIds.push_back(Pred); }
  /// Appends one report (zero-count entries dropped).
  void addReport(const FeedbackReport &Report);
  /// Appends one run whose sorted, duplicate-free ids are \p Sites and
  /// \p Preds: the one copy a corpus ingest makes of each decoded id.
  void addRun(bool Failed, uint64_t BugMask, IdSpan Sites, IdSpan Preds);

  /// Makes room for \p Runs runs holding \p SiteIdCount site ids and
  /// \p PredIdCount predicate ids in all, so a store of known size fills
  /// without growing.
  void reserve(size_t Runs, size_t SiteIdCount = 0, size_t PredIdCount = 0);

  // --- Read interface -----------------------------------------------------
  size_t size() const { return FailedBits.size(); }
  uint32_t numSites() const { return NumSitesVal; }
  uint32_t numPredicates() const { return NumPredicatesVal; }

  bool failed(size_t Run) const { return FailedBits[Run] != 0; }
  uint64_t bugMask(size_t Run) const { return BugMasks[Run]; }
  bool hasBug(size_t Run, int BugId) const {
    return (BugMasks[Run] & FeedbackReport::bugBit(BugId)) != 0;
  }

  IdSpan sites(size_t Run) const {
    return {SiteIds.data() + SiteOffsets[Run],
            SiteIds.data() + (Run + 1 < SiteOffsets.size()
                                  ? SiteOffsets[Run + 1]
                                  : SiteIds.size())};
  }
  IdSpan preds(size_t Run) const {
    return {PredIds.data() + PredOffsets[Run],
            PredIds.data() + (Run + 1 < PredOffsets.size()
                                  ? PredOffsets[Run + 1]
                                  : PredIds.size())};
  }

  /// R(P) = 1 for run \p Run? Binary search over the run's sorted pred ids.
  bool observedTrue(size_t Run, uint32_t Pred) const;
  /// Was site \p Site sampled at least once in run \p Run ("P observed"
  /// for each of its predicates)? Binary search over the sorted site ids.
  bool siteObserved(size_t Run, uint32_t Site) const;

  size_t numFailing() const;
  /// Total posting entries (sites + preds) across all runs.
  size_t numPostings() const { return SiteIds.size() + PredIds.size(); }

private:
  uint32_t NumSitesVal = 0;
  uint32_t NumPredicatesVal = 0;
  /// Start of run I's slice in SiteIds/PredIds; size() entries (the end of
  /// the last run is the array size).
  std::vector<uint64_t> SiteOffsets;
  std::vector<uint64_t> PredOffsets;
  std::vector<uint32_t> SiteIds;
  std::vector<uint32_t> PredIds;
  std::vector<uint8_t> FailedBits;
  std::vector<uint64_t> BugMasks;
};

} // namespace sbi

#endif // SBI_FEEDBACK_RUNPROFILES_H
