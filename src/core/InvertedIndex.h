//===- core/InvertedIndex.h - Incremental aggregation engine --------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The elimination loop of Section 3.4 re-ranks every surviving predicate
/// over a shrinking run population after each selection. Doing that by
/// rescanning every feedback report per iteration is
/// O(selections x candidates x runs) — the dominant cost at the paper's
/// 32,000-run scale. This module makes the loop incremental:
///
///   InvertedIndex    one-time predicate posting lists: for each predicate
///                    P, the ascending run ids with R(P) = 1. The lists are
///                    the CSR transpose of RunProfiles' predicate ids — one
///                    offsets array and one run-id array — built by a count
///                    pass and a scatter pass over contiguous run chunks.
///
///   DeltaAggregates  mutable F/S/FObs/SObs counts, initialized by a single
///                    full scan and then updated by *subtracting* (or
///                    relabeling) one discarded run's sparse contributions
///                    at a time, instead of rescanning the whole ReportSet.
///
/// All counts are integers, so subtract-then-score is bit-identical to
/// recompute-then-score; the differential tests in tests/core and
/// tests/integration hold the two engines to identical AnalysisResults.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_CORE_INVERTEDINDEX_H
#define SBI_CORE_INVERTEDINDEX_H

#include "core/Aggregator.h"
#include "feedback/Report.h"
#include "feedback/RunProfiles.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace sbi {

/// Per-predicate posting lists of run indices in CSR form: predicate P's
/// runs are RunIds[Offsets[P], Offsets[P + 1]). Site lists are not kept —
/// the elimination loop only ever walks the selected predicate's runs.
class InvertedIndex {
public:
  /// Transposes \p Runs' predicate ids. Runs are split into contiguous
  /// chunks, one worker thread per chunk (0 = one per hardware thread,
  /// capped at one per 4,096 runs). Each worker counts its chunk's
  /// postings per predicate; a prefix sum over (predicate, chunk) gives
  /// every chunk its own write cursor in every list; each worker then
  /// scatters its run ids. Lists come out ascending, and identical for
  /// any \p Threads value.
  static InvertedIndex build(const RunProfiles &Runs, size_t Threads = 0);

  /// Ascending run ids where predicate \p Pred was observed true
  /// (R(P) = 1).
  IdSpan runsWhereTrue(uint32_t Pred) const {
    return {RunIds.data() + Offsets[Pred], RunIds.data() + Offsets[Pred + 1]};
  }

  uint32_t numPredicates() const {
    return static_cast<uint32_t>(Offsets.size() - 1);
  }
  /// The site count of the indexed population (no site lists are kept).
  uint32_t numSites() const { return NumSites; }
  /// Runs in the indexed population; every posting is below this.
  size_t numRuns() const { return NumRuns; }

  /// Total posting-list entries: the predicate ids in the indexed
  /// profiles.
  size_t numPostings() const { return RunIds.size(); }

private:
  InvertedIndex() = default;

  uint32_t NumSites = 0;
  size_t NumRuns = 0;
  /// numPredicates() + 1 entries; Offsets[P] is where P's list starts.
  std::vector<uint64_t> Offsets;
  std::vector<uint32_t> RunIds;
};

/// Aggregate counts kept live under run discarding/relabeling. Starts as a
/// full-scan Aggregates snapshot and is mutated one run at a time; the
/// current state is always exactly what Aggregates::compute would return
/// for the mutated RunView. With \p TrackChanges, every site and predicate
/// a mutation touches is also marked in changes().
class DeltaAggregates {
public:
  /// Runs off a profile store directly (no copies; \p Runs must outlive
  /// the aggregates).
  DeltaAggregates(const RunProfiles &Runs, const RunView &View,
                  bool TrackChanges = false)
      : Runs(Runs), Agg(Aggregates::compute(Runs, View)) {
    if (TrackChanges)
      Marks.emplace(Runs.numSites(), Runs.numPredicates());
  }

  /// Convenience for ReportSet callers: converts (and owns) a profile
  /// copy, then behaves exactly like the RunProfiles constructor.
  DeltaAggregates(const ReportSet &Set, const RunView &View,
                  bool TrackChanges = false)
      : Owned(RunProfiles::fromReports(Set)), Runs(*Owned),
        Agg(Aggregates::compute(*Owned, View)) {
    if (TrackChanges)
      Marks.emplace(Runs.numSites(), Runs.numPredicates());
  }

  /// The live counts, interface-compatible with a fresh full scan.
  const Aggregates &aggregates() const { return Agg; }

  /// The sites and predicates whose counts changed since clearChanges();
  /// null unless constructed with TrackChanges.
  const ChangeMarks *changes() const { return Marks ? &*Marks : nullptr; }
  void clearChanges() {
    if (Marks)
      Marks->clear();
  }

  /// Subtracts run \p Run's contributions. \p Failed must be the label the
  /// run currently has in the view (which may differ from the report's own
  /// bit under the relabeling policy).
  void removeRun(size_t Run, bool Failed);

  /// Moves run \p Run's contributions from the failing to the successful
  /// buckets (Section 5, proposal 3). The run must currently be labeled
  /// failing.
  void relabelRunAsSuccess(size_t Run);

private:
  /// Marks run \p Run's sites and predicates, when tracking changes.
  void markRun(size_t Run);

  std::optional<RunProfiles> Owned; ///< Before Runs: bound in init order.
  const RunProfiles &Runs;
  Aggregates Agg;
  std::optional<ChangeMarks> Marks;
};

} // namespace sbi

#endif // SBI_CORE_INVERTEDINDEX_H
