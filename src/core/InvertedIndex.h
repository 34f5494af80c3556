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
///                    P, the ascending run ids with R(P) = 1, in CSR form
///                    (one offsets array and one run-id array). One build
///                    makes them and the population's initial counts: a
///                    counting pass over run chunks (ChunkTallies) yields
///                    the counts, then a blocked transpose partitions the
///                    postings into cache-sized blocks of predicates and
///                    finishes each block with a stable counting sort.
///
///   DeltaAggregates  mutable F/S/FObs/SObs counts, seeded from a copy of
///                    the index's initial counts and then updated by
///                    *subtracting* (or relabeling) the discarded runs'
///                    sparse contributions, one id range at a time,
///                    instead of rescanning the whole population.
///
/// All counts are integers, so subtract-then-score is bit-identical to
/// recompute-then-score; the differential tests in tests/core and
/// tests/integration hold the two engines to identical AnalysisResults.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_CORE_INVERTEDINDEX_H
#define SBI_CORE_INVERTEDINDEX_H

#include "core/Aggregator.h"
#include "feedback/RunProfiles.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace sbi {

/// Per-predicate posting lists of run indices in CSR form, plus the counts
/// of the whole population: predicate P's runs are
/// RunIds[Offsets[P], Offsets[P + 1]). Site lists are not kept — the
/// elimination loop only ever walks the selected predicate's runs.
class InvertedIndex {
public:
  /// Transposes \p Runs' predicate ids. Runs are split into contiguous
  /// chunks, one worker thread per chunk (0 = one per hardware thread,
  /// capped at one per 4,096 runs). Each worker tallies its chunk's
  /// postings by label; the tallies sum to initialAggregates() and place
  /// every chunk's postings of each block of BlockPreds predicates after
  /// the earlier chunks'. The workers then append each posting's run id to
  /// its block's region, and sort each region stably by predicate. Lists
  /// come out ascending, and identical for any \p Threads value.
  static InvertedIndex build(const RunProfiles &Runs, size_t Threads = 0);

  /// Predicates per transpose block. A block's region holds its postings
  /// in run order until a stable counting sort groups them by predicate,
  /// so the partition pass writes one stream per block rather than one per
  /// predicate. The width keeps both passes cache-resident on the sparse
  /// 200k-predicate sweep and the dense 9.5k-predicate MOSS population
  /// (DESIGN.md §7).
  static constexpr uint32_t BlockPreds = 32;

  /// Ascending run ids where predicate \p Pred was observed true
  /// (R(P) = 1).
  IdSpan runsWhereTrue(uint32_t Pred) const {
    return {RunIds.get() + Offsets[Pred], RunIds.get() + Offsets[Pred + 1]};
  }

  /// Counts over the full population — exactly what Aggregates::compute
  /// returns for RunView::allOf(Runs). Counted once at build, so every
  /// policy's run() over a shared index starts from them without a scan.
  const Aggregates &initialAggregates() const { return InitialAgg; }

  uint32_t numPredicates() const {
    return static_cast<uint32_t>(Offsets.size() - 1);
  }
  /// The site count of the indexed population (no site lists are kept).
  uint32_t numSites() const { return NumSites; }
  /// Runs in the indexed population; every posting is below this.
  size_t numRuns() const { return NumRuns; }

  /// Total posting-list entries: the predicate ids in the indexed
  /// profiles.
  size_t numPostings() const { return Offsets.back(); }

private:
  InvertedIndex() = default;

  Aggregates InitialAgg{0, 0};
  uint32_t NumSites = 0;
  size_t NumRuns = 0;
  /// numPredicates() + 1 entries; Offsets[P] is where P's list starts.
  std::vector<uint64_t> Offsets;
  /// numPostings() entries, allocated without zeroing: the build writes
  /// each one.
  std::unique_ptr<uint32_t[]> RunIds;
};

/// Aggregate counts kept live under run discarding/relabeling. Starts as a
/// copy of a full-population snapshot and takes each selection's discard
/// as one list of runs; the current state is always exactly what
/// Aggregates::compute would return for the mutated RunView. With
/// \p TrackChanges, every site and predicate a discard touches is also
/// marked in changes().
class DeltaAggregates {
public:
  /// One run a discard takes: its id and the label it had in the view
  /// before the discard.
  struct RunChange {
    uint32_t Run;
    bool Failed;
  };

  /// Starts from \p Initial, the counts of \p Runs under the view the
  /// caller will mutate (the analysis passes the index's
  /// initialAggregates()). Reads the runs' ids in place (\p Runs must
  /// outlive the aggregates) and never writes to \p Initial.
  DeltaAggregates(const RunProfiles &Runs, const Aggregates &Initial,
                  bool TrackChanges = false)
      : Runs(Runs), Agg(Initial) {
    if (TrackChanges)
      Marks.emplace(Runs.numSites(), Runs.numPredicates());
  }

  /// The live counts, interface-compatible with a fresh full scan.
  const Aggregates &aggregates() const { return Agg; }

  /// The sites and predicates whose counts changed since they were last
  /// cleared; null unless constructed with TrackChanges.
  const ChangeMarks *changes() const { return Marks ? &*Marks : nullptr; }
  void clearChanges(const IdRange &Range) {
    if (Marks)
      Marks->clear(Range);
  }

  /// Takes \p Changes out of the failing and successful run totals: each
  /// run leaves its label's total, or with \p Relabel (Section 5,
  /// proposal 3; every run must be labeled failing) moves from the failing
  /// total to the successful one.
  void applyTotals(const std::vector<RunChange> &Changes, bool Relabel);

  /// Takes \p Changes out of the counts of the sites and predicates in
  /// \p Range, as applyTotals does the totals, and marks each count it
  /// changes in the same walk. Finds each run's ids in the range with two
  /// binary searches per id list. Calls over disjoint ranges touch
  /// disjoint counts and marks, so they may run concurrently; a call over
  /// IdRange::all plus applyTotals takes the whole discard.
  void apply(const std::vector<RunChange> &Changes, bool Relabel,
             const IdRange &Range);

private:
  const RunProfiles &Runs;
  Aggregates Agg;
  std::optional<ChangeMarks> Marks;
};

} // namespace sbi

#endif // SBI_CORE_INVERTEDINDEX_H
