//===- core/Aggregator.h - Count aggregation over run populations ---------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a run population into the per-predicate counts F(P), S(P),
/// F(P observed), S(P observed) that all scores derive from. The
/// elimination algorithm re-aggregates after every selection over a
/// shrinking (or relabeled) run population, so aggregation is phrased over
/// a RunView: an activity mask plus current failure labels.
///
/// The population is a RunProfiles store, which holds exactly what the
/// counts read: each run's label, observed sites and true predicates. A
/// campaign held in memory is converted once (RunProfiles::fromReports);
/// a corpus on disk streams straight into one (feedback/Corpus.h). Every
/// count, ranking and table therefore runs off the same integers whichever
/// way the reports arrived.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_CORE_AGGREGATOR_H
#define SBI_CORE_AGGREGATOR_H

#include "core/Scores.h"
#include "feedback/RunProfiles.h"
#include "instrument/Sites.h"

#include <algorithm>
#include <array>
#include <vector>

namespace sbi {

/// Which runs participate in an aggregation and with which labels. The
/// elimination policies of Section 5 mutate this view rather than the
/// underlying reports.
struct RunView {
  std::vector<uint8_t> Active; ///< 1 = run participates.
  std::vector<uint8_t> Failed; ///< Current label (may differ from report's).

  static RunView allOf(const RunProfiles &Runs);

  size_t numActive() const;
  size_t numActiveFailing() const;
};

/// Dense aggregate counts for every site and predicate.
class Aggregates {
public:
  Aggregates(uint32_t NumSites, uint32_t NumPredicates)
      : SiteObs(NumSites), PredTrue(NumPredicates) {}

  /// Aggregates \p Runs under \p View.
  static Aggregates compute(const RunProfiles &Runs, const RunView &View);

  uint64_t numFailing() const { return NumF; }
  uint64_t numSuccessful() const { return NumS; }

  /// The four-count bundle for predicate \p PredId; \p Sites maps the
  /// predicate to its enclosing site.
  PredicateCounts counts(uint32_t PredId, const SiteTable &Sites) const {
    return counts(PredId, Sites.predicate(PredId).Site);
  }

  /// counts() for a caller that already knows the predicate's \p Site.
  PredicateCounts counts(uint32_t PredId, uint32_t Site) const {
    PredicateCounts Counts;
    Counts.F = PredTrue[PredId][0];
    Counts.S = PredTrue[PredId][1];
    Counts.FObs = SiteObs[Site][0];
    Counts.SObs = SiteObs[Site][1];
    return Counts;
  }

  PredicateScores scores(uint32_t PredId, const SiteTable &Sites) const {
    return PredicateScores(counts(PredId, Sites));
  }

private:
  /// [0] = failing runs, [1] = successful runs.
  std::vector<std::array<uint64_t, 2>> SiteObs;
  std::vector<std::array<uint64_t, 2>> PredTrue;
  uint64_t NumF = 0;
  uint64_t NumS = 0;

  /// DeltaAggregates (core/InvertedIndex.h) keeps these counts live under
  /// run discarding instead of recomputing them from scratch; the bitset
  /// engine (core/BitMatrix.h) does the same with popcount deltas, and
  /// its parallel build fills a fresh instance chunk by chunk.
  friend class DeltaAggregates;
  friend class BitsetIndex;
  friend class BitsetState;
};

/// The sites and predicates whose counts changed since the last clear():
/// one byte per id, over the id space of the bitset engine's transposed
/// rows, predicates [0, P) then sites [P, P + S). The live engines
/// (DeltaAggregates, BitsetState) mark every count they change, so the
/// elimination loop re-derives the scores of only those candidates whose
/// own mark or whose site's mark is set. Marking is a plain byte store,
/// with no read of the word it lands in.
class ChangeMarks {
public:
  ChangeMarks(uint32_t NumSites, uint32_t NumPredicates)
      : NumPreds(NumPredicates), Marked(size_t(NumPredicates) + NumSites) {}

  void markPred(uint32_t Pred) { Marked[Pred] = 1; }
  void markSite(uint32_t Site) { Marked[size_t(NumPreds) + Site] = 1; }
  /// Marks \p Id of the predicates-then-sites id space.
  void markId(size_t Id) { Marked[Id] = 1; }

  /// Did predicate \p Pred's counts, or those of its \p Site, change?
  bool changed(uint32_t Pred, uint32_t Site) const {
    return (Marked[Pred] | Marked[size_t(NumPreds) + Site]) != 0;
  }

  void clear() { std::fill(Marked.begin(), Marked.end(), 0); }

private:
  uint32_t NumPreds;
  std::vector<uint8_t> Marked;
};

} // namespace sbi

#endif // SBI_CORE_AGGREGATOR_H
