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
  /// engine (core/BitMatrix.h) does the same with popcount deltas. Both
  /// start from the sum ChunkTallies fills.
  friend class DeltaAggregates;
  friend class BitsetState;
  friend class ChunkTallies;
};

/// The counting pass both live engines' builds begin with. One worker per
/// run chunk tallies its chunk's site observations and true predicates by
/// label, in 32-bit counters: a chunk holds fewer than 2^32 runs, since
/// the live engines index runs in 32 bits. Summed over the chunks, the
/// tallies are exactly what Aggregates::compute returns for
/// RunView::allOf, the initial counts each engine keeps on its index. The
/// inverted index also reads each chunk's per-predicate tallies to place
/// its postings.
class ChunkTallies {
public:
  /// Tallies chunk W = [\p Bounds[W], \p Bounds[W + 1]) of \p Runs on
  /// worker W, for every W.
  ChunkTallies(const RunProfiles &Runs, const std::vector<size_t> &Bounds);

  /// How many of chunk \p W's runs have predicate \p Pred true, under
  /// either label.
  uint64_t predTrue(size_t W, uint32_t Pred) const {
    const std::array<uint32_t, 2> &Count = Chunks[W].Counts[Pred];
    return uint64_t(Count[0]) + Count[1];
  }

  /// The sum over the chunks: the full population's counts.
  Aggregates total() const;

private:
  struct Chunk {
    /// [Id][0] counts failing runs, [Id][1] successful ones, over the id
    /// space of ChangeMarks: predicates [0, P), then sites [P, P + S).
    std::vector<std::array<uint32_t, 2>> Counts;
    uint64_t NumF = 0;
    uint64_t NumS = 0;
  };

  uint32_t NumSites;
  uint32_t NumPreds;
  std::vector<Chunk> Chunks;
};

/// A slice of the counts: predicates [PredBegin, PredEnd) and sites
/// [SiteBegin, SiteEnd). The elimination loop cuts the id space into
/// site-aligned slices (siteAlignedSlices), so a slice holds every site
/// of its predicates, and whoever owns a slice owns every count and every
/// change mark its candidates read.
struct IdRange {
  uint32_t PredBegin = 0;
  uint32_t PredEnd = 0;
  uint32_t SiteBegin = 0;
  uint32_t SiteEnd = 0;

  /// Every predicate and every site.
  static IdRange all(uint32_t NumSites, uint32_t NumPredicates) {
    return {0, NumPredicates, 0, NumSites};
  }
  /// From this slice's start to \p Last's end; \p Last must follow it.
  IdRange through(const IdRange &Last) const {
    return {PredBegin, Last.PredEnd, SiteBegin, Last.SiteEnd};
  }
};

/// Cuts [0, numPredicates) at site boundaries into slices of at least
/// \p MinPreds (> 0) predicates each: a slice ends at the first site that
/// starts MinPreds or more predicates after its own start. A remainder of
/// fewer than MinPreds / 2 predicates joins the last slice. Each slice
/// takes the sites from its first predicate's up to the next slice's, so
/// the slices partition the sites too, sites without predicates included.
/// A site's predicates are contiguous (SiteInfo::FirstPredicate), so every
/// site lies in the slice that holds its predicates. The cut depends on
/// the site table alone. Returns at least one slice.
std::vector<IdRange> siteAlignedSlices(const SiteTable &Sites,
                                       uint32_t MinPreds);

/// The sites and predicates whose counts changed since they were last
/// cleared: one byte per id, over the id space of the bitset engine's
/// transposed rows, predicates [0, P) then sites [P, P + S). The live
/// engines (DeltaAggregates, BitsetState) mark every count they change, so
/// the elimination loop re-derives the scores of only those candidates
/// whose own mark or whose site's mark is set. Marking is a plain byte
/// store, with no read of the word it lands in. The bytes of disjoint
/// slices are disjoint, so workers that own disjoint slices mark, read and
/// clear them without synchronizing.
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

  /// Clears the marks of the predicates and sites in \p Range.
  void clear(const IdRange &Range) {
    std::fill(Marked.begin() + Range.PredBegin,
              Marked.begin() + Range.PredEnd, 0);
    std::fill(Marked.begin() + NumPreds + Range.SiteBegin,
              Marked.begin() + NumPreds + Range.SiteEnd, 0);
  }

private:
  uint32_t NumPreds;
  std::vector<uint8_t> Marked;
};

} // namespace sbi

#endif // SBI_CORE_AGGREGATOR_H
