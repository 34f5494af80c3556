//===- tests/core/InvertedIndexTest.cpp - Incremental engine tests --------===//

#include "core/InvertedIndex.h"

#include "SyntheticWorld.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

using namespace sbi;

namespace {

/// A randomized report set with mixed labels, noise, and observed-only
/// sites, exercising every count bucket.
ReportSet randomSet(const SyntheticWorld &World, size_t NumRuns,
                    uint64_t Seed) {
  ReportSet Set = World.emptySet();
  Rng R(Seed);
  uint32_t NumSites = World.Sites.numSites();
  for (size_t Run = 0; Run < NumRuns; ++Run) {
    std::vector<uint32_t> True, ObservedOnly;
    for (uint32_t Site = 0; Site < NumSites; ++Site) {
      if (R.nextBernoulli(0.15))
        True.push_back(Site);
      else if (R.nextBernoulli(0.25))
        ObservedOnly.push_back(Site);
    }
    Set.add(SyntheticWorld::makeReport(World.Sites, R.nextBernoulli(0.3),
                                       True, ObservedOnly));
  }
  return Set;
}

/// Profiles over \p NumPreds predicates in which predicate 0 and the last
/// predicate are never true, about one run in ten has no true predicate,
/// and the rest are true at rates from 1/16 to 7/16.
RunProfiles randomProfiles(size_t NumRuns, uint32_t NumPreds, uint64_t Seed) {
  const uint32_t NumSites = 8;
  RunProfiles Runs(NumSites, NumPreds);
  Rng R(Seed);
  for (size_t Run = 0; Run < NumRuns; ++Run) {
    Runs.beginRun(R.nextBernoulli(0.3));
    for (uint32_t Site = 0; Site < NumSites; ++Site)
      if (R.nextBernoulli(0.5))
        Runs.addSite(Site);
    if (R.nextBernoulli(0.1))
      continue;
    for (uint32_t Pred = 1; Pred + 1 < NumPreds; ++Pred)
      if (R.nextBernoulli((Pred % 7 + 1) / 16.0))
        Runs.addPred(Pred);
  }
  return Runs;
}

/// A posting list as a vector, for comparison.
std::vector<uint32_t> ids(IdSpan Span) {
  return std::vector<uint32_t>(Span.begin(), Span.end());
}

/// The transpose by brute force: every run's predicates, in run order.
std::vector<std::vector<uint32_t>> transpose(const RunProfiles &Runs) {
  std::vector<std::vector<uint32_t>> Lists(Runs.numPredicates());
  for (size_t Run = 0; Run < Runs.size(); ++Run)
    for (uint32_t Pred : Runs.preds(Run))
      Lists[Pred].push_back(static_cast<uint32_t>(Run));
  return Lists;
}

/// Profiles over \p NumPreds predicates shaped against the transpose's
/// blocks: every seventh predicate (3, 10, 17, ...) is never true, and so
/// is the whole third block when there are more than three; one run in
/// eight has no true predicate, and the rest are true at rates from 1/16
/// to 7/16. With \p Empty no run has any posting at all.
RunProfiles blockedProfiles(size_t NumRuns, uint32_t NumPreds, uint64_t Seed,
                            bool Empty = false) {
  constexpr uint32_t B = InvertedIndex::BlockPreds;
  const uint32_t NumSites = 5;
  RunProfiles Runs(NumSites, NumPreds);
  Rng R(Seed);
  for (size_t Run = 0; Run < NumRuns; ++Run) {
    Runs.beginRun(R.nextBernoulli(0.3));
    for (uint32_t Site = 0; Site < NumSites; ++Site)
      if (R.nextBernoulli(0.5))
        Runs.addSite(Site);
    if (Empty || R.nextBernoulli(0.125))
      continue;
    for (uint32_t Pred = 0; Pred < NumPreds; ++Pred) {
      const bool Never =
          Pred % 7 == 3 || (NumPreds > 3 * B && Pred / B == 2);
      if (!Never && R.nextBernoulli((Pred % 7 + 1) / 16.0))
        Runs.addPred(Pred);
    }
  }
  return Runs;
}

/// Every list of \p Index is strictly ascending and equals \p Expected.
void expectLists(const InvertedIndex &Index,
                 const std::vector<std::vector<uint32_t>> &Expected,
                 const std::string &What) {
  ASSERT_EQ(Index.numPredicates(), Expected.size()) << What;
  size_t Postings = 0;
  for (uint32_t Pred = 0; Pred < Index.numPredicates(); ++Pred) {
    const std::vector<uint32_t> List = ids(Index.runsWhereTrue(Pred));
    ASSERT_TRUE(std::adjacent_find(List.begin(), List.end(),
                                   std::greater_equal<uint32_t>()) ==
                List.end())
        << What << ": pred " << Pred << " is not ascending";
    ASSERT_EQ(List, Expected[Pred]) << What << ": pred " << Pred;
    Postings += List.size();
  }
  EXPECT_EQ(Index.numPostings(), Postings) << What;
}

/// The counts the analysis seeds DeltaAggregates with: the index's.
Aggregates initialCounts(const RunProfiles &Runs) {
  return InvertedIndex::build(Runs, 1).initialAggregates();
}

/// Asserts that \p Agg matches a from-scratch recomputation under \p View
/// for every predicate.
void expectMatchesRecompute(const SyntheticWorld &World,
                            const RunProfiles &Runs, const RunView &View,
                            const Aggregates &Agg) {
  Aggregates Fresh = Aggregates::compute(Runs, View);
  ASSERT_EQ(Agg.numFailing(), Fresh.numFailing());
  ASSERT_EQ(Agg.numSuccessful(), Fresh.numSuccessful());
  for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred) {
    PredicateCounts A = Agg.counts(Pred, World.Sites);
    PredicateCounts B = Fresh.counts(Pred, World.Sites);
    ASSERT_EQ(A.F, B.F) << "pred " << Pred;
    ASSERT_EQ(A.S, B.S) << "pred " << Pred;
    ASSERT_EQ(A.FObs, B.FObs) << "pred " << Pred;
    ASSERT_EQ(A.SObs, B.SObs) << "pred " << Pred;
  }
}

/// Takes run \p Run, labeled \p Failed, out of \p Delta as the
/// elimination loop takes a discard: the run totals, then every id in one
/// call over the whole id space. With \p Relabel the run moves to the
/// successful label instead.
void takeRun(DeltaAggregates &Delta, const RunProfiles &Runs, size_t Run,
             bool Failed, bool Relabel = false) {
  const std::vector<DeltaAggregates::RunChange> One = {
      {static_cast<uint32_t>(Run), Failed}};
  Delta.applyTotals(One, Relabel);
  Delta.apply(One, Relabel,
              IdRange::all(Runs.numSites(), Runs.numPredicates()));
}

} // namespace

TEST(InvertedIndexTest, PostingListsMatchReports) {
  SyntheticWorld World(12);
  ReportSet Set = randomSet(World, 60, 42);
  InvertedIndex Index =
      InvertedIndex::build(RunProfiles::fromReports(Set), /*Threads=*/1);

  ASSERT_EQ(Index.numPredicates(), Set.numPredicates());
  ASSERT_EQ(Index.numSites(), Set.numSites());
  ASSERT_EQ(Index.numRuns(), Set.size());
  // Brute force from the reports' own entries: a positive count is R(P) = 1.
  std::vector<std::vector<uint32_t>> Expected(Set.numPredicates());
  for (size_t Run = 0; Run < Set.size(); ++Run)
    for (const auto &[Pred, Count] : Set[Run].Counts.TruePredicates)
      if (Count > 0)
        Expected[Pred].push_back(static_cast<uint32_t>(Run));
  for (uint32_t Pred = 0; Pred < Set.numPredicates(); ++Pred)
    EXPECT_EQ(ids(Index.runsWhereTrue(Pred)), Expected[Pred])
        << "pred " << Pred;
}

TEST(InvertedIndexTest, ZeroCountEntriesAreNotIndexed) {
  SyntheticWorld World(8);
  ReportSet Set = World.emptySet();
  FeedbackReport Report;
  Report.Counts.SiteObservations = {{0, 0}, {1, 2}};
  Report.Counts.TruePredicates = {{World.predOf(0), 0},
                                  {World.predOf(1), 1}};
  Set.add(std::move(Report));
  InvertedIndex Index = InvertedIndex::build(RunProfiles::fromReports(Set), 1);
  EXPECT_EQ(Index.runsWhereTrue(World.predOf(0)).size(), 0u);
  EXPECT_EQ(Index.runsWhereTrue(World.predOf(1)).size(), 1u);
}

TEST(InvertedIndexTest, ParallelBuildMatchesSerial) {
  SyntheticWorld World(12);
  // Enough runs that the parallel path actually splits into chunks (the
  // builder falls back to serial below ~4k runs per worker).
  RunProfiles Runs = RunProfiles::fromReports(randomSet(World, 9000, 7));
  InvertedIndex Serial = InvertedIndex::build(Runs, 1);
  for (size_t Threads : {2u, 3u, 8u}) {
    InvertedIndex Parallel = InvertedIndex::build(Runs, Threads);
    ASSERT_EQ(Parallel.numPostings(), Serial.numPostings());
    for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred)
      ASSERT_EQ(ids(Parallel.runsWhereTrue(Pred)),
                ids(Serial.runsWhereTrue(Pred)))
          << "pred " << Pred << " with " << Threads << " threads";
  }
}

TEST(InvertedIndexTest, TransposeMatchesBruteForceAtAnyChunkCount) {
  // One worker per 4,096 runs at most: an empty population and 4,000 runs
  // build in one chunk, 9,000 in up to two, 17,000 in up to four.
  for (size_t NumRuns : {0u, 4000u, 9000u, 17000u}) {
    RunProfiles Runs = randomProfiles(NumRuns, /*NumPreds=*/40, NumRuns);
    size_t PredIds = 0;
    for (size_t Run = 0; Run < Runs.size(); ++Run)
      PredIds += Runs.preds(Run).size();
    std::vector<std::vector<uint32_t>> Expected(Runs.numPredicates());
    for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred)
      for (size_t Run = 0; Run < Runs.size(); ++Run)
        if (Runs.observedTrue(Run, Pred))
          Expected[Pred].push_back(static_cast<uint32_t>(Run));
    ASSERT_TRUE(Expected.front().empty() && Expected.back().empty());

    for (size_t Threads : {0u, 1u, 2u, 3u, 8u}) {
      InvertedIndex Index = InvertedIndex::build(Runs, Threads);
      ASSERT_EQ(Index.numPredicates(), Runs.numPredicates());
      ASSERT_EQ(Index.numSites(), Runs.numSites());
      ASSERT_EQ(Index.numRuns(), NumRuns);
      ASSERT_EQ(Index.numPostings(), PredIds);
      for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred)
        ASSERT_EQ(ids(Index.runsWhereTrue(Pred)), Expected[Pred])
            << "pred " << Pred << ", " << NumRuns << " runs, " << Threads
            << " threads";
    }
  }
}

TEST(InvertedIndexTest, BlockedTransposeMatchesBruteForce) {
  // Predicate counts that straddle the block width, and several blocks of
  // which one is empty, over run counts that build in one to four chunks
  // (one worker per 4,096 runs at most), at every thread count.
  constexpr uint32_t B = InvertedIndex::BlockPreds;
  for (uint32_t NumPreds : {0u, 1u, B - 1, B, B + 1, 4 * B + 5}) {
    for (size_t NumRuns : {4000u, 9000u, 13000u, 17000u}) {
      RunProfiles Runs =
          blockedProfiles(NumRuns, NumPreds, NumRuns + NumPreds);
      const std::vector<std::vector<uint32_t>> Expected = transpose(Runs);
      for (uint32_t Pred = 2 * B; NumPreds > 3 * B && Pred < 3 * B; ++Pred)
        ASSERT_TRUE(Expected[Pred].empty()) << "the empty block is not";
      for (size_t Threads : {0u, 1u, 2u, 3u, 8u}) {
        InvertedIndex Index = InvertedIndex::build(Runs, Threads);
        ASSERT_EQ(Index.numRuns(), NumRuns);
        expectLists(Index, Expected,
                    std::to_string(NumPreds) + " preds, " +
                        std::to_string(NumRuns) + " runs, " +
                        std::to_string(Threads) + " threads");
      }
    }
  }
}

TEST(InvertedIndexTest, RunsWithoutPostingsBuildEmptyLists) {
  // Every run observes sites but no predicate is ever true, so every list
  // (and every block region) is empty, at one to four chunks.
  for (size_t NumRuns : {0u, 4000u, 9000u, 13000u, 17000u}) {
    RunProfiles Runs =
        blockedProfiles(NumRuns, 2 * InvertedIndex::BlockPreds + 3, NumRuns,
                        /*Empty=*/true);
    for (size_t Threads : {0u, 1u, 2u, 3u, 8u}) {
      InvertedIndex Index = InvertedIndex::build(Runs, Threads);
      expectLists(Index, transpose(Runs),
                  std::to_string(NumRuns) + " runs, " +
                      std::to_string(Threads) + " threads");
      EXPECT_EQ(Index.numPostings(), 0u);
      EXPECT_EQ(Index.initialAggregates().numFailing() +
                    Index.initialAggregates().numSuccessful(),
                NumRuns);
    }
  }
}

TEST(InvertedIndexTest, InitialAggregatesMatchAFullScan) {
  // The counting pass's tallies, summed over the chunks, are the counts a
  // full scan gives: every site and every predicate under both labels,
  // and the label totals, at every thread count and chunk count.
  for (size_t NumRuns : {0u, 4000u, 17000u}) {
    RunProfiles Runs =
        blockedProfiles(NumRuns, 3 * InvertedIndex::BlockPreds + 7, NumRuns);
    const Aggregates Full = Aggregates::compute(Runs, RunView::allOf(Runs));
    ASSERT_TRUE(NumRuns == 0 || Full.numFailing() > 0) << "trivial fixture";
    for (size_t Threads : {0u, 1u, 2u, 3u, 8u}) {
      InvertedIndex Index = InvertedIndex::build(Runs, Threads);
      const Aggregates &Agg = Index.initialAggregates();
      const std::string What = std::to_string(NumRuns) + " runs, " +
                               std::to_string(Threads) + " threads";
      ASSERT_EQ(Agg.numFailing(), Full.numFailing()) << What;
      ASSERT_EQ(Agg.numSuccessful(), Full.numSuccessful()) << What;
      for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred) {
        ASSERT_EQ(Agg.counts(Pred, 0u).F, Full.counts(Pred, 0u).F)
            << What << ": pred " << Pred;
        ASSERT_EQ(Agg.counts(Pred, 0u).S, Full.counts(Pred, 0u).S)
            << What << ": pred " << Pred;
      }
      for (uint32_t Site = 0; Site < Runs.numSites(); ++Site) {
        ASSERT_EQ(Agg.counts(0, Site).FObs, Full.counts(0, Site).FObs)
            << What << ": site " << Site;
        ASSERT_EQ(Agg.counts(0, Site).SObs, Full.counts(0, Site).SObs)
            << What << ": site " << Site;
      }
    }
  }
}

TEST(DeltaAggregatesTest, InitialStateMatchesFullScan) {
  SyntheticWorld World(12);
  RunProfiles Runs = RunProfiles::fromReports(randomSet(World, 80, 11));
  RunView View = RunView::allOf(Runs);
  DeltaAggregates Delta(Runs, initialCounts(Runs));
  expectMatchesRecompute(World, Runs, View, Delta.aggregates());
}

TEST(DeltaAggregatesTest, RemovalMatchesRecompute) {
  SyntheticWorld World(12);
  RunProfiles Runs = RunProfiles::fromReports(randomSet(World, 80, 23));
  RunView View = RunView::allOf(Runs);
  DeltaAggregates Delta(Runs, initialCounts(Runs));

  Rng R(5);
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    if (!R.nextBernoulli(0.4))
      continue;
    takeRun(Delta, Runs, Run, View.Failed[Run]);
    View.Active[Run] = 0;
    // Compare after every mutation, not just at the end, so an
    // off-by-one-run bug cannot cancel out.
    expectMatchesRecompute(World, Runs, View, Delta.aggregates());
  }
}

TEST(DeltaAggregatesTest, RelabelMatchesRecompute) {
  SyntheticWorld World(12);
  RunProfiles Runs = RunProfiles::fromReports(randomSet(World, 80, 31));
  RunView View = RunView::allOf(Runs);
  DeltaAggregates Delta(Runs, initialCounts(Runs));

  Rng R(9);
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    if (!View.Failed[Run] || !R.nextBernoulli(0.5))
      continue;
    takeRun(Delta, Runs, Run, /*Failed=*/true, /*Relabel=*/true);
    View.Failed[Run] = 0;
    expectMatchesRecompute(World, Runs, View, Delta.aggregates());
  }
}

TEST(DeltaAggregatesTest, MixedMutationSequenceMatchesRecompute) {
  SyntheticWorld World(12);
  RunProfiles Runs = RunProfiles::fromReports(randomSet(World, 120, 77));
  RunView View = RunView::allOf(Runs);
  DeltaAggregates Delta(Runs, initialCounts(Runs));

  Rng R(13);
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    double Roll = R.nextDouble();
    if (Roll < 0.25) {
      takeRun(Delta, Runs, Run, View.Failed[Run]);
      View.Active[Run] = 0;
    } else if (Roll < 0.5 && View.Failed[Run]) {
      takeRun(Delta, Runs, Run, /*Failed=*/true, /*Relabel=*/true);
      View.Failed[Run] = 0;
    }
  }
  expectMatchesRecompute(World, Runs, View, Delta.aggregates());
}

TEST(DeltaAggregatesTest, ChangeMarksNameExactlyTheChangedCounts) {
  // The elimination loop rescores a candidate only when its own counts or
  // its site's are marked, so every mutation must mark what it changed;
  // marking nothing else keeps the rescoring to what changed.
  SyntheticWorld World(12);
  RunProfiles Runs = RunProfiles::fromReports(randomSet(World, 80, 41));
  RunView View = RunView::allOf(Runs);
  EXPECT_EQ(DeltaAggregates(Runs, initialCounts(Runs)).changes(), nullptr);
  DeltaAggregates Delta(Runs, initialCounts(Runs), /*TrackChanges=*/true);
  ASSERT_NE(Delta.changes(), nullptr);

  Rng R(17);
  size_t Mutations = 0;
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    const Aggregates Before = Delta.aggregates();
    if (R.nextBernoulli(0.4)) {
      takeRun(Delta, Runs, Run, View.Failed[Run]);
    } else if (View.Failed[Run]) {
      takeRun(Delta, Runs, Run, /*Failed=*/true, /*Relabel=*/true);
    } else {
      continue;
    }
    ++Mutations;
    for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred) {
      PredicateCounts A = Before.counts(Pred, World.Sites);
      PredicateCounts B = Delta.aggregates().counts(Pred, World.Sites);
      bool Changed = A.F != B.F || A.S != B.S || A.FObs != B.FObs ||
                     A.SObs != B.SObs;
      ASSERT_EQ(Delta.changes()->changed(
                    Pred, World.Sites.predicate(Pred).Site),
                Changed)
          << "run " << Run << " pred " << Pred;
    }
    Delta.clearChanges(
        IdRange::all(Runs.numSites(), Runs.numPredicates()));
  }
  EXPECT_GT(Mutations, 20u) << "trivial fixture";
}

TEST(DeltaAggregatesTest, SlicedApplyMatchesWholeApply) {
  // A discard applied slice by slice, in any order, leaves the counts and
  // the marks that one call over the whole id space leaves; clearing one
  // slice's marks clears no other slice's.
  SyntheticWorld World(40);
  RunProfiles Runs = RunProfiles::fromReports(randomSet(World, 120, 53));
  const std::vector<IdRange> Slices = siteAlignedSlices(World.Sites, 20);
  ASSERT_GE(Slices.size(), 3u);
  const IdRange All = IdRange::all(Runs.numSites(), Runs.numPredicates());
  for (bool Relabel : {false, true}) {
    std::vector<DeltaAggregates::RunChange> Changes;
    for (size_t Run = 0; Run < Runs.size(); Run += 3)
      if (!Relabel || Runs.failed(Run))
        Changes.push_back({static_cast<uint32_t>(Run), Runs.failed(Run)});
    ASSERT_GT(Changes.size(), 10u) << "trivial fixture";
    DeltaAggregates Whole(Runs, initialCounts(Runs), /*TrackChanges=*/true);
    DeltaAggregates Sliced(Runs, initialCounts(Runs), /*TrackChanges=*/true);
    Whole.applyTotals(Changes, Relabel);
    Whole.apply(Changes, Relabel, All);
    Sliced.applyTotals(Changes, Relabel);
    for (size_t S = Slices.size(); S-- > 0;)
      Sliced.apply(Changes, Relabel, Slices[S]);

    RunView View = RunView::allOf(Runs);
    for (const DeltaAggregates::RunChange &Change : Changes)
      (Relabel ? View.Failed : View.Active)[Change.Run] = 0;
    expectMatchesRecompute(World, Runs, View, Whole.aggregates());
    expectMatchesRecompute(World, Runs, View, Sliced.aggregates());
    size_t Marked = 0;
    for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred) {
      const uint32_t Site = World.Sites.predicate(Pred).Site;
      ASSERT_EQ(Sliced.changes()->changed(Pred, Site),
                Whole.changes()->changed(Pred, Site))
          << "pred " << Pred;
      Marked += Whole.changes()->changed(Pred, Site);
    }
    EXPECT_GT(Marked, 0u) << "trivial fixture";

    Sliced.clearChanges(Slices[1]);
    for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred) {
      const uint32_t Site = World.Sites.predicate(Pred).Site;
      const bool InSlice =
          Pred >= Slices[1].PredBegin && Pred < Slices[1].PredEnd;
      ASSERT_EQ(Sliced.changes()->changed(Pred, Site),
                !InSlice && Whole.changes()->changed(Pred, Site))
          << "pred " << Pred;
    }
  }
}
