//===- tests/core/InvertedIndexTest.cpp - Incremental engine tests --------===//

#include "core/InvertedIndex.h"

#include "SyntheticWorld.h"

#include <gtest/gtest.h>

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

TEST(DeltaAggregatesTest, InitialStateMatchesFullScan) {
  SyntheticWorld World(12);
  RunProfiles Runs = RunProfiles::fromReports(randomSet(World, 80, 11));
  RunView View = RunView::allOf(Runs);
  DeltaAggregates Delta(Runs, View);
  expectMatchesRecompute(World, Runs, View, Delta.aggregates());
}

TEST(DeltaAggregatesTest, RemovalMatchesRecompute) {
  SyntheticWorld World(12);
  RunProfiles Runs = RunProfiles::fromReports(randomSet(World, 80, 23));
  RunView View = RunView::allOf(Runs);
  DeltaAggregates Delta(Runs, View);

  Rng R(5);
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    if (!R.nextBernoulli(0.4))
      continue;
    Delta.removeRun(Run, View.Failed[Run]);
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
  DeltaAggregates Delta(Runs, View);

  Rng R(9);
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    if (!View.Failed[Run] || !R.nextBernoulli(0.5))
      continue;
    Delta.relabelRunAsSuccess(Run);
    View.Failed[Run] = 0;
    expectMatchesRecompute(World, Runs, View, Delta.aggregates());
  }
}

TEST(DeltaAggregatesTest, MixedMutationSequenceMatchesRecompute) {
  SyntheticWorld World(12);
  RunProfiles Runs = RunProfiles::fromReports(randomSet(World, 120, 77));
  RunView View = RunView::allOf(Runs);
  DeltaAggregates Delta(Runs, View);

  Rng R(13);
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    double Roll = R.nextDouble();
    if (Roll < 0.25) {
      Delta.removeRun(Run, View.Failed[Run]);
      View.Active[Run] = 0;
    } else if (Roll < 0.5 && View.Failed[Run]) {
      Delta.relabelRunAsSuccess(Run);
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
  EXPECT_EQ(DeltaAggregates(Runs, View).changes(), nullptr);
  DeltaAggregates Delta(Runs, View, /*TrackChanges=*/true);
  ASSERT_NE(Delta.changes(), nullptr);

  Rng R(17);
  size_t Mutations = 0;
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    const Aggregates Before = Delta.aggregates();
    if (R.nextBernoulli(0.4)) {
      Delta.removeRun(Run, View.Failed[Run]);
    } else if (View.Failed[Run]) {
      Delta.relabelRunAsSuccess(Run);
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
    Delta.clearChanges();
  }
  EXPECT_GT(Mutations, 20u) << "trivial fixture";
}
