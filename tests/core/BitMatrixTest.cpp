//===- tests/core/BitMatrixTest.cpp - Bitset engine units -----------------===//

#include "core/BitMatrix.h"

#include "core/Analysis.h"
#include "SyntheticWorld.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace sbi;

namespace {

/// Randomized multi-bug population (same shape as the analysis
/// differential fixtures): planted bugs with different rates, noise
/// predicates, both labels.
ReportSet multiBugSet(const SyntheticWorld &World, uint64_t Seed,
                      int NumRuns = 500) {
  ReportSet Set(World.Sites.numSites(), World.Sites.numPredicates());
  Rng R(Seed);
  constexpr int NumBugs = 5;
  double Rates[NumBugs] = {0.15, 0.1, 0.06, 0.03, 0.015};
  for (int I = 0; I < NumRuns; ++I) {
    std::vector<uint32_t> True;
    bool Failed = false;
    for (int Bug = 0; Bug < NumBugs; ++Bug)
      if (R.nextBernoulli(Rates[Bug])) {
        True.push_back(static_cast<uint32_t>(Bug));
        if (R.nextBernoulli(0.8))
          Failed = true;
      }
    for (uint32_t Noise = 5; Noise < 9; ++Noise)
      if (R.nextBernoulli(0.3))
        True.push_back(Noise);
    Set.add(SyntheticWorld::makeReport(World.Sites, Failed, True,
                                       {0, 1, 2, 3, 4, 5, 6, 7, 8}));
  }
  return Set;
}

void expectSameCounts(const Aggregates &A, const Aggregates &B,
                      const SiteTable &Sites, const char *Label) {
  ASSERT_EQ(A.numFailing(), B.numFailing()) << Label;
  ASSERT_EQ(A.numSuccessful(), B.numSuccessful()) << Label;
  for (uint32_t Pred = 0; Pred < Sites.numPredicates(); ++Pred) {
    PredicateCounts X = A.counts(Pred, Sites), Y = B.counts(Pred, Sites);
    ASSERT_EQ(X.F, Y.F) << Label << " pred " << Pred;
    ASSERT_EQ(X.S, Y.S) << Label << " pred " << Pred;
    ASSERT_EQ(X.FObs, Y.FObs) << Label << " pred " << Pred;
    ASSERT_EQ(X.SObs, Y.SObs) << Label << " pred " << Pred;
  }
}

} // namespace

// --- BitMatrix layout -------------------------------------------------------

TEST(BitMatrixTest, SetTestRoundTrip) {
  BitMatrix M(3, 1000);
  EXPECT_EQ(M.numRows(), 3u);
  EXPECT_EQ(M.numCols(), 1000u);
  EXPECT_EQ(M.numBlocks(), 2u); // 1000 cols / 512 per block.
  const uint64_t Cols[] = {0, 1, 63, 64, 511, 512, 999};
  for (uint64_t Col : Cols) {
    EXPECT_FALSE(M.test(1, Col));
    M.set(1, Col);
    EXPECT_TRUE(M.test(1, Col)) << Col;
    EXPECT_FALSE(M.test(0, Col)) << Col;
    EXPECT_FALSE(M.test(2, Col)) << Col;
  }
  // No accidental neighbors.
  EXPECT_FALSE(M.test(1, 2));
  EXPECT_FALSE(M.test(1, 62));
  EXPECT_FALSE(M.test(1, 65));
}

TEST(BitMatrixTest, BlockRowMatchesMaskWordOrder) {
  // Column c of block B lands in word (c % 512) / 64 of blockRow(B, row) —
  // the same word a plain mask stores at [B * BlockWords + word], which is
  // what lets the kernels AND rows against masks without remapping.
  BitMatrix M(2, 1200);
  M.set(1, 513); // Block 1, word 0, bit 1.
  M.set(1, 1199); // Block 2, word (1199 - 1024) / 64 = 2, bit 47.
  const uint64_t *Row = M.blockRow(1, 1);
  EXPECT_EQ(Row[0], uint64_t(1) << 1);
  Row = M.blockRow(2, 1);
  EXPECT_EQ(Row[2], uint64_t(1) << 47);
  EXPECT_EQ(M.bytes(),
            M.numBlocks() * 2 * BitMatrix::BlockWords * sizeof(uint64_t));
}

// --- BitsetIndex build ------------------------------------------------------

TEST(BitsetIndexTest, InitialAggregatesMatchFullScan) {
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 7);
  RunProfiles Runs = RunProfiles::fromReports(Set);
  BitsetIndex Index = BitsetIndex::build(Runs, World.Sites);
  Aggregates Full = Aggregates::compute(Runs, RunView::allOf(Runs));
  expectSameCounts(Index.initialAggregates(), Full, World.Sites, "initial");
  EXPECT_EQ(Index.numRuns(), Runs.size());
  EXPECT_EQ(Index.numFailing(), Runs.numFailing());
  EXPECT_GT(Index.matrixBytes(), 0u);
}

TEST(BitsetIndexTest, SurvivorsMatchPrune) {
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 11);
  RunProfiles Runs = RunProfiles::fromReports(Set);
  BitsetIndex Index = BitsetIndex::build(Runs, World.Sites);
  CauseIsolator Isolator(World.Sites, Runs);
  EXPECT_EQ(Index.survivors(), Isolator.prune());
  EXPECT_FALSE(Index.survivors().empty()) << "trivial fixture";
}

TEST(BitsetIndexTest, BuildIsThreadCountInvariant) {
  SyntheticWorld World(16);
  // Enough runs to clear the one-worker-per-4096-runs floor, so the
  // parallel chunked path actually executes.
  ReportSet Set = multiBugSet(World, 13, 9000);
  RunProfiles Runs = RunProfiles::fromReports(Set);
  BitsetIndex Serial = BitsetIndex::build(Runs, World.Sites, 1);
  BitsetIndex Parallel = BitsetIndex::build(Runs, World.Sites, 3);
  expectSameCounts(Serial.initialAggregates(), Parallel.initialAggregates(),
                   World.Sites, "threads");
  EXPECT_EQ(Serial.survivors(), Parallel.survivors());

  // The matrices must be word-identical too: analyses sharing either index
  // are bit-identical across every policy.
  for (DiscardPolicy Policy :
       {DiscardPolicy::DiscardAllRuns, DiscardPolicy::DiscardFailingRuns,
        DiscardPolicy::RelabelFailingRuns}) {
    AnalysisOptions A;
    A.Policy = Policy;
    A.Engine = AnalysisEngine::Bitset;
    A.SharedBitset = &Serial;
    AnalysisOptions B = A;
    B.SharedBitset = &Parallel;
    AnalysisResult RA = CauseIsolator(World.Sites, Runs, A).run();
    AnalysisResult RB = CauseIsolator(World.Sites, Runs, B).run();
    EXPECT_TRUE(bitIdentical(RA, RB)) << discardPolicyName(Policy);
  }
}

// --- BitsetState vs. a mutated-view rescan ---------------------------------

TEST(BitsetStateTest, DiscardFailingMatchesViewRescan) {
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 21);
  RunProfiles Runs = RunProfiles::fromReports(Set);
  BitsetIndex Index = BitsetIndex::build(Runs, World.Sites);
  BitsetState State(Index);

  RunView View = RunView::allOf(Runs);
  ASSERT_FALSE(Index.survivors().empty());
  uint32_t Pred = Index.survivors().front();
  uint64_t Discarded = State.discardFailingRuns(Pred);
  uint64_t Expected = 0;
  for (size_t Run = 0; Run < Runs.size(); ++Run)
    if (View.Failed[Run] && Runs.observedTrue(Run, Pred)) {
      View.Active[Run] = 0;
      ++Expected;
    }
  EXPECT_EQ(Discarded, Expected);
  EXPECT_GT(Discarded, 0u) << "trivial fixture";
  expectSameCounts(State.aggregates(), Aggregates::compute(Runs, View),
                   World.Sites, "discard-failing");
}

TEST(BitsetStateTest, RelabelMatchesViewRescan) {
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 23);
  RunProfiles Runs = RunProfiles::fromReports(Set);
  BitsetIndex Index = BitsetIndex::build(Runs, World.Sites);
  BitsetState State(Index);

  RunView View = RunView::allOf(Runs);
  ASSERT_FALSE(Index.survivors().empty());
  uint32_t Pred = Index.survivors().front();
  uint64_t Relabeled = State.relabelFailingRuns(Pred);
  uint64_t Expected = 0;
  for (size_t Run = 0; Run < Runs.size(); ++Run)
    if (View.Failed[Run] && Runs.observedTrue(Run, Pred)) {
      View.Failed[Run] = 0;
      ++Expected;
    }
  EXPECT_EQ(Relabeled, Expected);
  EXPECT_GT(Relabeled, 0u) << "trivial fixture";
  expectSameCounts(State.aggregates(), Aggregates::compute(Runs, View),
                   World.Sites, "relabel");
}

TEST(BitsetStateTest, DiscardCoveredMatchesViewRescanOnSurvivorRows) {
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 29);
  RunProfiles Runs = RunProfiles::fromReports(Set);
  BitsetIndex Index = BitsetIndex::build(Runs, World.Sites);
  BitsetState State(Index);

  RunView View = RunView::allOf(Runs);
  ASSERT_GE(Index.survivors().size(), 2u);
  // Two successive policy-1 selections, so the second AND runs against an
  // already-shrunk active mask.
  for (uint32_t Pred :
       {Index.survivors().front(), Index.survivors().back()}) {
    uint64_t Discarded = State.discardCoveredRuns(Pred);
    uint64_t Expected = 0;
    for (size_t Run = 0; Run < Runs.size(); ++Run)
      if (View.Active[Run] && Runs.observedTrue(Run, Pred)) {
        View.Active[Run] = 0;
        ++Expected;
      }
    EXPECT_EQ(Discarded, Expected);
    EXPECT_GT(Discarded, 0u) << "trivial fixture";
  }
  // The full-width matrix only carries survivor rows (plus their sites),
  // so the live counts are contractual for exactly those predicates.
  Aggregates Rescan = Aggregates::compute(Runs, View);
  ASSERT_EQ(State.aggregates().numFailing(), Rescan.numFailing());
  ASSERT_EQ(State.aggregates().numSuccessful(), Rescan.numSuccessful());
  for (uint32_t Pred : Index.survivors()) {
    PredicateCounts X = State.aggregates().counts(Pred, World.Sites);
    PredicateCounts Y = Rescan.counts(Pred, World.Sites);
    EXPECT_EQ(X.F, Y.F) << Pred;
    EXPECT_EQ(X.S, Y.S) << Pred;
    EXPECT_EQ(X.FObs, Y.FObs) << Pred;
    EXPECT_EQ(X.SObs, Y.SObs) << Pred;
  }
}

TEST(BitsetStateTest, ChangeMarksNameExactlyTheChangedCounts) {
  // Under every policy, the marks after a selection name exactly the
  // predicates and sites whose live counts the selection changed (policy
  // 1 keeps counts only for the survivor rows, and marks only those).
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 31);
  RunProfiles Runs = RunProfiles::fromReports(Set);
  BitsetIndex Index = BitsetIndex::build(Runs, World.Sites);
  ASSERT_GE(Index.survivors().size(), 2u);
  EXPECT_EQ(BitsetState(Index).changes(), nullptr);
  for (int Policy = 0; Policy < 3; ++Policy) {
    BitsetState State(Index, /*Threads=*/1, /*TrackChanges=*/true);
    ASSERT_NE(State.changes(), nullptr);
    for (uint32_t Pred :
         {Index.survivors().front(), Index.survivors().back()}) {
      const Aggregates Before = State.aggregates();
      uint64_t Touched = Policy == 0   ? State.discardCoveredRuns(Pred)
                         : Policy == 1 ? State.discardFailingRuns(Pred)
                                       : State.relabelFailingRuns(Pred);
      EXPECT_GT(Touched, 0u) << "trivial fixture, policy " << Policy;
      for (uint32_t P = 0; P < World.Sites.numPredicates(); ++P) {
        PredicateCounts A = Before.counts(P, World.Sites);
        PredicateCounts B = State.aggregates().counts(P, World.Sites);
        bool Changed = A.F != B.F || A.S != B.S || A.FObs != B.FObs ||
                       A.SObs != B.SObs;
        ASSERT_EQ(State.changes()->changed(P, World.Sites.predicate(P).Site),
                  Changed)
            << "policy " << Policy << " pred " << P;
      }
      State.clearChanges(IdRange::all(World.Sites.numSites(),
                                      World.Sites.numPredicates()));
    }
  }
}

// --- Density fallback heuristic ---------------------------------------------

TEST(BitsetIndexTest, PreferIncrementalThresholds) {
  // Small population: the fail-matrix estimate is far below 1 MiB, so the
  // bitset engine never falls back regardless of density.
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 31);
  RunProfiles Small = RunProfiles::fromReports(Set);
  EXPECT_FALSE(BitsetIndex::preferIncremental(Small, 1.0 / 256));

  // Large, extremely sparse population (one site + one pred per run over
  // thousands of rows): posting walks win, the heuristic says fall back.
  RunProfiles Sparse(1000, 2000);
  for (int Run = 0; Run < 3000; ++Run) {
    Sparse.beginRun(/*Failed=*/true);
    Sparse.addSite(static_cast<uint32_t>(Run % 1000));
    Sparse.addPred(static_cast<uint32_t>(Run % 2000));
  }
  EXPECT_TRUE(BitsetIndex::preferIncremental(Sparse, 1.0 / 256));
  // A zero threshold disables the fallback outright.
  EXPECT_FALSE(BitsetIndex::preferIncremental(Sparse, 0.0));
}
