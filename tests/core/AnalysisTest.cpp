//===- tests/core/AnalysisTest.cpp - Cause-isolation algorithm tests ------===//

#include "core/Analysis.h"

#include "core/BitMatrix.h"
#include "core/InvertedIndex.h"

#include "SyntheticWorld.h"
#include "obs/Tracer.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>

using namespace sbi;

namespace {

/// Report builder that can set any predicate offset within a site true,
/// enabling complementary-predicate (P vs not-P) scenarios.
FeedbackReport makeOffsetReport(
    const SiteTable &Sites, bool Failed,
    std::vector<std::pair<uint32_t, uint32_t>> SiteAndOffset,
    std::vector<uint32_t> ObservedOnly = {}) {
  FeedbackReport Report;
  Report.Failed = Failed;
  std::set<uint32_t> All;
  for (const auto &[Site, Offset] : SiteAndOffset)
    All.insert(Site);
  for (uint32_t Site : ObservedOnly)
    All.insert(Site);
  for (uint32_t Site : All)
    Report.Counts.SiteObservations.emplace_back(Site, 1);
  std::set<uint32_t> Preds;
  for (const auto &[Site, Offset] : SiteAndOffset)
    Preds.insert(Sites.site(Site).FirstPredicate + Offset);
  for (uint32_t Pred : Preds)
    Report.Counts.TruePredicates.emplace_back(Pred, 1);
  return Report;
}

} // namespace

TEST(PruningTest, DoomedPathPredicateIsDiscarded) {
  // Site 0: the real cause (true exactly in failing runs, observed
  // everywhere). Site 1: the paper's x == 0 predicate, observed only on
  // the doomed path and always true there.
  SyntheticWorld World(8);
  ReportSet Set = World.emptySet();
  for (int I = 0; I < 30; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {0, 1}));
  for (int I = 0; I < 70; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, false, {}, {0}));

  CauseIsolator Isolator(World.Sites, Set);
  std::vector<uint32_t> Survivors = Isolator.prune();
  std::set<uint32_t> Surviving(Survivors.begin(), Survivors.end());
  EXPECT_TRUE(Surviving.count(World.predOf(0)));
  EXPECT_FALSE(Surviving.count(World.predOf(1)))
      << "Failure = Context = 1.0 predicates must not survive";
}

TEST(PruningTest, InvariantPredicateIsDiscarded) {
  SyntheticWorld World(8);
  ReportSet Set = World.emptySet();
  for (int I = 0; I < 25; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {2}));
  for (int I = 0; I < 75; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, false, {2}));
  CauseIsolator Isolator(World.Sites, Set);
  for (uint32_t Survivor : Isolator.prune())
    EXPECT_NE(Survivor, World.predOf(2));
}

TEST(PruningTest, LowConfidencePredicateIsDiscarded) {
  // A mildly positive Increase from very few observations: the point
  // estimate is above zero but the 95% interval is not.
  SyntheticWorld World(8);
  ReportSet Set = World.emptySet();
  Set.add(SyntheticWorld::makeReport(World.Sites, true, {3}));
  Set.add(SyntheticWorld::makeReport(World.Sites, true, {3}));
  Set.add(SyntheticWorld::makeReport(World.Sites, false, {3}));
  for (int I = 0; I < 8; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {}, {3}));
  for (int I = 0; I < 19; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, false, {}, {3}));
  // Failure = 2/3 vs Context = 10/30: positive but uncertain.
  RunProfiles Runs = RunProfiles::fromReports(Set);
  Aggregates Agg = Aggregates::compute(Runs, RunView::allOf(Runs));
  PredicateScores Scores = Agg.scores(World.predOf(3), World.Sites);
  ASSERT_GT(Scores.increase().Value, 0.0);
  CauseIsolator Isolator(World.Sites, Runs);
  for (uint32_t Survivor : Isolator.prune())
    EXPECT_NE(Survivor, World.predOf(3));
}

TEST(EliminationTest, TwoBugsGetTwoPredictors) {
  SyntheticWorld World(12);
  ReportSet Set = World.emptySet();
  // Bug A (common): predicted by site 0. Bug B (rarer): by site 1.
  // Everything is also observed at sites 0 and 1 so Context is meaningful.
  for (int I = 0; I < 60; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {0}, {1},
                                       FeedbackReport::bugBit(1)));
  for (int I = 0; I < 20; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {1}, {0},
                                       FeedbackReport::bugBit(2)));
  for (int I = 0; I < 200; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, false, {}, {0, 1}));

  CauseIsolator Isolator(World.Sites, Set);
  AnalysisResult Result = Isolator.run();
  ASSERT_GE(Result.Selected.size(), 2u);
  EXPECT_EQ(Result.Selected[0].Pred, World.predOf(0))
      << "the more important bug's predictor is selected first";
  EXPECT_EQ(Result.Selected[1].Pred, World.predOf(1));
}

TEST(EliminationTest, RedundantPredicatesCollapseToOne) {
  SyntheticWorld World(12);
  ReportSet Set = World.emptySet();
  // Sites 0 and 1 are perfectly redundant (always true together).
  for (int I = 0; I < 40; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {0, 1}));
  for (int I = 0; I < 160; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, false, {}, {0, 1}));

  CauseIsolator Isolator(World.Sites, Set);
  AnalysisResult Result = Isolator.run();
  // The first selection covers every failing run, so exactly one of the
  // two is selected.
  ASSERT_EQ(Result.Selected.size(), 1u);
  // And the redundant partner tops its affinity list.
  ASSERT_FALSE(Result.Selected[0].Affinity.empty());
  uint32_t Partner = Result.Selected[0].Pred == World.predOf(0)
                         ? World.predOf(1)
                         : World.predOf(0);
  EXPECT_EQ(Result.Selected[0].Affinity[0].first, Partner);
}

TEST(EliminationTest, EffectiveScoresReflectDilution) {
  SyntheticWorld World(12);
  ReportSet Set = World.emptySet();
  // Bug A at site 0 (strong); site 1 is a sub-predictor: true in half of
  // bug A's failing runs plus a few unique failures of bug B.
  for (int I = 0; I < 30; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {0, 1}, {}));
  for (int I = 0; I < 30; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {0}, {1}));
  for (int I = 0; I < 12; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {1}, {0}));
  for (int I = 0; I < 150; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, false, {}, {0, 1}));

  CauseIsolator Isolator(World.Sites, Set);
  AnalysisResult Result = Isolator.run();
  ASSERT_GE(Result.Selected.size(), 2u);
  const SelectedPredicate *Second = nullptr;
  for (const SelectedPredicate &Entry : Result.Selected)
    if (Entry.Pred == World.predOf(1))
      Second = &Entry;
  ASSERT_NE(Second, nullptr);
  // By the time site 1 is selected, its shared runs are gone: the
  // effective F is the 12 unique failures, well below the initial 42.
  EXPECT_EQ(Second->InitialScores.counts().F, 42u);
  EXPECT_EQ(Second->EffectiveScores.counts().F, 12u);
  EXPECT_LT(Second->FailingRunsAtSelection, 72u);
}

TEST(EliminationTest, DeterministicAcrossCalls) {
  SyntheticWorld World(12);
  ReportSet Set = World.emptySet();
  Rng R(99);
  for (int I = 0; I < 150; ++I) {
    bool BugA = R.nextBernoulli(0.2);
    bool BugB = R.nextBernoulli(0.1);
    std::vector<uint32_t> True;
    if (BugA)
      True.push_back(0);
    if (BugB)
      True.push_back(1);
    if (R.nextBernoulli(0.5))
      True.push_back(2); // Noise.
    Set.add(SyntheticWorld::makeReport(World.Sites, BugA || BugB, True,
                                       {0, 1, 2}));
  }
  CauseIsolator Isolator(World.Sites, Set);
  AnalysisResult A = Isolator.run();
  AnalysisResult B = Isolator.run();
  ASSERT_EQ(A.Selected.size(), B.Selected.size());
  for (size_t I = 0; I < A.Selected.size(); ++I)
    EXPECT_EQ(A.Selected[I].Pred, B.Selected[I].Pred);
}

TEST(EliminationTest, MaxSelectionsHonored) {
  SyntheticWorld World(24);
  ReportSet Set = World.emptySet();
  // Ten independent "bugs", each with its own predictor site.
  for (uint32_t Bug = 0; Bug < 10; ++Bug)
    for (int I = 0; I < 12; ++I)
      Set.add(SyntheticWorld::makeReport(World.Sites, true, {Bug},
                                         {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  for (int I = 0; I < 100; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, false, {},
                                       {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  AnalysisOptions Options;
  Options.MaxSelections = 3;
  CauseIsolator Isolator(World.Sites, Set, Options);
  EXPECT_EQ(Isolator.run().Selected.size(), 3u);
}

// --- Lemma 3.1: every covered bug keeps a predictor ----------------------

class LemmaCoverageTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LemmaCoverageTest, EveryCoveredBugGetsAPredictor) {
  SyntheticWorld World(24);
  Rng R(GetParam());
  ReportSet Set = World.emptySet();

  constexpr int NumBugs = 4;
  // Bug k is predicted by site k; rates differ by an order of magnitude.
  double Rates[NumBugs] = {0.2, 0.1, 0.05, 0.02};
  for (int I = 0; I < 600; ++I) {
    std::vector<uint32_t> True;
    uint64_t Mask = 0;
    for (int Bug = 0; Bug < NumBugs; ++Bug)
      if (R.nextBernoulli(Rates[Bug])) {
        True.push_back(static_cast<uint32_t>(Bug));
        Mask |= FeedbackReport::bugBit(Bug + 1);
      }
    bool Failed = Mask != 0;
    // Noise predicate, uncorrelated.
    if (R.nextBernoulli(0.3))
      True.push_back(10);
    Set.add(SyntheticWorld::makeReport(World.Sites, Failed, True,
                                       {0, 1, 2, 3, 10}, Mask));
  }

  RunProfiles Runs = RunProfiles::fromReports(Set);
  CauseIsolator Isolator(World.Sites, Runs);
  AnalysisResult Result = Isolator.run();

  // Lemma 3.1: each bug that causes at least one failing run where its
  // predictor is observed true must be covered by some selected predicate.
  for (int Bug = 1; Bug <= NumBugs; ++Bug) {
    size_t BugFailures = 0;
    for (size_t Run = 0; Run < Runs.size(); ++Run)
      if (Runs.failed(Run) && Runs.hasBug(Run, Bug))
        ++BugFailures;
    if (BugFailures == 0)
      continue;
    bool Covered = false;
    for (const SelectedPredicate &Entry : Result.Selected)
      for (size_t Run = 0; Run < Runs.size(); ++Run)
        if (Runs.failed(Run) && Runs.hasBug(Run, Bug) &&
            Runs.observedTrue(Run, Entry.Pred)) {
          Covered = true;
          break;
        }
    EXPECT_TRUE(Covered) << "bug " << Bug << " (seed " << GetParam()
                         << ", " << BugFailures << " failures) uncovered";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LemmaCoverageTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- Section 5: the three run-discard policies ----------------------------

namespace {

/// Two anti-correlated bugs: bug A's predictor P is site 0's Lt predicate
/// (offset 0); bug B's predictor is the complementary Ge predicate
/// (offset 3) of the SAME site. Every run observes site 0 and exactly one
/// of the two predicates is true, like P and not-P in Section 5. Bug A
/// dominates, so Increase(not-P) is initially negative.
ReportSet antiCorrelatedSet(const SyntheticWorld &World) {
  ReportSet Set =
      ReportSet(World.Sites.numSites(), World.Sites.numPredicates());
  for (int I = 0; I < 80; ++I) // Bug A failures: P true.
    Set.add(makeOffsetReport(World.Sites, true, {{0, 0}}));
  for (int I = 0; I < 30; ++I) // Bug B failures: not-P true.
    Set.add(makeOffsetReport(World.Sites, true, {{0, 3}}));
  for (int I = 0; I < 20; ++I) // Successes: P true (innocuously).
    Set.add(makeOffsetReport(World.Sites, false, {{0, 0}}));
  for (int I = 0; I < 70; ++I) // Successes: not-P true.
    Set.add(makeOffsetReport(World.Sites, false, {{0, 3}}));
  return Set;
}

} // namespace

TEST(PolicyTest, NotPInitiallyFailsThePruningTest) {
  SyntheticWorld World(8);
  RunProfiles Runs = RunProfiles::fromReports(antiCorrelatedSet(World));
  uint32_t NotP = World.Sites.site(0).FirstPredicate + 3;
  Aggregates Agg = Aggregates::compute(Runs, RunView::allOf(Runs));
  // Overshadowed by the anti-correlated dominant bug (Section 5).
  EXPECT_LT(Agg.scores(NotP, World.Sites).increase().Value, 0.0);
}

TEST(PolicyTest, RetainingPoliciesIsolateAntiCorrelatedBugs) {
  // Under proposals (2) and (3), not-P must not be discarded early and is
  // found once P's runs are handled.
  SyntheticWorld World(8);
  ReportSet Set = antiCorrelatedSet(World);
  uint32_t P = World.Sites.site(0).FirstPredicate + 0;
  uint32_t NotP = World.Sites.site(0).FirstPredicate + 3;

  for (DiscardPolicy Policy : {DiscardPolicy::DiscardFailingRuns,
                               DiscardPolicy::RelabelFailingRuns}) {
    AnalysisOptions Options;
    Options.Policy = Policy;
    CauseIsolator Isolator(World.Sites, Set, Options);
    AnalysisResult Result = Isolator.run();
    std::set<uint32_t> Picked;
    for (const SelectedPredicate &Entry : Result.Selected)
      Picked.insert(Entry.Pred);
    EXPECT_TRUE(Picked.count(P)) << discardPolicyName(Policy);
    EXPECT_TRUE(Picked.count(NotP)) << discardPolicyName(Policy);
  }
}

TEST(PolicyTest, DiscardAllFindsOnlyOneOfTheComplements) {
  // Under proposal (1), once P's runs are discarded, every remaining run
  // observing the site has not-P true, so Increase(not-P) is exactly 0 and
  // not-P can never rise; "only one of P or not-P can have positive
  // predictive power".
  SyntheticWorld World(8);
  ReportSet Set = antiCorrelatedSet(World);
  uint32_t P = World.Sites.site(0).FirstPredicate + 0;
  uint32_t NotP = World.Sites.site(0).FirstPredicate + 3;

  CauseIsolator Isolator(World.Sites, Set);
  AnalysisResult Result = Isolator.run();
  std::set<uint32_t> Picked;
  for (const SelectedPredicate &Entry : Result.Selected)
    Picked.insert(Entry.Pred);
  EXPECT_TRUE(Picked.count(P));
  EXPECT_FALSE(Picked.count(NotP));
}

TEST(PolicyTest, ComplementIncreaseNonNegativeAfterSelection) {
  // Section 5: right after P is selected, Increase(not-P) >= 0 under every
  // proposal (when defined). Apply each policy's run-view transformation
  // for P by hand and check the complement's score.
  SyntheticWorld World(8);
  RunProfiles Runs = RunProfiles::fromReports(antiCorrelatedSet(World));
  uint32_t P = World.Sites.site(0).FirstPredicate + 0;
  uint32_t NotP = World.Sites.site(0).FirstPredicate + 3;

  for (DiscardPolicy Policy :
       {DiscardPolicy::DiscardAllRuns, DiscardPolicy::DiscardFailingRuns,
        DiscardPolicy::RelabelFailingRuns}) {
    RunView View = RunView::allOf(Runs);
    for (size_t Run = 0; Run < Runs.size(); ++Run) {
      if (!Runs.observedTrue(Run, P))
        continue;
      switch (Policy) {
      case DiscardPolicy::DiscardAllRuns:
        View.Active[Run] = 0;
        break;
      case DiscardPolicy::DiscardFailingRuns:
        if (View.Failed[Run])
          View.Active[Run] = 0;
        break;
      case DiscardPolicy::RelabelFailingRuns:
        if (View.Failed[Run])
          View.Failed[Run] = 0;
        break;
      }
    }
    Aggregates Agg = Aggregates::compute(Runs, View);
    PredicateScores Scores = Agg.scores(NotP, World.Sites);
    if (Scores.counts().observed() > 0) {
      EXPECT_GE(Scores.increase().Value, -1e-12)
          << discardPolicyName(Policy);
    }
  }
}

TEST(PolicyTest, RelabelKeepsEveryRunActive) {
  SyntheticWorld World(8);
  ReportSet Set = antiCorrelatedSet(World);
  AnalysisOptions Options;
  Options.Policy = DiscardPolicy::RelabelFailingRuns;
  CauseIsolator Isolator(World.Sites, Set, Options);
  AnalysisResult Result = Isolator.run();
  ASSERT_GE(Result.Selected.size(), 2u);
  // The second selection still sees the full population.
  EXPECT_EQ(Result.Selected[1].ActiveRunsAtSelection, Set.size());
}

TEST(PolicyTest, DiscardFailingKeepsSuccesses) {
  SyntheticWorld World(8);
  ReportSet Set = antiCorrelatedSet(World);
  AnalysisOptions Options;
  Options.Policy = DiscardPolicy::DiscardFailingRuns;
  CauseIsolator Isolator(World.Sites, Set, Options);
  AnalysisResult Result = Isolator.run();
  ASSERT_GE(Result.Selected.size(), 2u);
  // The 80 failing runs with P were discarded; every success remains.
  EXPECT_EQ(Result.Selected[1].ActiveRunsAtSelection, Set.size() - 80);
}

// --- Rescan vs incremental engine differential ----------------------------

namespace {

/// A randomized multi-bug world with noise, shared observations, and both
/// labels, used to differential-test the two aggregation engines.
ReportSet multiBugSet(const SyntheticWorld &World, uint64_t Seed) {
  ReportSet Set =
      ReportSet(World.Sites.numSites(), World.Sites.numPredicates());
  Rng R(Seed);
  constexpr int NumBugs = 5;
  double Rates[NumBugs] = {0.15, 0.1, 0.06, 0.03, 0.015};
  for (int I = 0; I < 500; ++I) {
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

} // namespace

class EngineDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineDifferentialTest, EnginesBitIdenticalAcrossPolicies) {
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, GetParam());
  for (DiscardPolicy Policy :
       {DiscardPolicy::DiscardAllRuns, DiscardPolicy::DiscardFailingRuns,
        DiscardPolicy::RelabelFailingRuns}) {
    AnalysisOptions Rescan;
    Rescan.Policy = Policy;
    Rescan.Engine = AnalysisEngine::Rescan;
    AnalysisOptions Incremental = Rescan;
    Incremental.Engine = AnalysisEngine::Incremental;
    AnalysisOptions Bitset = Rescan;
    Bitset.Engine = AnalysisEngine::Bitset;

    AnalysisResult A = CauseIsolator(World.Sites, Set, Rescan).run();
    AnalysisResult B = CauseIsolator(World.Sites, Set, Incremental).run();
    AnalysisResult C = CauseIsolator(World.Sites, Set, Bitset).run();
    EXPECT_TRUE(bitIdentical(A, B))
        << discardPolicyName(Policy) << " seed " << GetParam();
    EXPECT_TRUE(bitIdentical(A, C))
        << "bitset, " << discardPolicyName(Policy) << " seed " << GetParam();
    EXPECT_FALSE(B.Selected.empty()) << "trivial differential";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Values(101, 202, 303, 404));

TEST(EngineDifferentialTest, SharedIndexMatchesOwnedIndex) {
  // A caller may build the index once and reuse it across several run()
  // invocations (the index is immutable); results must match an isolator
  // that builds its own.
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 909);
  InvertedIndex Index = InvertedIndex::build(RunProfiles::fromReports(Set));
  for (DiscardPolicy Policy :
       {DiscardPolicy::DiscardAllRuns, DiscardPolicy::DiscardFailingRuns,
        DiscardPolicy::RelabelFailingRuns}) {
    AnalysisOptions Owned;
    Owned.Policy = Policy;
    AnalysisOptions Shared = Owned;
    Shared.SharedIndex = &Index;

    AnalysisResult A = CauseIsolator(World.Sites, Set, Owned).run();
    AnalysisResult B = CauseIsolator(World.Sites, Set, Shared).run();
    EXPECT_TRUE(bitIdentical(A, B)) << discardPolicyName(Policy);
    EXPECT_FALSE(B.Selected.empty()) << "trivial differential";
  }
}

TEST(EngineDifferentialTest, SharedIndexServesEveryPolicy) {
  // One index serves every policy in turn, as a caller sharing the build
  // across policies uses it: its initial counts seed each run()'s live
  // counts, which must never write back to them. Each result equals the
  // run that builds its own index and the rescan engine's, bit for bit,
  // and after two rounds the index still holds the full-scan counts.
  SyntheticWorld World(16);
  RunProfiles Runs = RunProfiles::fromReports(multiBugSet(World, 919));
  InvertedIndex Index = InvertedIndex::build(Runs);
  for (int Round = 0; Round < 2; ++Round)
    for (DiscardPolicy Policy :
         {DiscardPolicy::DiscardAllRuns, DiscardPolicy::DiscardFailingRuns,
          DiscardPolicy::RelabelFailingRuns}) {
      AnalysisOptions Owned;
      Owned.Policy = Policy;
      AnalysisOptions Shared = Owned;
      Shared.SharedIndex = &Index;
      AnalysisOptions Rescan = Owned;
      Rescan.Engine = AnalysisEngine::Rescan;

      AnalysisResult A = CauseIsolator(World.Sites, Runs, Shared).run();
      EXPECT_FALSE(A.Selected.empty()) << "trivial differential";
      EXPECT_TRUE(
          bitIdentical(A, CauseIsolator(World.Sites, Runs, Owned).run()))
          << "round " << Round << ", " << discardPolicyName(Policy);
      EXPECT_TRUE(
          bitIdentical(A, CauseIsolator(World.Sites, Runs, Rescan).run()))
          << "round " << Round << ", " << discardPolicyName(Policy);
    }
  const Aggregates Full = Aggregates::compute(Runs, RunView::allOf(Runs));
  const Aggregates &Kept = Index.initialAggregates();
  EXPECT_EQ(Kept.numFailing(), Full.numFailing());
  EXPECT_EQ(Kept.numSuccessful(), Full.numSuccessful());
  for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred) {
    PredicateCounts X = Kept.counts(Pred, World.Sites);
    PredicateCounts Y = Full.counts(Pred, World.Sites);
    ASSERT_TRUE(X.F == Y.F && X.S == Y.S && X.FObs == Y.FObs &&
                X.SObs == Y.SObs)
        << "pred " << Pred;
  }
}

TEST(CauseIsolatorDeathTest, SharedIndexOverOtherRunsAborts) {
  // An index over a larger population of the same dimensions would hand
  // the elimination loop run ids past the end of this one; run() refuses
  // it, as it refuses a shared bitset over other runs.
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 909);
  InvertedIndex Index = InvertedIndex::build(RunProfiles::fromReports(Set));
  ReportSet Half = World.emptySet();
  for (size_t Run = 0; Run < Set.size() / 2; ++Run)
    Half.add(Set[Run]);
  AnalysisOptions Shared;
  Shared.SharedIndex = &Index;
  EXPECT_DEATH(CauseIsolator(World.Sites, Half, Shared).run(),
               "shared index \\(500 runs.*was not built over this run "
               "population \\(250 runs");
}

TEST(EngineDifferentialTest, SharedBitsetMatchesOwnedBitset) {
  // The BitsetIndex analog of the shared-index contract: one prebuilt
  // bitset reused across all three policies matches per-run() builds.
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 909);
  RunProfiles Runs = RunProfiles::fromReports(Set);
  BitsetIndex Index = BitsetIndex::build(Runs, World.Sites);
  for (DiscardPolicy Policy :
       {DiscardPolicy::DiscardAllRuns, DiscardPolicy::DiscardFailingRuns,
        DiscardPolicy::RelabelFailingRuns}) {
    AnalysisOptions Owned;
    Owned.Policy = Policy;
    Owned.Engine = AnalysisEngine::Bitset;
    AnalysisOptions Shared = Owned;
    Shared.SharedBitset = &Index;

    AnalysisResult A = CauseIsolator(World.Sites, Set, Owned).run();
    AnalysisResult B = CauseIsolator(World.Sites, Set, Shared).run();
    EXPECT_TRUE(bitIdentical(A, B)) << discardPolicyName(Policy);
    EXPECT_FALSE(B.Selected.empty()) << "trivial differential";
  }
}

TEST(EngineDifferentialTest, BitsetDensityFallbackIsInvisible) {
  // A large, extremely sparse population (one site + one pred per run)
  // trips the density heuristic, so the bitset option silently takes the
  // incremental path — and must still produce identical results.
  SyntheticWorld World(200);
  const uint32_t NumSites = World.Sites.numSites();
  RunProfiles Sparse(NumSites, World.Sites.numPredicates());
  for (uint32_t Run = 0; Run < 16384; ++Run) {
    // Failing/successful pairs observing the same site, the predicate true
    // only in the failing half, so Increase(P) is solidly positive.
    const bool Failed = (Run & 1) != 0;
    Sparse.beginRun(Failed);
    uint32_t Site = (Run / 2) % NumSites;
    Sparse.addSite(Site);
    if (Failed)
      Sparse.addPred(World.Sites.site(Site).FirstPredicate);
  }
  ASSERT_TRUE(BitsetIndex::preferIncremental(Sparse, 1.0 / 256))
      << "fixture no longer trips the fallback";

  AnalysisOptions Bitset;
  Bitset.Engine = AnalysisEngine::Bitset;
  AnalysisOptions Rescan;
  Rescan.Engine = AnalysisEngine::Rescan;
  AnalysisResult A = CauseIsolator(World.Sites, Sparse, Rescan).run();
  AnalysisResult B = CauseIsolator(World.Sites, Sparse, Bitset).run();
  EXPECT_TRUE(bitIdentical(A, B));
  EXPECT_FALSE(B.Selected.empty()) << "trivial differential";
}

TEST(EngineDifferentialTest, AffinityDepthAndCapRespected) {
  // The affinity path is part of the differential contract; also check the
  // top-K cap holds under the incremental engine.
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 55);
  AnalysisOptions Options;
  Options.AffinityTopK = 3;
  AnalysisResult Result = CauseIsolator(World.Sites, Set, Options).run();
  ASSERT_FALSE(Result.Selected.empty());
  for (const SelectedPredicate &Entry : Result.Selected)
    EXPECT_LE(Entry.Affinity.size(), 3u);
}

// --- Candidate-table edge paths --------------------------------------------
//
// The live engines rescore only what a discard changed and bound the rest
// (core/Analysis.cpp, CandidateTable). Each population below steers the
// elimination loop down one edge of that design; every one must stay
// bit-identical to the rescan engine under all three policies.

namespace {

constexpr DiscardPolicy AllPolicies[] = {DiscardPolicy::DiscardAllRuns,
                                         DiscardPolicy::DiscardFailingRuns,
                                         DiscardPolicy::RelabelFailingRuns};

/// Appends \p Count runs labeled \p Failed that observe \p Observed and
/// have the first predicate of each site in \p TrueAt true. Unlike
/// SyntheticWorld::makeReport, a true predicate's site need not be among
/// the observed ones.
void addRuns(RunProfiles &Runs, const SyntheticWorld &World, int Count,
             bool Failed, std::vector<uint32_t> Observed,
             std::vector<uint32_t> TrueAt) {
  std::sort(Observed.begin(), Observed.end());
  std::vector<uint32_t> Preds;
  for (uint32_t Site : TrueAt)
    Preds.push_back(World.predOf(Site));
  std::sort(Preds.begin(), Preds.end());
  for (int I = 0; I < Count; ++I) {
    Runs.beginRun(Failed);
    for (uint32_t Site : Observed)
      Runs.addSite(Site);
    for (uint32_t Pred : Preds)
      Runs.addPred(Pred);
  }
}

/// Analyzes \p Runs with every engine under every policy (keeping the
/// affinity entries \p Options asks for) and expects both live engines
/// bit-identical to rescan. Returns the rescan results in AllPolicies
/// order.
std::vector<AnalysisResult> expectEnginesAgree(const SiteTable &Sites,
                                               const RunProfiles &Runs,
                                               AnalysisOptions Options = {}) {
  std::vector<AnalysisResult> Reference;
  for (DiscardPolicy Policy : AllPolicies) {
    Options.Policy = Policy;
    Options.Engine = AnalysisEngine::Rescan;
    AnalysisResult Rescan = CauseIsolator(Sites, Runs, Options).run();
    for (AnalysisEngine Engine :
         {AnalysisEngine::Incremental, AnalysisEngine::Bitset}) {
      Options.Engine = Engine;
      EXPECT_TRUE(bitIdentical(Rescan, CauseIsolator(Sites, Runs, Options).run()))
          << analysisEngineName(Engine) << ", " << discardPolicyName(Policy);
    }
    EXPECT_FALSE(Rescan.Selected.empty()) << discardPolicyName(Policy);
    Reference.push_back(std::move(Rescan));
  }
  return Reference;
}

/// Position of \p Pred in \p Result's selections, or -1.
int selectionIndex(const AnalysisResult &Result, uint32_t Pred) {
  for (size_t I = 0; I < Result.Selected.size(); ++I)
    if (Result.Selected[I].Pred == Pred)
      return static_cast<int>(I);
  return -1;
}

} // namespace

TEST(CandidateTableTest, NumFReachingOneEndsTheLoopWithEveryDrop) {
  // X covers all failing runs but one. Once X's runs go, NumF = 1, every
  // Importance is 0, and Z, which rode along in half of X's runs, has
  // dropped to 0 from a positive score.
  SyntheticWorld World(8);
  RunProfiles Runs(World.Sites.numSites(), World.Sites.numPredicates());
  addRuns(Runs, World, 10, true, {0, 1, 2}, {0, 1});
  addRuns(Runs, World, 10, true, {0, 1, 2}, {0});
  addRuns(Runs, World, 1, true, {0, 1, 2}, {2});
  addRuns(Runs, World, 2, false, {0, 1, 2}, {1});
  addRuns(Runs, World, 30, false, {0, 1, 2}, {});
  for (const AnalysisResult &Result :
       expectEnginesAgree(World.Sites, Runs)) {
    const char *Policy = discardPolicyName(Result.Policy);
    ASSERT_EQ(Result.Selected.size(), 1u) << Policy;
    EXPECT_EQ(Result.Selected[0].Pred, World.predOf(0)) << Policy;
    EXPECT_EQ(Result.Trail[0].FailingRuns - Result.Trail[0].RunsDiscarded,
              1u)
        << Policy;
    const auto &Affinity = Result.Selected[0].Affinity;
    ASSERT_FALSE(Affinity.empty()) << Policy;
    EXPECT_EQ(Affinity[0].first, World.predOf(1)) << Policy;
  }
}

TEST(CandidateTableTest, PredicateTrueWhereItsSiteIsUnlisted) {
  // Q (site 3) is true in half of X's failing runs without site 3 being
  // listed there, as a corpus may hold. Discarding X's runs changes Q's
  // own counts and none of its site's, so only Q's own change mark says
  // to rescore it; a stale score would rank Q above W.
  SyntheticWorld World(8);
  RunProfiles Runs(World.Sites.numSites(), World.Sites.numPredicates());
  addRuns(Runs, World, 20, true, {0, 4}, {0, 3});
  addRuns(Runs, World, 20, true, {0, 4}, {0});
  addRuns(Runs, World, 12, true, {0, 3, 4}, {3});
  addRuns(Runs, World, 25, true, {0, 3, 4}, {4});
  addRuns(Runs, World, 100, false, {0, 3, 4}, {});
  addRuns(Runs, World, 8, false, {0, 3, 4}, {3, 4});
  const uint32_t Q = World.predOf(3);
  size_t OffSite = 0;
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    IdSpan Sites = Runs.sites(Run);
    OffSite += Runs.observedTrue(Run, Q) &&
               !std::binary_search(Sites.begin(), Sites.end(), 3u);
  }
  ASSERT_EQ(OffSite, 20u) << "Q must be true off its site";
  for (const AnalysisResult &Result :
       expectEnginesAgree(World.Sites, Runs)) {
    const char *Policy = discardPolicyName(Result.Policy);
    ASSERT_GE(Result.Selected.size(), 2u) << Policy;
    EXPECT_EQ(Result.Selected[0].Pred, World.predOf(0)) << Policy;
    EXPECT_EQ(Result.Selected[1].Pred, World.predOf(4)) << Policy;
  }
}

TEST(CandidateTableTest, UntouchedCandidateOvertakesAsLogNumFFalls) {
  // Five disjoint bugs B1..B5 (sites 0-4) outrank U (site 5): U has the
  // better Increase but only F(U) = 4. M (site 7) rides along in half of
  // every bug's failing runs, so each discard rescores it. No discard
  // touches U's runs or its site, yet as NumF falls U's Importance rises
  // past M's, and U is selected with the counts it started with.
  SyntheticWorld World(8);
  RunProfiles Runs(World.Sites.numSites(), World.Sites.numPredicates());
  const std::vector<uint32_t> All = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<uint32_t> NotU = {0, 1, 2, 3, 4, 6, 7};
  for (uint32_t Bug = 0; Bug < 5; ++Bug) {
    addRuns(Runs, World, 18, true, NotU, {Bug, 7});
    addRuns(Runs, World, 18, true, NotU, {Bug});
  }
  addRuns(Runs, World, 4, true, All, {5});
  addRuns(Runs, World, 16, true, NotU, {6});
  addRuns(Runs, World, 36, false, All, {});
  addRuns(Runs, World, 30, false, NotU, {7});
  addRuns(Runs, World, 234, false, NotU, {6});

  const uint32_t U = World.predOf(5), M = World.predOf(7);
  std::vector<RankedPredicate> Ranked =
      CauseIsolator(World.Sites, Runs).rank({U, M}, RunView::allOf(Runs));
  ASSERT_EQ(Ranked[0].Pred, M) << "U must start below M";

  auto boundSkipped = [] {
    const Counter *C = Telemetry::metrics().findCounter(
        "analysis.candidates_bound_skipped_total");
    return C ? C->value() : 0;
  };
  const uint64_t SkippedBefore = boundSkipped();
  Telemetry::setEnabled(true);
  std::vector<AnalysisResult> Results =
      expectEnginesAgree(World.Sites, Runs);
  Telemetry::setEnabled(false);
  EXPECT_GT(boundSkipped(), SkippedBefore) << "the bound never skipped";

  for (const AnalysisResult &Result : Results) {
    const char *Policy = discardPolicyName(Result.Policy);
    int At = selectionIndex(Result, U);
    ASSERT_EQ(At, 5) << Policy;
    const SelectedPredicate &Entry = Result.Selected[At];
    const PredicateCounts &Now = Entry.EffectiveScores.counts(),
                          &Then = Entry.InitialScores.counts();
    EXPECT_EQ(Now.F, Then.F) << Policy;
    EXPECT_EQ(Now.S, Then.S) << Policy;
    EXPECT_EQ(Now.FObs, Then.FObs) << Policy;
    EXPECT_EQ(Now.SObs, Then.SObs) << Policy;
    EXPECT_GT(Entry.EffectiveImportance, Entry.InitialImportance) << Policy;
  }
}

TEST(CandidateTableTest, BoundIsTakenAtTheCurrentLogNumF) {
  // B's discard takes NumF from 200 to 20 and touches neither V (site 1)
  // nor U (site 2). V outranks U before it and U outranks V after: U's
  // low F gains more from the smaller log NumF. In the pass after the
  // discard V is scored first and sets the bar; U's cached bound clears
  // it only when both are taken at the current log NumF.
  SyntheticWorld World(8);
  RunProfiles Runs(World.Sites.numSites(), World.Sites.numPredicates());
  addRuns(Runs, World, 180, true, {0}, {0});
  addRuns(Runs, World, 10, true, {0, 1}, {1});
  addRuns(Runs, World, 6, true, {0, 1}, {});
  addRuns(Runs, World, 4, true, {0, 2}, {2});
  addRuns(Runs, World, 2, false, {0, 1}, {1});
  addRuns(Runs, World, 24, false, {0, 1}, {});
  addRuns(Runs, World, 36, false, {0, 2}, {});
  addRuns(Runs, World, 100, false, {0}, {});
  const uint32_t V = World.predOf(1), U = World.predOf(2);
  CauseIsolator Isolator(World.Sites, Runs);
  ASSERT_EQ(Isolator.rank({U, V}, RunView::allOf(Runs))[0].Pred, V)
      << "V must start above U";
  for (const AnalysisResult &Result :
       expectEnginesAgree(World.Sites, Runs)) {
    const char *Policy = discardPolicyName(Result.Policy);
    ASSERT_GE(Result.Selected.size(), 3u) << Policy;
    EXPECT_EQ(Result.Selected[0].Pred, World.predOf(0)) << Policy;
    EXPECT_EQ(Result.Selected[1].Pred, U) << Policy;
    EXPECT_EQ(Result.Selected[2].Pred, V) << Policy;
  }
}

TEST(CandidateTableTest, EqualImportanceAndEqualFBreakTowardTheSmallerId) {
  // T1 (site 2) and T2 (site 3) have identical profiles, so identical
  // counts: the same Importance and the same F. T1 wins on id, and T2,
  // whose failing runs the discard takes, tops T1's affinity list.
  SyntheticWorld World(8);
  RunProfiles Runs(World.Sites.numSites(), World.Sites.numPredicates());
  const std::vector<uint32_t> All = {0, 1, 2, 3};
  addRuns(Runs, World, 30, true, All, {0});
  addRuns(Runs, World, 12, true, All, {2, 3});
  addRuns(Runs, World, 9, true, All, {1});
  addRuns(Runs, World, 80, false, All, {});
  addRuns(Runs, World, 5, false, All, {1, 2, 3});
  const uint32_t T1 = World.predOf(2), T2 = World.predOf(3);
  for (const AnalysisResult &Result :
       expectEnginesAgree(World.Sites, Runs)) {
    const char *Policy = discardPolicyName(Result.Policy);
    ASSERT_GE(Result.Selected.size(), 2u) << Policy;
    EXPECT_EQ(Result.Selected[1].Pred, T1) << Policy;
    EXPECT_EQ(selectionIndex(Result, T2), -1) << Policy;
    const auto &Affinity = Result.Selected[1].Affinity;
    ASSERT_FALSE(Affinity.empty()) << Policy;
    EXPECT_EQ(Affinity[0].first, T2) << Policy;
  }
}

TEST(CandidateTableTest, TopKBelowTiedDropsKeepsTheSmallestIds) {
  // Five identical riders (sites 2-6) share X's failing runs, so X's
  // discard drops all five by the same amount; a cap of 3 keeps the three
  // smallest ids.
  SyntheticWorld World(8);
  RunProfiles Runs(World.Sites.numSites(), World.Sites.numPredicates());
  const std::vector<uint32_t> All = {0, 1, 2, 3, 4, 5, 6};
  addRuns(Runs, World, 30, true, All, {0, 2, 3, 4, 5, 6});
  addRuns(Runs, World, 20, true, All, {1});
  addRuns(Runs, World, 40, false, All, {});
  addRuns(Runs, World, 10, false, All, {2, 3, 4, 5, 6});
  AnalysisOptions Options;
  Options.AffinityTopK = 3;
  for (const AnalysisResult &Result :
       expectEnginesAgree(World.Sites, Runs, Options)) {
    const char *Policy = discardPolicyName(Result.Policy);
    ASSERT_FALSE(Result.Selected.empty()) << Policy;
    ASSERT_EQ(Result.Selected[0].Pred, World.predOf(0)) << Policy;
    const auto &Affinity = Result.Selected[0].Affinity;
    ASSERT_EQ(Affinity.size(), 3u) << Policy;
    for (uint32_t I = 0; I < 3; ++I) {
      EXPECT_EQ(Affinity[I].first, World.predOf(2 + I)) << Policy;
      EXPECT_EQ(Affinity[I].second, Affinity[0].second) << Policy;
    }
  }
}

TEST(CandidateTableTest, NonPositiveTopKKeepsNoAffinity) {
  // A cap of zero or less keeps no entries (no partial sort past the end
  // of the list); everything else is what an uncapped run finds.
  SyntheticWorld World(16);
  RunProfiles Runs = RunProfiles::fromReports(multiBugSet(World, 404));
  std::vector<AnalysisResult> Full = expectEnginesAgree(World.Sites, Runs);
  for (AnalysisResult &Result : Full)
    for (SelectedPredicate &Entry : Result.Selected)
      Entry.Affinity.clear();
  for (int TopK : {0, -1}) {
    AnalysisOptions Options;
    Options.AffinityTopK = TopK;
    std::vector<AnalysisResult> Capped =
        expectEnginesAgree(World.Sites, Runs, Options);
    for (size_t P = 0; P < Capped.size(); ++P)
      EXPECT_TRUE(bitIdentical(Capped[P], Full[P])) << "top-K " << TopK;
  }
}

TEST(CandidateTableTest, AffinityHoldsOnlyWhatItKeeps) {
  // Every engine keeps an affinity list in storage no larger than its cap,
  // however many predicates dropped, and keeps the first K of the drops an
  // uncapped run lists, in the same order.
  SyntheticWorld World(16);
  RunProfiles Runs = RunProfiles::fromReports(multiBugSet(World, 303));
  AnalysisOptions Uncapped;
  Uncapped.AffinityTopK = static_cast<int>(World.Sites.numPredicates());
  const std::vector<AnalysisResult> Full =
      expectEnginesAgree(World.Sites, Runs, Uncapped);
  constexpr size_t K = 2;
  size_t Overflowing = 0;
  for (const AnalysisResult &Result : Full)
    for (const SelectedPredicate &Entry : Result.Selected)
      Overflowing += Entry.Affinity.size() > K;
  ASSERT_GT(Overflowing, 0u) << "no selection has more than K drops";
  for (size_t P = 0; P < Full.size(); ++P)
    for (AnalysisEngine Engine :
         {AnalysisEngine::Rescan, AnalysisEngine::Incremental,
          AnalysisEngine::Bitset}) {
      AnalysisOptions Options;
      Options.Policy = AllPolicies[P];
      Options.Engine = Engine;
      Options.AffinityTopK = static_cast<int>(K);
      const AnalysisResult Capped =
          CauseIsolator(World.Sites, Runs, Options).run();
      const std::string What = std::string(analysisEngineName(Engine)) +
                               ", " + discardPolicyName(AllPolicies[P]);
      ASSERT_EQ(Capped.Selected.size(), Full[P].Selected.size()) << What;
      for (size_t I = 0; I < Capped.Selected.size(); ++I) {
        const auto &Kept = Capped.Selected[I].Affinity;
        const auto &All = Full[P].Selected[I].Affinity;
        const std::vector<std::pair<uint32_t, double>> FirstK(
            All.begin(), All.begin() + std::min(K, All.size()));
        EXPECT_LE(Kept.capacity(), K) << What << ", selection " << I;
        EXPECT_EQ(Kept, FirstK) << What << ", selection " << I;
      }
    }
}

// --- Elimination work counters ---------------------------------------------

namespace {

/// Elimination work, by the names the counters and span args share.
struct ElimWork {
  uint64_t Rescored = 0, BoundSkipped = 0, AffinityDrops = 0;
  bool operator==(const ElimWork &) const = default;
  ElimWork operator-(const ElimWork &Before) const {
    return {Rescored - Before.Rescored, BoundSkipped - Before.BoundSkipped,
            AffinityDrops - Before.AffinityDrops};
  }
};

/// The work the recorded elimination spans carry as args: the initial
/// pass on "elimination", each later pass on its "elimination_iter".
ElimWork spanWork() {
  ElimWork Work;
  for (const TraceBuffer *Buffer : Tracer::instance().buffers())
    for (size_t I = 0; I < Buffer->size(); ++I) {
      const TraceEvent &Ev = Buffer->event(I);
      for (uint8_t A = 0; A < Ev.NumArgs; ++A) {
        const std::string Name = Ev.ArgName[A];
        if (Name == "rescored")
          Work.Rescored += Ev.ArgVal[A];
        else if (Name == "bound_skipped")
          Work.BoundSkipped += Ev.ArgVal[A];
        else if (Name == "affinity_drops")
          Work.AffinityDrops += Ev.ArgVal[A];
      }
    }
  return Work;
}

ElimWork counterWork() {
  auto value = [](const char *Name) -> uint64_t {
    const Counter *C = Telemetry::metrics().findCounter(Name);
    return C ? C->value() : 0;
  };
  return {value("analysis.candidates_rescored_total"),
          value("analysis.candidates_bound_skipped_total"),
          value("analysis.affinity_drops_total")};
}

} // namespace

TEST(EliminationCountersTest, TelemetryChangesNoCountAndNoResult) {
  // The counts are kept on every run: tracing shows them per pass, and
  // telemetry's once-per-run flush adds up to the same totals without
  // changing a count or a result bit.
  SyntheticWorld World(16);
  ReportSet Set = multiBugSet(World, 202);
  for (DiscardPolicy Policy : AllPolicies)
    for (AnalysisEngine Engine :
         {AnalysisEngine::Rescan, AnalysisEngine::Incremental,
          AnalysisEngine::Bitset}) {
      AnalysisOptions Options;
      Options.Policy = Policy;
      Options.Engine = Engine;
      const std::string What = std::string(analysisEngineName(Engine)) +
                               ", " + discardPolicyName(Policy);
      AnalysisResult Off = CauseIsolator(World.Sites, Set, Options).run();

      Tracer::instance().reset();
      Tracer::setEnabled(true);
      AnalysisResult Traced = CauseIsolator(World.Sites, Set, Options).run();
      Tracer::setEnabled(false);
      const ElimWork FromSpans = spanWork();

      Tracer::instance().reset();
      const ElimWork Before = counterWork();
      Telemetry::setEnabled(true);
      Tracer::setEnabled(true);
      AnalysisResult Counted = CauseIsolator(World.Sites, Set, Options).run();
      Tracer::setEnabled(false);
      Telemetry::setEnabled(false);
      const ElimWork FromCounters = counterWork() - Before;
      EXPECT_EQ(spanWork(), FromSpans) << What;
      Tracer::instance().reset();

      EXPECT_TRUE(bitIdentical(Off, Traced)) << What;
      EXPECT_TRUE(bitIdentical(Off, Counted)) << What;
      EXPECT_EQ(FromCounters, FromSpans) << What;
      EXPECT_GT(FromSpans.Rescored, 0u) << What;
      EXPECT_GT(FromSpans.AffinityDrops, 0u) << What;
      if (Engine == AnalysisEngine::Rescan) {
        EXPECT_EQ(FromSpans.BoundSkipped, 0u) << What;
      }
    }
}

// --- Sliced elimination --------------------------------------------------
//
// The live engines cut the predicate id space into site-aligned slices of
// CauseIsolator::SlicePreds predicates and apply each discard and score
// each pass slice by slice, on as many workers as IndexThreads allows.
// These populations span two and three slices; every result must be
// bit-identical to the rescan engine's at every thread count, and the
// elimination's work counts must not depend on the thread count.

namespace {

constexpr size_t ThreadCounts[] = {0, 1, 2, 3, 8};

/// A world whose predicates the elimination cuts into two slices (5,000
/// sites) or three (8,500), and its cut.
struct SlicedWorld {
  SyntheticWorld World;
  std::vector<IdRange> Slices;

  explicit SlicedWorld(size_t MinSites)
      : World(MinSites),
        Slices(siteAlignedSlices(World.Sites, CauseIsolator::SlicePreds)) {
    EXPECT_EQ(Slices.size(), MinSites < 8000 ? 2u : 3u) << MinSites;
  }

  /// Site \p K of slice \p S.
  uint32_t site(size_t S, uint32_t K) const {
    return Slices[S].SiteBegin + K;
  }
  /// Predicate \p Offset of site \p K of slice \p S.
  uint32_t pred(size_t S, uint32_t K, uint32_t Offset = 0) const {
    return World.Sites.site(site(S, K)).FirstPredicate + Offset;
  }
  uint32_t siteOf(uint32_t Pred) const {
    return World.Sites.predicate(Pred).Site;
  }
  RunProfiles emptyRuns() const {
    return RunProfiles(World.Sites.numSites(), World.Sites.numPredicates());
  }
};

/// Appends \p Count runs labeled \p Failed that observe \p Observed and
/// have the predicates \p True true.
void addPredRuns(RunProfiles &Runs, int Count, bool Failed,
                 std::vector<uint32_t> Observed, std::vector<uint32_t> True) {
  for (std::vector<uint32_t> *Ids : {&Observed, &True}) {
    std::sort(Ids->begin(), Ids->end());
    Ids->erase(std::unique(Ids->begin(), Ids->end()), Ids->end());
  }
  for (int I = 0; I < Count; ++I) {
    Runs.beginRun(Failed);
    for (uint32_t Site : Observed)
      Runs.addSite(Site);
    for (uint32_t Pred : True)
      Runs.addPred(Pred);
  }
}

/// A planted-bug population over \p W. Bug I gets 40 - 6 I failing runs
/// with \p Bugs[I] true, \p Riders[I] true in every other one, and three
/// successes with it true. 150 more successes have each rider true one
/// time in thirty, so riders pass the Increase test too. Every run
/// observes the sites of every bug and rider, the sites \p Watched, and
/// four sites drawn from \p NoiseSites, each with its first predicate
/// true at even odds.
RunProfiles plantedRuns(const SlicedWorld &W,
                        const std::vector<uint32_t> &Bugs,
                        const std::vector<uint32_t> &Riders,
                        const std::vector<uint32_t> &NoiseSites,
                        uint64_t Seed,
                        const std::vector<uint32_t> &Watched = {}) {
  RunProfiles Runs = W.emptyRuns();
  std::vector<uint32_t> Shared = Watched;
  for (uint32_t Pred : Bugs)
    Shared.push_back(W.siteOf(Pred));
  for (uint32_t Pred : Riders)
    Shared.push_back(W.siteOf(Pred));
  Rng R(Seed);
  auto addRun = [&](bool Failed, std::vector<uint32_t> True) {
    std::vector<uint32_t> Observed = Shared;
    for (int I = 0; I < 4; ++I) {
      const uint32_t Site = NoiseSites[R.nextBelow(NoiseSites.size())];
      Observed.push_back(Site);
      if (R.nextBernoulli(0.5))
        True.push_back(W.World.Sites.site(Site).FirstPredicate);
    }
    addPredRuns(Runs, 1, Failed, std::move(Observed), std::move(True));
  };
  for (size_t Bug = 0; Bug < Bugs.size(); ++Bug) {
    for (int I = 0; I < 40 - 6 * static_cast<int>(Bug); ++I)
      addRun(true, I % 2 ? std::vector<uint32_t>{Bugs[Bug], Riders[Bug]}
                         : std::vector<uint32_t>{Bugs[Bug]});
    for (int I = 0; I < 3; ++I)
      addRun(false, {Bugs[Bug]});
  }
  for (int I = 0; I < 150; ++I) {
    std::vector<uint32_t> True;
    for (uint32_t Pred : Riders)
      if (R.nextBernoulli(1.0 / 30))
        True.push_back(Pred);
    addRun(false, std::move(True));
  }
  return Runs;
}

/// Every site of slices [\p First, \p Last].
std::vector<uint32_t> sitesOf(const SlicedWorld &W, size_t First,
                              size_t Last) {
  std::vector<uint32_t> Sites;
  for (uint32_t Site = W.Slices[First].SiteBegin;
       Site < W.Slices[Last].SiteEnd; ++Site)
    Sites.push_back(Site);
  return Sites;
}

/// Analyzes \p Runs with the rescan engine, then with both live engines at
/// every ThreadCounts value, under every policy, with \p Options' affinity
/// cap. Expects every live result bit-identical to rescan's, and each live
/// engine's three work counts the same at every thread count. Returns the
/// rescan results in AllPolicies order.
std::vector<AnalysisResult> expectSlicedAgree(const SiteTable &Sites,
                                              const RunProfiles &Runs,
                                              AnalysisOptions Options = {}) {
  // The bitset engine, however sparse the population.
  Options.BitsetMinDensity = 0.0;
  std::vector<AnalysisResult> Reference;
  for (DiscardPolicy Policy : AllPolicies) {
    Options.Policy = Policy;
    Options.Engine = AnalysisEngine::Rescan;
    AnalysisResult Rescan = CauseIsolator(Sites, Runs, Options).run();
    EXPECT_FALSE(Rescan.Selected.empty()) << discardPolicyName(Policy);
    for (AnalysisEngine Engine :
         {AnalysisEngine::Incremental, AnalysisEngine::Bitset}) {
      Options.Engine = Engine;
      std::optional<ElimWork> AtFirst;
      for (size_t Threads : ThreadCounts) {
        Options.IndexThreads = Threads;
        const std::string What = std::string(analysisEngineName(Engine)) +
                                 ", " + discardPolicyName(Policy) + ", " +
                                 std::to_string(Threads) + " threads";
        const ElimWork Before = counterWork();
        Telemetry::setEnabled(true);
        const AnalysisResult Live = CauseIsolator(Sites, Runs, Options).run();
        Telemetry::setEnabled(false);
        const ElimWork Work = counterWork() - Before;
        EXPECT_TRUE(bitIdentical(Rescan, Live)) << What;
        if (!AtFirst)
          AtFirst = Work;
        EXPECT_EQ(Work, *AtFirst) << What;
      }
    }
    Reference.push_back(std::move(Rescan));
  }
  return Reference;
}

} // namespace

TEST(SlicedEliminationTest, SiteStraddlingTheNominalCut) {
  // The site holding predicate SlicePreds starts below it, so the cut
  // moves past the site and both of these predicates land in slice 0:
  // High, at the nominal cut, is a bug, and Low, below it, rides along.
  // The other bugs and riders sit in the first and last slices, and the
  // noise spans every slice, so each discard changes counts in all of
  // them and the affinity lists merge drops across slices.
  for (size_t MinSites : {5000u, 8500u}) {
    SlicedWorld W(MinSites);
    const SiteTable &Sites = W.World.Sites;
    const size_t Last = W.Slices.size() - 1;
    const uint32_t High = CauseIsolator::SlicePreds;
    const uint32_t Low = Sites.site(W.siteOf(High)).FirstPredicate;
    ASSERT_LT(Low, High);
    ASSERT_LT(High, W.Slices[0].PredEnd);
    const std::vector<uint32_t> Bugs = {High, W.pred(Last, 7, 1),
                                        W.pred(0, 3, 2)};
    const std::vector<uint32_t> Riders = {Low, W.pred(Last, 9, 4),
                                          W.pred(Last / 2, 11, 3)};
    const RunProfiles Runs =
        plantedRuns(W, Bugs, Riders, sitesOf(W, 0, Last), MinSites);
    for (const AnalysisResult &Result : expectSlicedAgree(Sites, Runs)) {
      const char *Policy = discardPolicyName(Result.Policy);
      ASSERT_GE(Result.Selected.size(), 3u) << Policy;
      EXPECT_EQ(Result.Selected[0].Pred, High) << Policy;
      EXPECT_NE(selectionIndex(Result, Bugs[1]), -1) << Policy;
      EXPECT_NE(selectionIndex(Result, Bugs[2]), -1) << Policy;
      const auto &Affinity = Result.Selected[0].Affinity;
      ASSERT_FALSE(Affinity.empty()) << Policy;
      EXPECT_EQ(Affinity[0].first, Low) << Policy;
    }
  }
}

TEST(SlicedEliminationTest, SliceWithNoCandidates) {
  // Three slices, and nothing is ever true in the middle one, so it has
  // no candidates under any policy; its sites are still observed, so the
  // discards change its site counts.
  SlicedWorld W(8500);
  const std::vector<uint32_t> Bugs = {W.pred(2, 5), W.pred(0, 8, 3)};
  const std::vector<uint32_t> Riders = {W.pred(0, 12, 1), W.pred(2, 14, 5)};
  const RunProfiles Runs = plantedRuns(W, Bugs, Riders, sitesOf(W, 0, 0), 77,
                                       {W.site(1, 1), W.site(1, 2)});
  for (const AnalysisResult &Result : expectSlicedAgree(W.World.Sites, Runs)) {
    const char *Policy = discardPolicyName(Result.Policy);
    ASSERT_GE(Result.Selected.size(), 2u) << Policy;
    for (const SelectedPredicate &Entry : Result.Selected) {
      EXPECT_FALSE(Entry.Pred >= W.Slices[1].PredBegin &&
                   Entry.Pred < W.Slices[1].PredEnd)
          << Policy;
      for (const auto &[Pred, Drop] : Entry.Affinity)
        EXPECT_FALSE(Pred >= W.Slices[1].PredBegin &&
                     Pred < W.Slices[1].PredEnd)
            << Policy;
    }
  }
}

TEST(SlicedEliminationTest, CandidatesOnlyInTheLastSlice) {
  // Every true predicate and every observed site lies in the last slice,
  // so every earlier slice passes with no rows, and every best and every
  // affinity drop comes from the last.
  for (size_t MinSites : {5000u, 8500u}) {
    SlicedWorld W(MinSites);
    const size_t Last = W.Slices.size() - 1;
    const std::vector<uint32_t> Bugs = {W.pred(Last, 4), W.pred(Last, 30, 2),
                                        W.pred(Last, 60, 5)};
    const std::vector<uint32_t> Riders = {W.pred(Last, 5, 1),
                                          W.pred(Last, 31, 3),
                                          W.pred(Last, 61)};
    const RunProfiles Runs =
        plantedRuns(W, Bugs, Riders, sitesOf(W, Last, Last), MinSites + 1);
    for (const AnalysisResult &Result :
         expectSlicedAgree(W.World.Sites, Runs)) {
      const char *Policy = discardPolicyName(Result.Policy);
      ASSERT_GE(Result.Selected.size(), 3u) << Policy;
      EXPECT_EQ(Result.Selected[0].Pred, Bugs[0]) << Policy;
      ASSERT_FALSE(Result.Selected[0].Affinity.empty()) << Policy;
      EXPECT_EQ(Result.Selected[0].Affinity[0].first, Riders[0]) << Policy;
    }
  }
}

TEST(SlicedEliminationTest, PassAfterNumFReachesOne) {
  // X (slice 0) covers every failing run but one. Once X's runs go, NumF
  // is 1 and every Importance 0: the last pass re-derives every row of
  // every slice, and the riders in every slice, true in half of X's runs,
  // top X's affinity list.
  for (size_t MinSites : {5000u, 8500u}) {
    SlicedWorld W(MinSites);
    const size_t Last = W.Slices.size() - 1;
    const uint32_t X = W.pred(0, 2);
    std::vector<uint32_t> Riders;
    for (size_t S = 0; S <= Last; ++S)
      Riders.push_back(W.pred(S, 40, 1));
    std::vector<uint32_t> Observed = {W.siteOf(X), W.site(Last, 50)};
    for (uint32_t Pred : Riders)
      Observed.push_back(W.siteOf(Pred));
    RunProfiles Runs = W.emptyRuns();
    std::vector<uint32_t> WithRiders = Riders;
    WithRiders.push_back(X);
    addPredRuns(Runs, 12, true, Observed, WithRiders);
    addPredRuns(Runs, 12, true, Observed, {X});
    addPredRuns(Runs, 1, true, Observed, {W.pred(Last, 50)});
    addPredRuns(Runs, 3, false, Observed, Riders);
    addPredRuns(Runs, 40, false, Observed, {});
    for (const AnalysisResult &Result :
         expectSlicedAgree(W.World.Sites, Runs)) {
      const char *Policy = discardPolicyName(Result.Policy);
      ASSERT_EQ(Result.Selected.size(), 1u) << Policy;
      EXPECT_EQ(Result.Selected[0].Pred, X) << Policy;
      EXPECT_EQ(Result.Trail[0].FailingRuns - Result.Trail[0].RunsDiscarded,
                1u)
          << Policy;
      const auto &Affinity = Result.Selected[0].Affinity;
      ASSERT_EQ(Affinity.size(), Riders.size()) << Policy;
      for (size_t I = 0; I < Riders.size(); ++I)
        EXPECT_EQ(Affinity[I].first, Riders[I]) << Policy;
    }
  }
}

TEST(SlicedEliminationTest, TiedDropsAcrossSlicesKeepTheSmallestIds) {
  // Five identical riders, two in slice 0, one in each later slice and
  // one more in the last, share X's failing runs, so X's discard drops
  // all five by the same amount. A cap of three keeps the three smallest
  // ids, whichever slices found them.
  SlicedWorld W(8500);
  const uint32_t X = W.pred(0, 1);
  const std::vector<uint32_t> Riders = {W.pred(0, 20), W.pred(0, 21),
                                        W.pred(1, 20), W.pred(2, 20),
                                        W.pred(2, 21)};
  std::vector<uint32_t> Observed = {W.siteOf(X), W.site(2, 30)};
  for (uint32_t Pred : Riders)
    Observed.push_back(W.siteOf(Pred));
  RunProfiles Runs = W.emptyRuns();
  std::vector<uint32_t> WithRiders = Riders;
  WithRiders.push_back(X);
  addPredRuns(Runs, 30, true, Observed, WithRiders);
  addPredRuns(Runs, 20, true, Observed, {W.pred(2, 30)});
  addPredRuns(Runs, 40, false, Observed, {});
  addPredRuns(Runs, 10, false, Observed, Riders);
  AnalysisOptions Options;
  Options.AffinityTopK = 3;
  for (const AnalysisResult &Result :
       expectSlicedAgree(W.World.Sites, Runs, Options)) {
    const char *Policy = discardPolicyName(Result.Policy);
    ASSERT_FALSE(Result.Selected.empty()) << Policy;
    ASSERT_EQ(Result.Selected[0].Pred, X) << Policy;
    const auto &Affinity = Result.Selected[0].Affinity;
    ASSERT_EQ(Affinity.size(), 3u) << Policy;
    for (uint32_t I = 0; I < 3; ++I) {
      EXPECT_EQ(Affinity[I].first, Riders[I]) << Policy;
      EXPECT_EQ(Affinity[I].second, Affinity[0].second) << Policy;
    }
  }
}

// --- Ranking ---------------------------------------------------------------

TEST(RankTest, OrdersByImportanceThenF) {
  SyntheticWorld World(12);
  ReportSet Set = World.emptySet();
  for (int I = 0; I < 40; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {0}, {1, 2}));
  for (int I = 0; I < 10; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, true, {1}, {0, 2}));
  for (int I = 0; I < 100; ++I)
    Set.add(SyntheticWorld::makeReport(World.Sites, false, {2}, {0, 1}));

  RunProfiles Runs = RunProfiles::fromReports(Set);
  CauseIsolator Isolator(World.Sites, Runs);
  RunView View = RunView::allOf(Runs);
  std::vector<uint32_t> Candidates = {World.predOf(0), World.predOf(1),
                                      World.predOf(2)};
  auto Ranked = Isolator.rank(Candidates, View);
  ASSERT_EQ(Ranked.size(), 3u);
  EXPECT_EQ(Ranked[0].Pred, World.predOf(0));
  EXPECT_EQ(Ranked[1].Pred, World.predOf(1));
  EXPECT_EQ(Ranked[2].Pred, World.predOf(2)); // Zero importance last.
  EXPECT_GE(Ranked[0].Importance, Ranked[1].Importance);
  EXPECT_DOUBLE_EQ(Ranked[2].Importance, 0.0);
}
