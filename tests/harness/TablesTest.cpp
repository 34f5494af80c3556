//===- tests/harness/TablesTest.cpp - Table helpers and derived studies ---===//

#include "harness/Tables.h"

#include "core/SyntheticWorld.h"

#include <gtest/gtest.h>

using namespace sbi;

namespace {

CampaignResult smallCampaign(const Subject &Subj, size_t Runs = 200) {
  CampaignOptions Options;
  Options.NumRuns = Runs;
  Options.TrainingRuns = 40;
  Options.Seed = 4242;
  return runCampaign(Subj, Options);
}

} // namespace

TEST(TablesTest, GridShape) {
  auto Grid = defaultMinRunsGrid(25000);
  ASSERT_FALSE(Grid.empty());
  EXPECT_EQ(Grid.front(), 100u);
  EXPECT_EQ(Grid.back(), 25000u);
  for (size_t I = 1; I < Grid.size(); ++I)
    EXPECT_LT(Grid[I - 1], Grid[I]);
}

TEST(TablesTest, GridClipsToSetSize) {
  auto Grid = defaultMinRunsGrid(450);
  EXPECT_EQ(Grid.back(), 450u);
  for (size_t N : Grid)
    EXPECT_LE(N, 450u);
}

TEST(TablesTest, PredicateLabelContainsTextAndLocation) {
  CampaignResult Result = smallCampaign(ccryptSubject(), 60);
  std::string Label = predicateLabel(Result.Sites, 0);
  EXPECT_NE(Label.find('@'), std::string::npos);
  EXPECT_NE(Label.find(Result.Sites.predicate(0).Text),
            std::string::npos);
}

TEST(TablesTest, FailingRunsWithPredAndBugCountsIntersection) {
  CampaignResult Result = smallCampaign(ccryptSubject());
  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();
  ASSERT_FALSE(Analysis.Selected.empty());
  uint32_t Pred = Analysis.Selected[0].Pred;
  size_t WithBug = failingRunsWithPredAndBug(Runs, Pred, 1);
  size_t Failing = Runs.numFailing();
  EXPECT_GT(WithBug, 0u);
  EXPECT_LE(WithBug, Failing);
  // Bug 20 never exists.
  EXPECT_EQ(failingRunsWithPredAndBug(Runs, Pred, 20), 0u);
}

TEST(TablesTest, ChoosePredictorPerBugPicksCoveringPredicate) {
  CampaignResult Result = smallCampaign(exifSubject(), 600);
  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();
  auto Predictors = choosePredictorPerBug(Runs, Analysis.Selected, {1, 2, 3});
  for (const auto &[Bug, Pred] : Predictors)
    EXPECT_GT(failingRunsWithPredAndBug(Runs, Pred, Bug), 0u);
}

TEST(TablesTest, MinimumRunsMonotoneInThreshold) {
  CampaignResult Result = smallCampaign(ccryptSubject(), 500);
  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();
  auto Predictors = choosePredictorPerBug(Runs, Analysis.Selected, {1});
  ASSERT_FALSE(Predictors.empty());
  auto Grid = defaultMinRunsGrid(Runs.size());
  auto Strict = computeMinimumRuns(Result.Sites, Runs, Predictors, Grid,
                                   /*Threshold=*/0.05);
  auto Loose = computeMinimumRuns(Result.Sites, Runs, Predictors, Grid,
                                  /*Threshold=*/0.5);
  ASSERT_EQ(Strict.size(), 1u);
  ASSERT_EQ(Loose.size(), 1u);
  if (Strict[0].MinRuns != 0 && Loose[0].MinRuns != 0)
    EXPECT_LE(Loose[0].MinRuns, Strict[0].MinRuns);
}

TEST(TablesTest, MinimumRunsFAtNIsBoundedByN) {
  CampaignResult Result = smallCampaign(ccryptSubject(), 500);
  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();
  auto Predictors = choosePredictorPerBug(Runs, Analysis.Selected, {1});
  auto Grid = defaultMinRunsGrid(Runs.size());
  auto Rows = computeMinimumRuns(Result.Sites, Runs, Predictors, Grid);
  for (const MinRunsRow &Row : Rows)
    if (Row.MinRuns > 0)
      EXPECT_LE(Row.FAtMinRuns, Row.MinRuns);
}

TEST(TablesTest, MinimumRunsAndPredictorsOnAHandBuiltPopulation) {
  // Four identical blocks of ten runs, five of them failing. Predicate A
  // (site 0) predicts bug 1 and B (site 1) bug 2. Several runs observe a
  // site while its predicate is false, which counts toward FObs/SObs but
  // not F/S, and two entries carry a zero count, which counts as not
  // observed: site 1 in each block's first run, A in its sixth.
  SyntheticWorld World(8);
  const uint32_t A = World.predOf(0), B = World.predOf(1);
  const uint64_t Bug1 = FeedbackReport::bugBit(1);
  const uint64_t Bug2 = FeedbackReport::bugBit(2);
  using Entries = std::vector<std::pair<uint32_t, uint32_t>>;
  ReportSet Set = World.emptySet();
  auto add = [&](bool Failed, uint64_t BugMask, Entries Sites,
                 Entries Preds) {
    FeedbackReport Report;
    Report.Failed = Failed;
    Report.BugMask = BugMask;
    Report.Counts.SiteObservations = std::move(Sites);
    Report.Counts.TruePredicates = std::move(Preds);
    Set.add(std::move(Report));
  };
  for (int Block = 0; Block < 4; ++Block) {
    add(true, Bug1, {{0, 2}, {1, 0}}, {{A, 1}});
    add(true, Bug1, {{0, 1}, {1, 1}}, {{A, 3}});
    add(true, Bug1 | Bug2, {{0, 1}, {1, 1}}, {{A, 1}, {B, 1}});
    add(true, Bug2, {{0, 1}, {1, 2}}, {{B, 2}});
    add(true, Bug2, {{1, 1}}, {{B, 1}});
    add(false, 0, {{0, 1}, {1, 1}}, {{A, 0}});
    add(false, 0, {{0, 1}}, {});
    add(false, 0, {{0, 1}, {1, 1}}, {{B, 1}});
    add(false, 0, {{0, 1}, {1, 1}}, {});
    add(false, 0, {}, {});
  }
  RunProfiles Runs = RunProfiles::fromReports(Set);

  // B is listed first, so a pick is the best overlap, not the first entry.
  // Bug 3 never occurs and gets no predictor.
  std::vector<SelectedPredicate> Selected(2);
  Selected[0].Pred = B;
  Selected[1].Pred = A;
  auto Picks = choosePredictorPerBug(Runs, Selected, {1, 2, 3});
  EXPECT_EQ(Picks, (std::vector<std::pair<int, uint32_t>>{{1, A}, {2, B}}));

  // Per block A has F=3 S=0 FObs=4 SObs=4 and B has F=3 S=1 FObs=4
  // SObs=3. Importance over the first 10/20/30 runs is 0.5772/0.6088/
  // 0.6187 for A (0.6239 over all 40) and 0.2831/0.2905/0.2927 for B
  // (0.2939), so a drop below 0.01 first holds at 30 and 20 runs.
  auto Rows = computeMinimumRuns(World.Sites, Runs, Picks, {10, 20, 30, 40},
                                 /*Threshold=*/0.01);
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].BugId, 1);
  EXPECT_EQ(Rows[0].Pred, A);
  EXPECT_EQ(Rows[0].MinRuns, 30u);
  EXPECT_EQ(Rows[0].FAtMinRuns, 9u);
  EXPECT_EQ(Rows[0].FullImportance,
            PredicateScores(PredicateCounts{12, 0, 16, 16}).importance(20));
  EXPECT_EQ(Rows[1].BugId, 2);
  EXPECT_EQ(Rows[1].Pred, B);
  EXPECT_EQ(Rows[1].MinRuns, 20u);
  EXPECT_EQ(Rows[1].FAtMinRuns, 6u);
  EXPECT_EQ(Rows[1].FullImportance,
            PredicateScores(PredicateCounts{12, 4, 16, 12}).importance(20));
}

TEST(TablesTest, RenderersProduceNonEmptyOutput) {
  CampaignResult Result = smallCampaign(ccryptSubject());
  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();
  ASSERT_FALSE(Analysis.Selected.empty());

  RunView View = RunView::allOf(Runs);
  auto Ranked = Isolator.rank(Analysis.PrunedSurvivors, View);
  std::string RankedText =
      renderRankedList(Result.Sites, Ranked, 5, Runs.numFailing());
  EXPECT_NE(RankedText.find("Thermometer"), std::string::npos);

  std::string SelectedText =
      renderSelectedList(Result.Sites, Runs, Analysis.Selected, {1});
  EXPECT_NE(SelectedText.find("Initial"), std::string::npos);
  EXPECT_NE(SelectedText.find("#1"), std::string::npos);

  std::string AffinityText =
      renderAffinity(Result.Sites, Analysis.Selected[0]);
  EXPECT_NE(AffinityText.find("affinity"), std::string::npos);
}

TEST(TablesTest, StackStudyCraftedScenario) {
  // Two bugs: bug 1 crashes at a unique location; bug 2 shares its crash
  // location with bug 1 in some runs.
  ReportSet Set(4, 24);
  auto addCrash = [&](int Bug, const std::string &Stack) {
    FeedbackReport Report;
    Report.Failed = true;
    Report.Trap = TrapKind::NullDeref;
    Report.StackSignature = Stack;
    Report.BugMask = FeedbackReport::bugBit(Bug);
    Set.add(Report);
  };
  for (int I = 0; I < 10; ++I)
    addCrash(1, "f@3>main@9");
  for (int I = 0; I < 5; ++I)
    addCrash(2, "g@7>main@11");
  for (int I = 0; I < 5; ++I)
    addCrash(2, "f@3>main@9"); // Bug 2 sometimes crashes at bug 1's site.

  auto Rows = computeStackStudy(Set, {1, 2});
  ASSERT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].BugId, 1);
  EXPECT_EQ(Rows[0].CrashingRuns, 10u);
  EXPECT_EQ(Rows[0].DistinctLocations, 1u);
  EXPECT_FALSE(Rows[0].UniqueLocation)
      << "bug 2 also crashes at f@3, so the location is not unique";
  EXPECT_EQ(Rows[1].DistinctLocations, 2u);
  EXPECT_FALSE(Rows[1].UniqueLocation);
}

TEST(TablesTest, StackStudyUniqueLocation) {
  ReportSet Set(4, 24);
  auto addCrash = [&](int Bug, const std::string &Stack) {
    FeedbackReport Report;
    Report.Failed = true;
    Report.Trap = TrapKind::OutOfBounds;
    Report.StackSignature = Stack;
    Report.BugMask = FeedbackReport::bugBit(Bug);
    Set.add(Report);
  };
  for (int I = 0; I < 8; ++I)
    addCrash(1, "alpha@1>main@2");
  for (int I = 0; I < 8; ++I)
    addCrash(2, "beta@5>main@2");
  auto Rows = computeStackStudy(Set, {1, 2});
  EXPECT_TRUE(Rows[0].UniqueLocation);
  EXPECT_TRUE(Rows[1].UniqueLocation);
}

TEST(TablesTest, CrashFunctionExtraction) {
  EXPECT_EQ(crashFunctionOf("mnote_save@117"), "mnote_save");
  EXPECT_EQ(crashFunctionOf("main@9"), "main");
  EXPECT_EQ(crashFunctionOf("noline"), "noline");
  EXPECT_EQ(crashFunctionOf(""), "");
}

TEST(TablesTest, StackStudyCauseAttribution) {
  ReportSet Set(4, 24);
  auto addCrash = [&](int Bug, const std::string &Stack) {
    FeedbackReport Report;
    Report.Failed = true;
    Report.Trap = TrapKind::NullDeref;
    Report.StackSignature = Stack;
    Report.BugMask = FeedbackReport::bugBit(Bug);
    Set.add(Report);
  };
  // Bug 1's defect is in "loader" but it crashes in "saver".
  for (int I = 0; I < 6; ++I)
    addCrash(1, "saver@9>main@2");
  auto Rows = computeStackStudy(Set, {1}, {"loader"});
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_TRUE(Rows[0].UniqueLocation);
  EXPECT_EQ(Rows[0].CrashesNamingCause, 0u)
      << "a unique location that never names the cause is still useless";

  ReportSet Set2(4, 24);
  FeedbackReport Direct;
  Direct.Failed = true;
  Direct.Trap = TrapKind::NullDeref;
  Direct.StackSignature = "loader@4>main@2";
  Direct.BugMask = FeedbackReport::bugBit(1);
  Set2.add(Direct);
  auto Rows2 = computeStackStudy(Set2, {1}, {"loader"});
  EXPECT_EQ(Rows2[0].CrashesNamingCause, 1u);
}

TEST(TablesTest, StackStudyIgnoresNonCrashes) {
  ReportSet Set(4, 24);
  FeedbackReport Clean;
  Clean.Failed = true; // Failed by exit code, no trap, no stack.
  Clean.BugMask = FeedbackReport::bugBit(1);
  Set.add(Clean);
  auto Rows = computeStackStudy(Set, {1});
  EXPECT_EQ(Rows[0].CrashingRuns, 0u);
}
