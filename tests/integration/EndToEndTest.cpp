//===- tests/integration/EndToEndTest.cpp - Full-pipeline validation ------===//
//
// End-to-end checks of the paper's headline claims on small campaigns:
// pruning shrinks the predicate space by orders of magnitude, elimination
// isolates the seeded bugs, the chosen predicates point at the right
// source locations, and sampled analysis agrees with unsampled analysis.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "feedback/Corpus.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"
#include "logreg/LogReg.h"

#include <gtest/gtest.h>

#include <set>

using namespace sbi;

namespace {

CampaignResult campaign(const Subject &Subj, size_t Runs,
                        SamplingMode Mode = SamplingMode::Adaptive,
                        uint64_t Seed = 99) {
  CampaignOptions Options;
  Options.NumRuns = Runs;
  Options.TrainingRuns = 60;
  Options.Seed = Seed;
  Options.Mode = Mode;
  return runCampaign(Subj, Options);
}

/// The function name a predicate's site lives in.
std::string functionOf(const SiteTable &Sites, uint32_t Pred) {
  return Sites.site(Sites.predicate(Pred).Site).Function;
}

} // namespace

TEST(EndToEndTest, PruningRemovesTwoOrdersOfMagnitude) {
  CampaignResult Result = campaign(mossSubject(), 500);
  CauseIsolator Isolator(Result.Sites, Result.Reports);
  std::vector<uint32_t> Survivors = Isolator.prune();
  EXPECT_LT(Survivors.size() * 10, Result.Sites.numPredicates())
      << "the Increase test must remove at least 90% of predicates";
  EXPECT_GT(Survivors.size(), 0u);
}

TEST(EndToEndTest, CCryptPredictorPointsAtPromptPath) {
  CampaignResult Result = campaign(ccryptSubject(), 400);
  CauseIsolator Isolator(Result.Sites, Result.Reports);
  AnalysisResult Analysis = Isolator.run();
  ASSERT_FALSE(Analysis.Selected.empty());
  std::string Function = functionOf(Result.Sites, Analysis.Selected[0].Pred);
  EXPECT_TRUE(Function == "prompt_response" || Function == "main")
      << "top predictor was in " << Function;
  // The top predictor covers (nearly) all failures.
  EXPECT_GE(Analysis.Selected[0].InitialScores.counts().F,
            Result.numFailing() * 9 / 10);
}

TEST(EndToEndTest, BcPredictorAtCauseNotCrashSite) {
  CampaignResult Result = campaign(bcSubject(), 500);
  CauseIsolator Isolator(Result.Sites, Result.Reports);
  AnalysisResult Analysis = Isolator.run();
  ASSERT_FALSE(Analysis.Selected.empty());
  std::string Function = functionOf(Result.Sites, Analysis.Selected[0].Pred);
  EXPECT_TRUE(Function == "array_define" || Function == "run_stmt")
      << "predictor must name the overrun path, got " << Function;
}

TEST(EndToEndTest, ExifIsolatesThreeBugs) {
  CampaignResult Result = campaign(exifSubject(), 4000);
  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();
  // Each of the three bugs gets a predictor among the selections.
  for (int Bug : {1, 2, 3}) {
    bool Covered = false;
    for (const SelectedPredicate &Entry : Analysis.Selected)
      if (failingRunsWithPredAndBug(Runs, Entry.Pred, Bug) > 0)
        Covered = true;
    EXPECT_TRUE(Covered) << "exif bug " << Bug;
  }
}

TEST(EndToEndTest, MossCoversEveryFailingBug) {
  CampaignResult Result = campaign(mossSubject(), 1200);
  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();
  for (const auto &Stats : Result.Bugs) {
    if (Stats.TriggeredAndFailed < 8)
      continue; // Too rare at this scale to demand coverage.
    bool Covered = false;
    for (const SelectedPredicate &Entry : Analysis.Selected)
      if (failingRunsWithPredAndBug(Runs, Entry.Pred, Stats.BugId) > 0)
        Covered = true;
    EXPECT_TRUE(Covered) << "moss bug " << Stats.BugId << " with "
                         << Stats.TriggeredAndFailed << " failures";
  }
}

TEST(EndToEndTest, RhythmboxSeparatesTheTwoBugs) {
  CampaignResult Result = campaign(rhythmboxSubject(), 700);
  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();
  ASSERT_GE(Analysis.Selected.size(), 2u);
  // The two top predictors specialize: each dominated by a different bug.
  auto dominant = [&](uint32_t Pred) {
    size_t One = failingRunsWithPredAndBug(Runs, Pred, 1);
    size_t Two = failingRunsWithPredAndBug(Runs, Pred, 2);
    return One > Two ? 1 : 2;
  };
  EXPECT_NE(dominant(Analysis.Selected[0].Pred),
            dominant(Analysis.Selected[1].Pred));
}

TEST(EndToEndTest, SampledAgreesWithUnsampledOnTopPredictors) {
  // Section 4's validation: sampled results match unsampled results up to
  // logically equivalent predicates. Compare top selections at site
  // granularity.
  CampaignResult Full = campaign(exifSubject(), 2500, SamplingMode::None);
  CampaignResult Sampled =
      campaign(exifSubject(), 2500, SamplingMode::Adaptive);

  auto topSites = [](const CampaignResult &Result, size_t K) {
    CauseIsolator Isolator(Result.Sites, Result.Reports);
    AnalysisResult Analysis = Isolator.run();
    std::set<uint32_t> Sites;
    for (size_t I = 0; I < Analysis.Selected.size() && I < K; ++I)
      Sites.insert(
          Result.Sites.predicate(Analysis.Selected[I].Pred).Site);
    return Sites;
  };

  std::set<uint32_t> FullSites = topSites(Full, 3);
  std::set<uint32_t> SampledSites = topSites(Sampled, 3);
  size_t Common = 0;
  for (uint32_t Site : SampledSites)
    Common += FullSites.count(Site);
  EXPECT_GE(Common, 2u)
      << "sampled and unsampled analyses must largely agree";
}

TEST(EndToEndTest, EliminationBeatsLogRegAtBugSeparation) {
  // The Section 4.4 comparison, quantified: count distinct bugs dominated
  // by the top-5 picks of each method.
  CampaignResult Result = campaign(mossSubject(), 900);
  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);

  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();

  LogRegModel Model = trainForSparsity(Runs, 40, {0.02, 0.01, 0.005});

  auto distinctDominantBugs = [&](const std::vector<uint32_t> &Preds) {
    std::set<int> Bugs;
    for (uint32_t Pred : Preds) {
      int Best = 0;
      size_t BestCount = 0;
      for (int Bug : {1, 2, 3, 4, 5, 6, 7, 9}) {
        size_t N = failingRunsWithPredAndBug(Runs, Pred, Bug);
        if (N > BestCount) {
          BestCount = N;
          Best = Bug;
        }
      }
      if (Best != 0)
        Bugs.insert(Best);
    }
    return Bugs.size();
  };

  std::vector<uint32_t> EliminationTop, LogRegTop;
  for (size_t I = 0; I < Analysis.Selected.size() && I < 5; ++I)
    EliminationTop.push_back(Analysis.Selected[I].Pred);
  for (const auto &[Pred, Weight] : Model.topByMagnitude(5))
    LogRegTop.push_back(Pred);

  EXPECT_GE(distinctDominantBugs(EliminationTop),
            distinctDominantBugs(LogRegTop));
  EXPECT_GE(distinctDominantBugs(EliminationTop), 3u);
}

TEST(EndToEndTest, ReportsSurviveSerializationForAnalysis) {
  // A report set's on-disk form is a corpus; reading it back in full must
  // not change the analysis.
  CampaignResult Result = campaign(ccryptSubject(), 300);
  const std::string Dir = ::testing::TempDir() + "sbi-end-to-end-corpus";
  std::string Error;
  ASSERT_TRUE(writeCorpus(Result.Reports, Dir, 64, Error)) << Error;
  ReportSet Restored;
  ASSERT_TRUE(readCorpus(Dir, Restored, Error)) << Error;

  CauseIsolator Before(Result.Sites, Result.Reports);
  CauseIsolator After(Result.Sites, Restored);
  AnalysisResult A = Before.run();
  AnalysisResult B = After.run();
  ASSERT_EQ(A.Selected.size(), B.Selected.size());
  for (size_t I = 0; I < A.Selected.size(); ++I)
    EXPECT_EQ(A.Selected[I].Pred, B.Selected[I].Pred);
}
