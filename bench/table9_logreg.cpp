//===- bench/table9_logreg.cpp - Reproduce Table 9 -------------------------===//
//
// Table 9 of the paper: the top ten predicates selected by l1-regularized
// logistic regression for MOSS — the baseline the elimination algorithm is
// compared against in Section 4.4. The paper's striking finding: every one
// of the baseline's picks is a sub-bug or super-bug predictor. Each pick
// here is annotated with its ground-truth coverage so the same diagnosis
// can be read off directly:
//
//   super-bug: its failing runs span many different bugs (it predicts
//              "something failed", e.g. long-command-line predicates);
//   sub-bug:   its failing runs are a small, highly deterministic slice of
//              one bug's failures.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"
#include "logreg/LogReg.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>

using namespace sbi;

int main(int Argc, char **Argv) {
  BenchConfig Config = parseBenchConfig(Argc, Argv, /*DefaultRuns=*/2500);
  std::printf("== Table 9: results of l1-regularized logistic regression "
              "for MOSS ==\n");
  std::printf("runs: %zu, seed: %llu\n\n", Config.Runs,
              static_cast<unsigned long long>(Config.Seed));

  CampaignOptions Options;
  Options.NumRuns = Config.Runs;
  Options.Seed = Config.Seed;
  Options.Threads = Config.Threads;
  CampaignResult Result = runCampaign(mossSubject(), Options);

  std::vector<double> LambdaPath = {0.05, 0.02, 0.01, 0.005, 0.002, 0.001};
  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  LogRegModel Model = trainForSparsity(Runs, /*MaxActive=*/40, LambdaPath);
  std::printf("trained: %d nonzero weights, %d iterations, objective "
              "%.5f\n\n",
              Model.numNonzero(), Model.Iterations, Model.FinalObjective);

  // Bug 7 (the harmless overrun) co-occurs with roughly half of all
  // failures without causing any; counting it would mislabel broad
  // predicates as its predictors, so diagnosis runs over the real causes.
  std::vector<int> BugIds = {1, 2, 3, 4, 5, 6, 9};
  std::vector<size_t> BugFailTotals;
  for (int Bug : BugIds) {
    size_t N = 0;
    for (size_t Run = 0; Run < Runs.size(); ++Run)
      if (Runs.failed(Run) && Runs.hasBug(Run, Bug))
        ++N;
    BugFailTotals.push_back(N);
  }

  auto diagnoseAndPrint = [&](const std::vector<std::pair<uint32_t, double>>
                                  &Picks) {
    std::printf("%-12s %-58s %s\n", "Coefficient", "Predicate",
                "Diagnosis");
    for (const auto &[Pred, Weight] : Picks) {
    // Ground-truth coverage of this predicate's failing runs.
    size_t TotalF = 0;
    for (size_t Run = 0; Run < Runs.size(); ++Run)
      if (Runs.failed(Run) && Runs.observedTrue(Run, Pred))
        ++TotalF;
    size_t BugsTouched = 0;
    int DominantBug = 0;
    size_t DominantCount = 0;
    for (size_t I = 0; I < BugIds.size(); ++I) {
      size_t N = failingRunsWithPredAndBug(Runs, Pred, BugIds[I]);
      if (N > 0)
        ++BugsTouched;
      if (N > DominantCount) {
        DominantCount = N;
        DominantBug = BugIds[I];
      }
    }
    size_t DominantTotal = 0;
    for (size_t I = 0; I < BugIds.size(); ++I)
      if (BugIds[I] == DominantBug)
        DominantTotal = BugFailTotals[I];

    std::string Diagnosis;
    if (TotalF == 0) {
      Diagnosis = "no failing coverage";
    } else if (BugsTouched >= 3 &&
               DominantCount * 2 < TotalF + BugsTouched) {
      Diagnosis = format("super-bug (%zu bugs)", BugsTouched);
    } else if (DominantTotal > 0 && DominantCount * 2 < DominantTotal) {
      Diagnosis = format("sub-bug of #%d (%zu of %zu failures)",
                         DominantBug, DominantCount, DominantTotal);
    } else {
      Diagnosis = format("predictor of #%d (%zu of %zu failures)",
                         DominantBug, DominantCount, DominantTotal);
    }
    std::printf("%12.6f %-58s %s\n", Weight,
                Result.Sites.predicate(Pred).Text.c_str(),
                Diagnosis.c_str());
    }
  };

  std::printf("top failure-predicting (positive) coefficients — the "
              "paper's Table 9 view:\n");
  diagnoseAndPrint(Model.topPositive(10));

  std::printf("\ntop coefficients by magnitude (negative weights mark "
              "late-execution predicates\nthat crashed runs never reach — "
              "success indicators):\n");
  diagnoseAndPrint(Model.topByMagnitude(10));

  std::printf("\nPaper shape: the regression's picks are dominated by "
              "sub-bug and super-bug\npredictors — it optimizes global "
              "prediction, not per-bug isolation.\n");
  return 0;
}
