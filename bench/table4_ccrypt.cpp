//===- bench/table4_ccrypt.cpp - Reproduce Table 4 ------------------------===//
//
// Table 4 of the paper: CCRYPT 1.2's single input-validation bug. The
// elimination algorithm retains a very short list (the paper shows two
// predicates, a sub-bug predictor plus the natural one), and the affinity
// list links them: the companion predicate appears at the top of the main
// predictor's affinity list, telling the engineer both point at one bug.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"

#include <cstdio>

using namespace sbi;

int main(int Argc, char **Argv) {
  BenchConfig Config = parseBenchConfig(Argc, Argv, /*DefaultRuns=*/4000);
  std::printf("== Table 4: predictors for CCRYPT ==\n");
  std::printf("runs: %zu, seed: %llu\n\n", Config.Runs,
              static_cast<unsigned long long>(Config.Seed));

  CampaignOptions Options;
  Options.NumRuns = Config.Runs;
  Options.Seed = Config.Seed;
  Options.Threads = Config.Threads;
  CampaignResult Result = runCampaign(ccryptSubject(), Options);

  std::printf("runs: %zu successful, %zu failing\n\n",
              Result.numSuccessful(), Result.numFailing());

  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();

  std::printf("%s\n", renderSelectedList(Result.Sites, Runs,
                                         Analysis.Selected, {1})
                          .c_str());
  for (const SelectedPredicate &Entry : Analysis.Selected)
    std::printf("%s", renderAffinity(Result.Sites, Entry).c_str());
  std::printf("\nPaper shape: every retained predicate points at the one "
              "prompt-path bug, and\naffinity links them as a single "
              "cause.\n");
  return 0;
}
