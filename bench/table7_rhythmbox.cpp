//===- bench/table7_rhythmbox.cpp - Reproduce Table 7 ----------------------===//
//
// Table 7 of the paper: RHYTHMBOX 0.6.5, an event-driven program. Two
// distinct bugs are isolated: a dispose/timer race and an unsafe
// object-library usage pattern whose crash surfaces later in the renderer.
// The paper notes the second bug's chosen predicate was not useful
// directly but its affinity list was — so the affinity lists are printed
// for every retained predicate.
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
  std::printf("== Table 7: predictors for RHYTHMBOX ==\n");
  std::printf("runs: %zu, seed: %llu\n\n", Config.Runs,
              static_cast<unsigned long long>(Config.Seed));

  CampaignOptions Options;
  Options.NumRuns = Config.Runs;
  Options.Seed = Config.Seed;
  Options.Threads = Config.Threads;
  CampaignResult Result = runCampaign(rhythmboxSubject(), Options);

  std::printf("runs: %zu successful, %zu failing (the paper's RHYTHMBOX "
              "study also had more\nfailures than successes)\n",
              Result.numSuccessful(), Result.numFailing());
  for (const auto &Stats : Result.Bugs)
    std::printf("  bug #%d: triggered in %zu runs (%zu failing)\n",
                Stats.BugId, Stats.Triggered, Stats.TriggeredAndFailed);
  std::printf("\n");

  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();

  std::printf("%s\n", renderSelectedList(Result.Sites, Runs,
                                         Analysis.Selected, {1, 2})
                          .c_str());
  for (const SelectedPredicate &Entry : Analysis.Selected)
    std::printf("%s", renderAffinity(Result.Sites, Entry).c_str());
  std::printf("\nPaper shape: distinct predictors for the race and for the "
              "unsafe API pattern;\nthe affinity lists collect the related "
              "predicates an engineer would read next.\n");
  return 0;
}
