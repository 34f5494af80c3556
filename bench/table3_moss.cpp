//===- bench/table3_moss.cpp - Reproduce Table 3 --------------------------===//
//
// Table 3 of the paper: the MOSS validation study. Nine bugs are seeded
// (six real historical MOSS bugs plus three variations in the paper; nine
// structurally matching bugs here), the elimination algorithm runs over the
// labeled reports, and each selected predicate is shown with its initial
// and effective thermometers plus, per ground-truth bug, the number of
// failing runs that both exhibit the bug and observe the predicate true.
//
// Expected shape (paper):
//  - the top |bugs| predicates cover every bug that ever causes a failure,
//    roughly one predictor per bug (plus an occasional sub-bug predictor);
//  - bug 7 (the harmless overrun) is never strongly predicted but shows up
//    in other predictors' failing runs;
//  - bug 8 never occurs at all;
//  - bug 9 (output-only) is isolated thanks to the output oracle;
//  - below the covering prefix, predicates are redundant with the ones
//    above (visible as diluted effective thermometers).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace sbi;

int main(int Argc, char **Argv) {
  BenchConfig Config = parseBenchConfig(Argc, Argv, /*DefaultRuns=*/4000);
  std::printf("== Table 3: MOSS failure predictors (nonuniform sampling) "
              "==\n");
  std::printf("runs: %zu, seed: %llu\n\n", Config.Runs,
              static_cast<unsigned long long>(Config.Seed));

  CampaignOptions Options;
  Options.NumRuns = Config.Runs;
  Options.Seed = Config.Seed;
  Options.Threads = Config.Threads;
  CampaignResult Result = runCampaign(mossSubject(), Options);

  std::printf("runs: %zu successful, %zu failing\n", Result.numSuccessful(),
              Result.numFailing());
  std::printf("%-6s %-28s %10s %10s\n", "bug", "kind", "triggered",
              "failing");
  for (const auto &Stats : Result.Bugs) {
    const BugSpec &Spec = mossSubject().Bugs[static_cast<size_t>(
        Stats.BugId - 1)];
    std::printf("#%-5d %-28s %10zu %10zu\n", Stats.BugId, Spec.Kind.c_str(),
                Stats.Triggered, Stats.TriggeredAndFailed);
  }
  std::printf("\n");

  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();

  std::vector<int> BugIds = {1, 2, 3, 4, 5, 6, 7, 9};
  std::printf("%s\n", renderSelectedList(Result.Sites, Runs,
                                         Analysis.Selected, BugIds,
                                         /*TopK=*/21)
                          .c_str());

  std::printf("(bug 8 is seeded but never triggered; its column would be "
              "all zeros, so it is omitted, as in the paper)\n\n");

  for (size_t I = 0; I < Analysis.Selected.size() && I < 8; ++I)
    std::printf("%s", renderAffinity(Result.Sites, Analysis.Selected[I])
                          .c_str());
  return 0;
}
