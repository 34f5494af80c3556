//===- bench/table5_bc.cpp - Reproduce Table 5 -----------------------------===//
//
// Table 5 of the paper: GNU BC 1.06's heap buffer overrun. Two properties
// matter: the retained predicates point at the overrun site (the array
// count crossing the 32-entry table capacity), and the crash stacks are
// useless — the failure surfaces in the summary walk long after the
// overrun, so the stack names print_summary, not array_define.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"

#include <cstdio>
#include <map>

using namespace sbi;

int main(int Argc, char **Argv) {
  BenchConfig Config = parseBenchConfig(Argc, Argv, /*DefaultRuns=*/4000);
  std::printf("== Table 5: predictors for BC ==\n");
  std::printf("runs: %zu, seed: %llu\n\n", Config.Runs,
              static_cast<unsigned long long>(Config.Seed));

  CampaignOptions Options;
  Options.NumRuns = Config.Runs;
  Options.Seed = Config.Seed;
  Options.Threads = Config.Threads;
  CampaignResult Result = runCampaign(bcSubject(), Options);

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

  // The paper's point about this bug: the stack at the crash carries no
  // information about the cause. Show where the crashes actually land.
  std::map<std::string, size_t> CrashSites;
  for (const FeedbackReport &Report : Result.Reports.reports())
    if (Report.Trap != TrapKind::None && !Report.StackSignature.empty()) {
      size_t Sep = Report.StackSignature.find('>');
      ++CrashSites[Sep == std::string::npos
                       ? Report.StackSignature
                       : Report.StackSignature.substr(0, Sep)];
    }
  std::printf("\ncrash locations (top stack frame) vs. the true cause "
              "(array_define):\n");
  for (const auto &[Site, Count] : CrashSites)
    std::printf("  %6zu crashes at %s\n", Count, Site.c_str());
  std::printf("\nPaper shape: the predictors name the overrun condition "
              "(array count vs. the\n32-entry capacity) even though every "
              "crash happens far away in the summary walk.\n");
  return 0;
}
