//===- bench/table6_exif.cpp - Reproduce Table 6 ---------------------------===//
//
// Table 6 of the paper: EXIF 0.6.9's three previously unknown crashing
// bugs, each isolated by a distinct retained predicate. The bench also
// replays the paper's bug-3 walk-through: a failing run's stack names only
// the save path (main > save_data > save_entry > mnote_save), while the
// retained predicate points at the loader condition o + s > buf_size —
// the information the stack cannot provide.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"

#include <cstdio>

using namespace sbi;

int main(int Argc, char **Argv) {
  BenchConfig Config = parseBenchConfig(Argc, Argv, /*DefaultRuns=*/8000);
  std::printf("== Table 6: predictors for EXIF ==\n");
  std::printf("runs: %zu, seed: %llu\n\n", Config.Runs,
              static_cast<unsigned long long>(Config.Seed));

  CampaignOptions Options;
  Options.NumRuns = Config.Runs;
  Options.Seed = Config.Seed;
  Options.Threads = Config.Threads;
  CampaignResult Result = runCampaign(exifSubject(), Options);

  std::printf("runs: %zu successful, %zu failing\n", Result.numSuccessful(),
              Result.numFailing());
  for (const auto &Stats : Result.Bugs)
    std::printf("  bug #%d: triggered in %zu runs (%zu failing)\n",
                Stats.BugId, Stats.Triggered, Stats.TriggeredAndFailed);
  std::printf("\n");

  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();

  std::printf("%s\n", renderSelectedList(Result.Sites, Runs,
                                         Analysis.Selected, {1, 2, 3})
                          .c_str());

  // The paper's bug-3 narrative: the crash stack is in the save path, far
  // from the loader bug the predicate names.
  for (const FeedbackReport &Report : Result.Reports.reports())
    if (Report.Failed && Report.hasBug(3) &&
        Report.Trap == TrapKind::NullDeref) {
      std::printf("a bug-3 failing run's stack at the crash:\n  %s\n",
                  Report.StackSignature.c_str());
      std::printf("(the crash is in the save path; the retained predicate "
                  "points at the\nmaker-note loader's o + s > buf_size "
                  "bail-out, like the paper's Figure-free\nwalk-through)\n");
      break;
    }
  return 0;
}
