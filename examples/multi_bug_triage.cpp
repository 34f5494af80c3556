//===- examples/multi_bug_triage.cpp - Triaging a multi-bug program -------===//
//
// The paper's core scenario: a program with several undiagnosed bugs of
// very different frequencies, and a pile of labeled feedback reports. This
// example runs the bundled MOSS subject (9 seeded bugs), performs the full
// isolation, and walks the output the way an engineer would:
//
//   1. read the selected predictors in priority order,
//   2. check each predictor's ground-truth column (which real bug it
//      tracks — normally unknown, shown here because the subject is
//      seeded),
//   3. follow one predictor's affinity list to its related predicates.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"

#include <cstdio>

using namespace sbi;

int main() {
  std::printf("== multi-bug triage on MOSS (9 seeded bugs) ==\n\n");

  CampaignOptions Options;
  Options.NumRuns = 2000;
  Options.Seed = 7;
  CampaignResult Result = runCampaign(mossSubject(), Options);

  std::printf("%zu runs: %zu failing, %zu successful; %u predicates "
              "instrumented\n\n",
              Result.Reports.size(), Result.numFailing(),
              Result.numSuccessful(), Result.Sites.numPredicates());

  std::printf("ground truth (hidden from the analysis):\n");
  for (const auto &Stats : Result.Bugs)
    if (Stats.Triggered > 0)
      std::printf("  bug #%d (%s): %zu runs, %zu failing\n", Stats.BugId,
                  mossSubject()
                      .Bugs[static_cast<size_t>(Stats.BugId - 1)]
                      .Kind.c_str(),
                  Stats.Triggered, Stats.TriggeredAndFailed);
  std::printf("\n");

  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  AnalysisResult Analysis = Isolator.run();

  std::printf("selected predictors (elimination order), with per-bug "
              "failing-run columns:\n\n");
  std::printf("%s\n", renderSelectedList(Result.Sites, Runs,
                                         Analysis.Selected,
                                         {1, 2, 3, 4, 5, 6, 7, 9},
                                         /*TopK=*/12)
                          .c_str());

  if (!Analysis.Selected.empty()) {
    std::printf("drilling into the top predictor's affinity list (related "
                "predicates an\nengineer would read next):\n\n");
    std::printf("%s\n",
                renderAffinity(Result.Sites, Analysis.Selected[0]).c_str());
  }

  std::printf("reading guide: each top predictor has one dominant bug "
              "column — the elimination\nalgorithm assigns roughly one "
              "predictor per bug, in failure-count order, and\nredundant "
              "predicates surface through affinity rather than cluttering "
              "the list.\n");
  return 0;
}
