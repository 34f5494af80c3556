//===- bench/table8_minruns.cpp - Reproduce Table 8 ------------------------===//
//
// Table 8 of the paper: how many runs are needed? For each bug's chosen
// predictor P, the study finds the minimum N such that
// Importance_full(P) - Importance_N(P) < 0.2, and reports N together with
// F(P) at that N. The paper's findings, which this bench reproduces in
// shape:
//
//   - N varies by orders of magnitude across bugs (rare bugs need many
//     more runs);
//   - the absolute number of failing-run observations needed is small and
//     stable (the paper: 10-40 failing runs per bug);
//   - results degrade gracefully: rare bugs' predictors drop out first.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"

#include <cstdio>

using namespace sbi;

int main(int Argc, char **Argv) {
  BenchConfig Config = parseBenchConfig(Argc, Argv, /*DefaultRuns=*/6000);
  std::printf("== Table 8: minimum number of runs needed ==\n");
  std::printf("runs per study: %zu, seed: %llu, threshold: "
              "Importance drop < 0.2\n\n",
              Config.Runs, static_cast<unsigned long long>(Config.Seed));

  TextTable Table;
  Table.setHeader({"Study", "Bug", "Predictor", "N", "F(P) at N",
                   "Importance(full)"});

  for (const Subject *Subj : allSubjects()) {
    CampaignOptions Options;
    Options.NumRuns = Config.Runs;
    Options.Seed = Config.Seed;
    Options.Threads = Config.Threads;
    CampaignResult Result = runCampaign(*Subj, Options);

    RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
    CauseIsolator Isolator(Result.Sites, Runs);
    AnalysisResult Analysis = Isolator.run();

    std::vector<int> BugIds;
    for (const BugSpec &Bug : Subj->Bugs)
      BugIds.push_back(Bug.Id);
    auto Predictors = choosePredictorPerBug(Runs, Analysis.Selected, BugIds);

    auto Grid = defaultMinRunsGrid(Runs.size());
    auto Rows = computeMinimumRuns(Result.Sites, Runs, Predictors, Grid);
    for (const MinRunsRow &Row : Rows) {
      Table.addRow({Subj->Name, format("#%d", Row.BugId),
                    Result.Sites.predicate(Row.Pred).Text,
                    Row.MinRuns == 0 ? std::string(">max")
                                     : format("%zu", Row.MinRuns),
                    format("%llu",
                           static_cast<unsigned long long>(Row.FAtMinRuns)),
                    format("%.3f", Row.FullImportance)});
    }
    Table.addSeparator();
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("Paper shape: N spans orders of magnitude across bugs, while "
              "F(P) at N stays in\nthe tens — a predictor stabilizes after "
              "a few dozen observed failures.\n");
  return 0;
}
