//===- bench/ablation_policies.cpp - Run-discard policies (Section 5) -----===//
//
// Section 5 of the paper proposes three ways to "fix" a bug during
// iterative elimination:
//
//   (1) discard all runs where R(P) = 1          (the default),
//   (2) discard only failing runs where R(P) = 1,
//   (3) relabel failing runs where R(P) = 1 as successes.
//
// They differ in how much code coverage the remaining population keeps:
// (1) is the most conservative, (3) preserves every run. The paper proves
// that right after P is selected, Increase(not P) is ordered
// (3) >= (2) >= (1) = 0 when defined. This bench runs MOSS under all three
// policies and compares the selected lists and per-bug coverage.
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
  BenchConfig Config = parseBenchConfig(Argc, Argv, /*DefaultRuns=*/2500);
  std::printf("== Ablation: the three run-discard proposals of Section 5 "
              "==\n");
  std::printf("subject: moss, runs: %zu, seed: %llu\n\n", Config.Runs,
              static_cast<unsigned long long>(Config.Seed));

  CampaignOptions Options;
  Options.NumRuns = Config.Runs;
  Options.Seed = Config.Seed;
  Options.Threads = Config.Threads;
  CampaignResult Result = runCampaign(mossSubject(), Options);
  std::printf("runs: %zu successful, %zu failing\n\n",
              Result.numSuccessful(), Result.numFailing());

  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  std::vector<int> BugIds = {1, 2, 3, 4, 5, 6, 9};

  TextTable Table;
  std::vector<std::string> Header = {"Policy", "Selected", "Bugs covered"};
  Table.setHeader(std::move(Header));

  for (DiscardPolicy Policy :
       {DiscardPolicy::DiscardAllRuns, DiscardPolicy::DiscardFailingRuns,
        DiscardPolicy::RelabelFailingRuns}) {
    AnalysisOptions Opts;
    Opts.Policy = Policy;
    Opts.ComputeAffinity = false;
    CauseIsolator Isolator(Result.Sites, Runs, Opts);
    AnalysisResult Analysis = Isolator.run();

    size_t Covered = 0;
    for (int Bug : BugIds)
      for (const SelectedPredicate &Entry : Analysis.Selected)
        if (failingRunsWithPredAndBug(Runs, Entry.Pred, Bug) > 0) {
          ++Covered;
          break;
        }
    Table.addRow({discardPolicyName(Policy),
                  format("%zu", Analysis.Selected.size()),
                  format("%zu of %zu", Covered, BugIds.size())});

    std::printf("-- %s: top selections --\n", discardPolicyName(Policy));
    std::printf("%s\n", renderSelectedList(Result.Sites, Runs,
                                           Analysis.Selected, BugIds,
                                           /*TopK=*/8)
                            .c_str());
  }
  std::printf("%s\n", Table.render().c_str());
  std::printf("Paper shape: all three policies keep a predictor per "
              "covered bug (Lemma 3.1);\npolicies (2)/(3) preserve more "
              "coverage and tend to select more predicates.\n");
  return 0;
}
