//===- bench/table1_ranking.cpp - Reproduce Table 1 -----------------------===//
//
// Table 1 of the paper: why neither raw failure counts nor raw Increase
// scores are good importance metrics, using MOSS without redundancy
// elimination:
//
//   (a) sorting by F(P) surfaces predicates that fail a lot but also
//       succeed a lot (huge S, tiny Increase): super-bug predictors and
//       weakly correlated noise;
//   (b) sorting by Increase(P) surfaces near-deterministic predicates with
//       tiny F: sub-bug predictors;
//   (c) the harmonic-mean Importance balances both.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"

#include <algorithm>
#include <cstdio>

using namespace sbi;

int main(int Argc, char **Argv) {
  BenchConfig Config = parseBenchConfig(Argc, Argv, /*DefaultRuns=*/4000);
  std::printf("== Table 1: comparison of ranking strategies for MOSS "
              "(no redundancy elimination) ==\n");
  std::printf("runs: %zu, seed: %llu\n\n", Config.Runs,
              static_cast<unsigned long long>(Config.Seed));

  CampaignOptions Options;
  Options.NumRuns = Config.Runs;
  Options.Seed = Config.Seed;
  Options.Threads = Config.Threads;
  CampaignResult Result = runCampaign(mossSubject(), Options);

  RunProfiles Runs = RunProfiles::fromReports(Result.Reports);
  CauseIsolator Isolator(Result.Sites, Runs);
  std::vector<uint32_t> Survivors = Isolator.prune();
  RunView View = RunView::allOf(Runs);
  std::vector<RankedPredicate> Ranked = Isolator.rank(Survivors, View);
  uint64_t NumF = Result.numFailing();

  auto copySortedBy = [&](auto Less) {
    std::vector<RankedPredicate> Copy = Ranked;
    std::stable_sort(Copy.begin(), Copy.end(), Less);
    return Copy;
  };

  std::printf("(a) sort descending by F(P) — many failing runs, but the "
              "wide white bands show huge S(P):\n");
  auto ByF = copySortedBy([](const RankedPredicate &A,
                             const RankedPredicate &B) {
    return A.Scores.counts().F > B.Scores.counts().F;
  });
  std::printf("%s\n",
              renderRankedList(Result.Sites, ByF, 8, NumF).c_str());

  std::printf("(b) sort descending by Increase(P) — near-deterministic "
              "sub-bug predictors with tiny F(P):\n");
  auto ByIncrease = copySortedBy([](const RankedPredicate &A,
                                    const RankedPredicate &B) {
    return A.Scores.increase().Value > B.Scores.increase().Value;
  });
  std::printf("%s\n",
              renderRankedList(Result.Sites, ByIncrease, 8, NumF).c_str());

  std::printf("(c) sort descending by harmonic-mean Importance — balanced "
              "specificity and sensitivity:\n");
  std::printf("%s\n",
              renderRankedList(Result.Sites, Ranked, 8, NumF).c_str());

  // Quantify the paper's qualitative claims.
  auto meanOver = [&](const std::vector<RankedPredicate> &List, auto Proj) {
    double Sum = 0.0;
    size_t N = std::min<size_t>(8, List.size());
    for (size_t I = 0; I < N; ++I)
      Sum += Proj(List[I]);
    return N == 0 ? 0.0 : Sum / static_cast<double>(N);
  };
  std::printf("top-8 means:             F(P)        S(P)    Increase\n");
  std::printf("  (a) by F        %10.1f  %10.1f  %10.3f\n",
              meanOver(ByF, [](const auto &E) {
                return double(E.Scores.counts().F);
              }),
              meanOver(ByF, [](const auto &E) {
                return double(E.Scores.counts().S);
              }),
              meanOver(ByF, [](const auto &E) {
                return E.Scores.increase().Value;
              }));
  std::printf("  (b) by Increase %10.1f  %10.1f  %10.3f\n",
              meanOver(ByIncrease, [](const auto &E) {
                return double(E.Scores.counts().F);
              }),
              meanOver(ByIncrease, [](const auto &E) {
                return double(E.Scores.counts().S);
              }),
              meanOver(ByIncrease, [](const auto &E) {
                return E.Scores.increase().Value;
              }));
  std::printf("  (c) harmonic    %10.1f  %10.1f  %10.3f\n",
              meanOver(Ranked, [](const auto &E) {
                return double(E.Scores.counts().F);
              }),
              meanOver(Ranked, [](const auto &E) {
                return double(E.Scores.counts().S);
              }),
              meanOver(Ranked, [](const auto &E) {
                return E.Scores.increase().Value;
              }));
  return 0;
}
