//===- examples/adaptive_sampling.cpp - Nonuniform sampling in action -----===//
//
// Section 4 of the paper: with naive uniform 1/100 sampling, two equally
// good predictors at sites with very different execution frequencies get
// wildly different observation counts — rare sites are almost never
// sampled and their predictors drown. The fix: train per-site rates on
// preliminary runs so every site yields ~100 samples per run, clamped at
// 1/100.
//
// This example trains an adaptive plan for the EXIF subject, prints the
// resulting rate spectrum, and shows the practical consequence: the rare
// maker-note bug is observed under the adaptive plan but essentially
// invisible under uniform 1/100.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"

#include <algorithm>
#include <cstdio>

using namespace sbi;

namespace {

CampaignResult runWith(SamplingMode Mode) {
  CampaignOptions Options;
  Options.NumRuns = 3000;
  Options.Seed = 31337;
  Options.Mode = Mode;
  Options.UniformRate = 0.01;
  return runCampaign(exifSubject(), Options);
}

} // namespace

int main() {
  std::printf("== adaptive (nonuniform) sampling on EXIF ==\n\n");

  CampaignResult Adaptive = runWith(SamplingMode::Adaptive);

  // The rate spectrum: how many sites run at which sampling rate.
  std::vector<double> Rates;
  for (uint32_t Site = 0; Site < Adaptive.Plan.numSites(); ++Site)
    Rates.push_back(Adaptive.Plan.rate(Site));
  std::sort(Rates.begin(), Rates.end());
  size_t AtFloor = 0, Reduced = 0, Full = 0;
  for (double Rate : Rates) {
    if (Rate <= 0.01 + 1e-12)
      ++AtFloor;
    else if (Rate < 1.0)
      ++Reduced;
    else
      ++Full;
  }
  std::printf("trained plan over %zu sites:\n", Rates.size());
  std::printf("  %5zu sites at the 1/100 floor (hottest code)\n", AtFloor);
  std::printf("  %5zu sites at intermediate rates\n", Reduced);
  std::printf("  %5zu sites at rate 1.0 (reached < 100 times per run)\n\n",
              Full);

  // Practical consequence: observation counts for the rare bug-3
  // predicate under each plan.
  CampaignResult Uniform = runWith(SamplingMode::Uniform);
  // Each campaign is converted once; its counts and its analysis read the
  // same store.
  RunProfiles AdaptiveRuns = RunProfiles::fromReports(Adaptive.Reports);
  RunProfiles UniformRuns = RunProfiles::fromReports(Uniform.Reports);

  auto observationsOf = [](const SiteTable &Sites, const RunProfiles &Runs,
                           const char *TextFragment) {
    uint64_t F = 0, Observed = 0;
    for (uint32_t Pred = 0; Pred < Sites.numPredicates(); ++Pred) {
      if (Sites.predicate(Pred).Text.find(TextFragment) == std::string::npos)
        continue;
      uint32_t Site = Sites.predicate(Pred).Site;
      for (size_t Run = 0; Run < Runs.size(); ++Run) {
        if (Runs.observedTrue(Run, Pred) && Runs.failed(Run))
          ++F;
        if (Runs.siteObserved(Run, Site))
          ++Observed;
      }
      break; // One representative predicate is enough.
    }
    return std::pair<uint64_t, uint64_t>(F, Observed);
  };

  auto [AdaptiveF, AdaptiveObs] = observationsOf(
      Adaptive.Sites, AdaptiveRuns, "(o + s) > mn_buf_size is TRUE");
  auto [UniformF, UniformObs] = observationsOf(
      Uniform.Sites, UniformRuns, "(o + s) > mn_buf_size is TRUE");
  std::printf("the rare maker-note predicate (bug 3's smoking gun):\n");
  std::printf("  adaptive:      observed in %llu runs, true in %llu "
              "failing runs\n",
              static_cast<unsigned long long>(AdaptiveObs),
              static_cast<unsigned long long>(AdaptiveF));
  std::printf("  uniform 1/100: observed in %llu runs, true in %llu "
              "failing runs\n\n",
              static_cast<unsigned long long>(UniformObs),
              static_cast<unsigned long long>(UniformF));

  // And the end-to-end effect on isolation.
  for (const CampaignResult *Result : {&Adaptive, &Uniform}) {
    CauseIsolator Isolator(Result->Sites, Result == &Adaptive ? AdaptiveRuns
                                                              : UniformRuns);
    AnalysisResult Analysis = Isolator.run();
    std::printf("%s: %zu predictors selected\n",
                Result == &Adaptive ? "adaptive" : "uniform 1/100",
                Analysis.Selected.size());
    for (const SelectedPredicate &Entry : Analysis.Selected)
      std::printf("  %s\n",
                  predicateLabel(Result->Sites, Entry.Pred).c_str());
  }
  std::printf("\nExpected: the adaptive plan isolates all three bugs "
              "including the rare one;\nuniform 1/100 typically misses "
              "rarely-reached predicates.\n");
  return 0;
}
