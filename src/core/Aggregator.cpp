//===- core/Aggregator.cpp - Count aggregation over run populations -------===//

#include "core/Aggregator.h"

#include <cstdio>
#include <cstdlib>

using namespace sbi;

RunView RunView::allOf(const RunProfiles &Runs) {
  RunView View;
  View.Active.assign(Runs.size(), 1);
  View.Failed.resize(Runs.size());
  for (size_t I = 0; I < Runs.size(); ++I)
    View.Failed[I] = Runs.failed(I) ? 1 : 0;
  return View;
}

size_t RunView::numActive() const {
  size_t N = 0;
  for (uint8_t A : Active)
    N += A;
  return N;
}

size_t RunView::numActiveFailing() const {
  size_t N = 0;
  for (size_t I = 0; I < Active.size(); ++I)
    N += (Active[I] && Failed[I]) ? 1 : 0;
  return N;
}

Aggregates Aggregates::compute(const RunProfiles &Runs, const RunView &View) {
  // A mismatched view would read out of bounds below, so the check must
  // survive NDEBUG builds rather than rely on callers to get it right.
  if (View.Active.size() != Runs.size() ||
      View.Failed.size() != Runs.size()) {
    std::fprintf(stderr,
                 "sbi: Aggregates::compute: run view (%zu active / %zu "
                 "failed labels) does not match run profiles (%zu runs)\n",
                 View.Active.size(), View.Failed.size(), Runs.size());
    std::abort();
  }
  Aggregates Agg(Runs.numSites(), Runs.numPredicates());

  for (size_t RunIdx = 0; RunIdx < Runs.size(); ++RunIdx) {
    if (!View.Active[RunIdx])
      continue;
    size_t LabelIdx = View.Failed[RunIdx] ? 0 : 1;
    if (View.Failed[RunIdx])
      ++Agg.NumF;
    else
      ++Agg.NumS;

    for (uint32_t Site : Runs.sites(RunIdx))
      ++Agg.SiteObs[Site][LabelIdx];
    for (uint32_t Pred : Runs.preds(RunIdx))
      ++Agg.PredTrue[Pred][LabelIdx];
  }
  return Agg;
}
