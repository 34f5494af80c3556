//===- core/Aggregator.cpp - Count aggregation over run populations -------===//

#include "core/Aggregator.h"

#include <cstdio>
#include <cstdlib>

using namespace sbi;

RunView RunView::allOf(const ReportSet &Set) {
  RunView View;
  View.Active.assign(Set.size(), 1);
  View.Failed.resize(Set.size());
  for (size_t I = 0; I < Set.size(); ++I)
    View.Failed[I] = Set[I].Failed ? 1 : 0;
  return View;
}

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

Aggregates Aggregates::compute(const ReportSet &Set, const RunView &View) {
  // A mismatched view would read out of bounds below, so the check must
  // survive NDEBUG builds (the default RelWithDebInfo configuration strips
  // asserts), rather than relying on callers to get it right.
  if (View.Active.size() != Set.size() || View.Failed.size() != Set.size()) {
    std::fprintf(stderr,
                 "sbi: Aggregates::compute: run view (%zu active / %zu "
                 "failed labels) does not match report set (%zu runs)\n",
                 View.Active.size(), View.Failed.size(), Set.size());
    std::abort();
  }
  Aggregates Agg(Set.numSites(), Set.numPredicates());

  for (size_t RunIdx = 0; RunIdx < Set.size(); ++RunIdx) {
    if (!View.Active[RunIdx])
      continue;
    const FeedbackReport &Report = Set[RunIdx];
    size_t LabelIdx = View.Failed[RunIdx] ? 0 : 1;
    if (View.Failed[RunIdx])
      ++Agg.NumF;
    else
      ++Agg.NumS;

    for (const auto &[Site, Count] : Report.Counts.SiteObservations)
      if (Count > 0)
        ++Agg.SiteObs[Site][LabelIdx];
    for (const auto &[Pred, Count] : Report.Counts.TruePredicates)
      if (Count > 0)
        ++Agg.PredTrue[Pred][LabelIdx];
  }
  return Agg;
}

Aggregates Aggregates::compute(const RunProfiles &Runs, const RunView &View) {
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
