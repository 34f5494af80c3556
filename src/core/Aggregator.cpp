//===- core/Aggregator.cpp - Count aggregation over run populations -------===//

#include "core/Aggregator.h"

#include "support/Parallel.h"

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

ChunkTallies::ChunkTallies(const RunProfiles &Runs,
                           const std::vector<size_t> &Bounds)
    : NumSites(Runs.numSites()), NumPreds(Runs.numPredicates()),
      Chunks(Bounds.size() - 1) {
  runWorkers(Chunks.size(), [&](size_t W) {
    Chunk &Local = Chunks[W];
    Local.Counts.assign(size_t(NumPreds) + NumSites, {0, 0});
    std::array<uint32_t, 2> *Preds = Local.Counts.data();
    std::array<uint32_t, 2> *Sites = Preds + NumPreds;
    for (size_t Run = Bounds[W]; Run < Bounds[W + 1]; ++Run) {
      const size_t LabelIdx = Runs.failed(Run) ? 0 : 1;
      ++(LabelIdx == 0 ? Local.NumF : Local.NumS);
      for (uint32_t Site : Runs.sites(Run))
        ++Sites[Site][LabelIdx];
      for (uint32_t Pred : Runs.preds(Run))
        ++Preds[Pred][LabelIdx];
    }
  });
}

Aggregates ChunkTallies::total() const {
  Aggregates Agg(NumSites, NumPreds);
  for (const Chunk &Local : Chunks) {
    Agg.NumF += Local.NumF;
    Agg.NumS += Local.NumS;
    for (uint32_t Pred = 0; Pred < NumPreds; ++Pred) {
      Agg.PredTrue[Pred][0] += Local.Counts[Pred][0];
      Agg.PredTrue[Pred][1] += Local.Counts[Pred][1];
    }
    for (uint32_t Site = 0; Site < NumSites; ++Site) {
      Agg.SiteObs[Site][0] += Local.Counts[NumPreds + Site][0];
      Agg.SiteObs[Site][1] += Local.Counts[NumPreds + Site][1];
    }
  }
  return Agg;
}

std::vector<IdRange> sbi::siteAlignedSlices(const SiteTable &Sites,
                                            uint32_t MinPreds) {
  const uint32_t NumPreds = Sites.numPredicates();
  const uint32_t NumSites = Sites.numSites();
  std::vector<IdRange> Slices;
  IdRange Open = IdRange::all(NumSites, NumPreds);
  for (uint32_t Site = 0; Site < NumSites; ++Site) {
    const uint32_t Cut = Sites.site(Site).FirstPredicate;
    if (Cut - Open.PredBegin < MinPreds ||
        2 * uint64_t(NumPreds - Cut) < MinPreds)
      continue;
    Open.PredEnd = Cut;
    Open.SiteEnd = Site;
    Slices.push_back(Open);
    Open = {Cut, NumPreds, Site, NumSites};
  }
  Slices.push_back(Open);
  return Slices;
}
