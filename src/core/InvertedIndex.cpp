//===- core/InvertedIndex.cpp - Incremental aggregation engine ------------===//

#include "core/InvertedIndex.h"

#include "support/Parallel.h"

#include <algorithm>
#include <thread>

using namespace sbi;

InvertedIndex InvertedIndex::build(const RunProfiles &Runs, size_t Threads) {
  const uint32_t NumPreds = Runs.numPredicates();
  const size_t NumRuns = Runs.size();
  InvertedIndex Index;
  Index.NumSites = Runs.numSites();
  Index.NumRuns = NumRuns;
  Index.Offsets.resize(static_cast<size_t>(NumPreds) + 1);

  // Below ~4k runs the thread spawn/join overhead dominates the scan.
  const size_t Workers = resolveThreadCount(Threads, NumRuns / 4096);
  const size_t ChunkSize = (NumRuns + Workers - 1) / Workers;
  // Runs \p Pass(W, Begin, End) over chunk W = [Begin, End) for every
  // chunk, one thread per chunk (inline when there is only one).
  auto forEachChunk = [&](const auto &Pass) {
    auto chunk = [&](size_t W) {
      Pass(W, std::min(NumRuns, W * ChunkSize),
           std::min(NumRuns, (W + 1) * ChunkSize));
    };
    if (Workers <= 1) {
      chunk(0);
      return;
    }
    std::vector<std::thread> Pool;
    Pool.reserve(Workers);
    for (size_t W = 0; W < Workers; ++W)
      Pool.emplace_back(chunk, W);
    for (std::thread &Worker : Pool)
      Worker.join();
  };

  // Count pass: Cursors[W][P] = how many of chunk W's runs have R(P) = 1.
  std::vector<std::vector<uint64_t>> Cursors(Workers);
  forEachChunk([&](size_t W, size_t Begin, size_t End) {
    std::vector<uint64_t> &Count = Cursors[W];
    Count.assign(NumPreds, 0);
    for (size_t Run = Begin; Run < End; ++Run)
      for (uint32_t Pred : Runs.preds(Run))
        ++Count[Pred];
  });

  // Prefix sum in (predicate, chunk) order: P's list starts at Offsets[P],
  // and chunk W's runs of P start at the cursor that replaces its count, so
  // the chunks land one after another in run order.
  uint64_t Total = 0;
  for (uint32_t Pred = 0; Pred < NumPreds; ++Pred) {
    Index.Offsets[Pred] = Total;
    for (std::vector<uint64_t> &Cursor : Cursors) {
      const uint64_t Count = Cursor[Pred];
      Cursor[Pred] = Total;
      Total += Count;
    }
  }
  Index.Offsets[NumPreds] = Total;

  // Scatter pass: every worker writes only the slots its cursors own.
  Index.RunIds.resize(Total);
  uint32_t *Out = Index.RunIds.data();
  forEachChunk([&](size_t W, size_t Begin, size_t End) {
    std::vector<uint64_t> &Cursor = Cursors[W];
    for (size_t Run = Begin; Run < End; ++Run)
      for (uint32_t Pred : Runs.preds(Run))
        Out[Cursor[Pred]++] = static_cast<uint32_t>(Run);
  });
  return Index;
}

void DeltaAggregates::removeRun(size_t Run, bool Failed) {
  const size_t LabelIdx = Failed ? 0 : 1;
  if (Failed)
    --Agg.NumF;
  else
    --Agg.NumS;
  for (uint32_t Site : Runs.sites(Run))
    --Agg.SiteObs[Site][LabelIdx];
  for (uint32_t Pred : Runs.preds(Run))
    --Agg.PredTrue[Pred][LabelIdx];
  markRun(Run);
}

void DeltaAggregates::relabelRunAsSuccess(size_t Run) {
  --Agg.NumF;
  ++Agg.NumS;
  for (uint32_t Site : Runs.sites(Run)) {
    --Agg.SiteObs[Site][0];
    ++Agg.SiteObs[Site][1];
  }
  for (uint32_t Pred : Runs.preds(Run)) {
    --Agg.PredTrue[Pred][0];
    ++Agg.PredTrue[Pred][1];
  }
  markRun(Run);
}

void DeltaAggregates::markRun(size_t Run) {
  if (!Marks)
    return;
  for (uint32_t Site : Runs.sites(Run))
    Marks->markSite(Site);
  for (uint32_t Pred : Runs.preds(Run))
    Marks->markPred(Pred);
}
