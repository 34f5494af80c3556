//===- core/InvertedIndex.cpp - Incremental aggregation engine ------------===//

#include "core/InvertedIndex.h"

#include "support/Parallel.h"

#include <algorithm>
#include <memory>

using namespace sbi;

InvertedIndex InvertedIndex::build(const RunProfiles &Runs, size_t Threads) {
  const uint32_t NumPreds = Runs.numPredicates();
  const size_t NumRuns = Runs.size();
  InvertedIndex Index;
  Index.NumSites = Runs.numSites();
  Index.NumRuns = NumRuns;

  // Below ~4k runs the thread spawn/join overhead dominates the scan.
  const size_t Workers = resolveThreadCount(Threads, NumRuns / 4096);
  const std::vector<size_t> Chunks = alignedChunks(NumRuns, Workers);

  // Counting pass: every chunk's label tallies. Their sum is the initial
  // counts, and each predicate's list takes its total in the run-id array.
  const ChunkTallies Tallies(Runs, Chunks);
  Index.InitialAgg = Tallies.total();
  Index.Offsets.resize(static_cast<size_t>(NumPreds) + 1);
  uint64_t Total = 0;
  for (uint32_t Pred = 0; Pred < NumPreds; ++Pred) {
    Index.Offsets[Pred] = Total;
    for (size_t W = 0; W < Workers; ++W)
      Total += Tallies.predTrue(W, Pred);
  }
  Index.Offsets[NumPreds] = Total;

  // Block B holds predicates [firstPred(B), firstPred(B + 1)), and its
  // region of RunIds is their lists'. Cursors[W][B] is where chunk W's
  // postings in block B start: after every earlier chunk's, so a region
  // lists its postings in run order.
  const size_t NumBlocks = (size_t(NumPreds) + BlockPreds - 1) / BlockPreds;
  auto firstPred = [&](size_t Block) {
    return static_cast<uint32_t>(
        std::min<size_t>(NumPreds, Block * BlockPreds));
  };
  std::vector<std::vector<uint64_t>> Cursors(
      Workers, std::vector<uint64_t>(NumBlocks));
  for (size_t Block = 0; Block < NumBlocks; ++Block) {
    uint64_t At = Index.Offsets[firstPred(Block)];
    for (size_t W = 0; W < Workers; ++W) {
      Cursors[W][Block] = At;
      for (uint32_t Pred = firstPred(Block); Pred < firstPred(Block + 1);
           ++Pred)
        At += Tallies.predTrue(W, Pred);
    }
  }

  // Partition pass: each worker appends its chunk's run ids to their
  // blocks' regions, and each posting's predicate offset within its block
  // to the same slot of a one-byte side array. Every worker writes only
  // the slots its cursors own.
  Index.RunIds = std::make_unique_for_overwrite<uint32_t[]>(Total);
  uint32_t *Ids = Index.RunIds.get();
  static_assert(BlockPreds <= 256, "block offsets are stored in one byte");
  const std::unique_ptr<uint8_t[]> InBlock =
      std::make_unique_for_overwrite<uint8_t[]>(Total);
  runWorkers(Workers, [&](size_t W) {
    uint64_t *Cursor = Cursors[W].data();
    for (size_t Run = Chunks[W]; Run < Chunks[W + 1]; ++Run)
      for (uint32_t Pred : Runs.preds(Run)) {
        const uint64_t At = Cursor[Pred / BlockPreds]++;
        Ids[At] = static_cast<uint32_t>(Run);
        InBlock[At] = static_cast<uint8_t>(Pred % BlockPreds);
      }
  });

  // Sort pass: a stable counting sort by predicate inside each block's
  // region, through a scratch copy small enough to stay in cache. Regions
  // are disjoint, so workers take contiguous block ranges of about equal
  // postings, and the result does not depend on how they are split.
  std::vector<size_t> FirstBlock(Workers + 1, NumBlocks);
  for (size_t W = 0, Block = 0; W < Workers; ++W) {
    while (Block < NumBlocks &&
           Index.Offsets[firstPred(Block)] < Total * W / Workers)
      ++Block;
    FirstBlock[W] = Block;
  }
  runWorkers(Workers, [&](size_t W) {
    std::vector<uint32_t> Scratch;
    for (size_t Block = FirstBlock[W]; Block < FirstBlock[W + 1]; ++Block) {
      const uint32_t First = firstPred(Block);
      const uint64_t Begin = Index.Offsets[First];
      const uint64_t Size = Index.Offsets[firstPred(Block + 1)] - Begin;
      uint64_t Cursor[BlockPreds] = {};
      for (uint32_t Pred = First; Pred < firstPred(Block + 1); ++Pred)
        Cursor[Pred - First] = Index.Offsets[Pred] - Begin;
      if (Scratch.size() < Size)
        Scratch.resize(Size);
      for (uint64_t I = Begin; I < Begin + Size; ++I)
        Scratch[Cursor[InBlock[I]]++] = Ids[I];
      std::copy(Scratch.begin(), Scratch.begin() + Size, Ids + Begin);
    }
  });
  return Index;
}

void DeltaAggregates::applyTotals(const std::vector<RunChange> &Changes,
                                  bool Relabel) {
  for (const RunChange &Change : Changes) {
    if (Change.Failed)
      --Agg.NumF;
    else
      --Agg.NumS;
    if (Relabel)
      ++Agg.NumS;
  }
}

void DeltaAggregates::apply(const std::vector<RunChange> &Changes,
                            bool Relabel, const IdRange &Range) {
  ChangeMarks *Mark = Marks ? &*Marks : nullptr;
  // Ids in [Begin, End) of one run's sorted list: a removal takes one from
  // the run's label, a relabeling moves one from failing to successful.
  // MarkBase places the ids in the marks' predicates-then-sites space.
  auto take = [&](IdSpan Ids, uint32_t Begin, uint32_t End,
                  std::vector<std::array<uint64_t, 2>> &Counts,
                  size_t LabelIdx, size_t MarkBase) {
    const uint32_t *First = std::lower_bound(Ids.begin(), Ids.end(), Begin);
    const uint32_t *Last = std::lower_bound(First, Ids.end(), End);
    for (const uint32_t *Id = First; Id != Last; ++Id) {
      --Counts[*Id][LabelIdx];
      if (Relabel)
        ++Counts[*Id][1];
      if (Mark)
        Mark->markId(MarkBase + *Id);
    }
  };
  for (const RunChange &Change : Changes) {
    const size_t LabelIdx = Change.Failed ? 0 : 1;
    take(Runs.sites(Change.Run), Range.SiteBegin, Range.SiteEnd, Agg.SiteObs,
         LabelIdx, Runs.numPredicates());
    take(Runs.preds(Change.Run), Range.PredBegin, Range.PredEnd,
         Agg.PredTrue, LabelIdx, 0);
  }
}
