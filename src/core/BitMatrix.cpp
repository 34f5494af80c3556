//===- core/BitMatrix.cpp - Dense bit-matrix aggregation engine -----------===//

#include "core/BitMatrix.h"

#include "support/Bits.h"
#include "support/Parallel.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace sbi;

namespace {

constexpr size_t BW = BitMatrix::BlockWords;

/// All-ones bitvector over \p Cols columns, padded with zero bits to
/// \p NumWords words (the matrix word space, a whole number of blocks).
std::vector<uint64_t> onesMask(uint64_t Cols, size_t NumWords) {
  std::vector<uint64_t> Mask(NumWords, 0);
  for (uint64_t W = 0; W < Cols / 64; ++W)
    Mask[W] = ~uint64_t(0);
  if (Cols % 64)
    Mask[Cols / 64] = (uint64_t(1) << (Cols % 64)) - 1;
  return Mask;
}

// --- The sweep kernel -------------------------------------------------------
// The engine's hot loop: for a row range, AND each dirty block's row words
// with the discard mask and accumulate popcounts into per-row deltas. The
// build carries no -march flags, so popcount64 is a SWAR reduction — but
// nearly every x86-64 made since 2008 has the POPCNT instruction, worth
// ~4x here. The kernel is therefore compiled twice, once baseline and
// once with target("popcnt"), and dispatched once per process; both
// variants compute identical integers, so bit-identity is unaffected.

struct SweepArgs {
  const BitMatrix *M;
  const std::vector<uint32_t> *DirtyBlocks;
  const uint64_t *DMaskF;
  const uint64_t *DMaskS;
  uint64_t *RowDeltaF;
  uint64_t *RowDeltaS;
  bool WithSuccess;
};

#define SBI_SWEEP_BODY(POP)                                                  \
  for (uint32_t Block : *A.DirtyBlocks) {                                    \
    const uint64_t *MF = A.DMaskF + size_t(Block) * BW;                      \
    const uint64_t *MS = A.DMaskS + size_t(Block) * BW;                      \
    for (uint32_t Row = RowBegin; Row < RowEnd; ++Row) {                     \
      const uint64_t *R = A.M->blockRow(Block, Row);                         \
      uint64_t DF = 0;                                                       \
      for (size_t O = 0; O < BW; ++O)                                        \
        DF += static_cast<uint64_t>(POP(R[O] & MF[O]));                      \
      A.RowDeltaF[Row] += DF;                                                \
      if (A.WithSuccess) {                                                   \
        uint64_t DS = 0;                                                     \
        for (size_t O = 0; O < BW; ++O)                                      \
          DS += static_cast<uint64_t>(POP(R[O] & MS[O]));                    \
        A.RowDeltaS[Row] += DS;                                              \
      }                                                                      \
    }                                                                        \
  }

void sweepRangeGeneric(const SweepArgs &A, uint32_t RowBegin,
                       uint32_t RowEnd) {
  SBI_SWEEP_BODY(popcount64)
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) &&      \
    !defined(__POPCNT__)
#define SBI_DISPATCH_POPCNT 1
__attribute__((target("popcnt"))) void
sweepRangePopcnt(const SweepArgs &A, uint32_t RowBegin, uint32_t RowEnd) {
  SBI_SWEEP_BODY(__builtin_popcountll)
}
#endif

#undef SBI_SWEEP_BODY

using SweepFn = void (*)(const SweepArgs &, uint32_t, uint32_t);

SweepFn resolveSweepKernel() {
#ifdef SBI_DISPATCH_POPCNT
  if (__builtin_cpu_supports("popcnt"))
    return sweepRangePopcnt;
#endif
  return sweepRangeGeneric;
}

const SweepFn SweepKernel = resolveSweepKernel();

} // namespace

BitsetIndex BitsetIndex::build(const RunProfiles &Runs,
                               const SiteTable &Sites, size_t Threads) {
  assert(Sites.numPredicates() == Runs.numPredicates() &&
         "run profiles do not match the site table");
  const uint32_t NumPreds = Runs.numPredicates();
  const uint32_t NumSites = Runs.numSites();
  const size_t NumRuns = Runs.size();

  BitsetIndex Index;
  Index.NumRuns = NumRuns;

  // Below ~4k runs the thread spawn/join overhead dominates each pass.
  const size_t Workers = resolveThreadCount(Threads, NumRuns / 4096);

  // --- Pass 1: the initial full-population aggregation -------------------
  // The counting pass the inverted index also starts with: chunk tallies
  // summed after the join, so any worker count yields the exact
  // Aggregates::compute result.
  Index.InitialAgg =
      ChunkTallies(Runs, alignedChunks(NumRuns, Workers)).total();
  Index.NumFailing0 = Index.InitialAgg.numFailing();

  // --- Row spaces ---------------------------------------------------------
  // Failing-column predicate rows: every predicate that was ever true in a
  // failing run. Full-width rows: the Increase survivors (the policy-1
  // candidate set) plus their sites.
  Index.NumSites = NumSites;
  Index.PredFailRow.assign(NumPreds, NoRow);
  Index.PredFullRow.assign(NumPreds, NoRow);
  Index.SiteFullRow.assign(NumSites, NoRow);

  uint32_t FailPredRows = 0;
  for (uint32_t Pred = 0; Pred < NumPreds; ++Pred) {
    if (Index.InitialAgg.counts(Pred, Sites).F > 0)
      Index.PredFailRow[Pred] = FailPredRows++;
    if (Index.InitialAgg.scores(Pred, Sites).survivesIncreaseTest())
      Index.Survivors.push_back(Pred);
  }

  for (uint32_t Pred : Index.Survivors) {
    Index.PredFullRow[Pred] = static_cast<uint32_t>(Index.FullRowId.size());
    Index.FullRowId.push_back(Pred);
  }
  Index.FullPredRows = static_cast<uint32_t>(Index.FullRowId.size());
  {
    std::vector<uint32_t> SurvivorSites;
    for (uint32_t Pred : Index.Survivors)
      SurvivorSites.push_back(Sites.predicate(Pred).Site);
    std::sort(SurvivorSites.begin(), SurvivorSites.end());
    SurvivorSites.erase(
        std::unique(SurvivorSites.begin(), SurvivorSites.end()),
        SurvivorSites.end());
    for (uint32_t Site : SurvivorSites) {
      Index.SiteFullRow[Site] = static_cast<uint32_t>(Index.FullRowId.size());
      Index.FullRowId.push_back(Site);
    }
  }

  // --- Failing-run column order and the static label mask ----------------
  std::vector<uint32_t> FailingRuns;
  FailingRuns.reserve(Index.NumFailing0);
  for (size_t Run = 0; Run < NumRuns; ++Run)
    if (Runs.failed(Run))
      FailingRuns.push_back(static_cast<uint32_t>(Run));

  Index.FullM = BitMatrix(static_cast<uint32_t>(Index.FullRowId.size()),
                          NumRuns);
  Index.FailM = BitMatrix(FailPredRows, FailingRuns.size());
  Index.FailTRowWords = (size_t(NumPreds) + NumSites + 63) / 64;
  Index.FailT.assign(FailingRuns.size() * Index.FailTRowWords, 0);
  Index.Fail0Mask.assign(Index.FullM.numBlocks() * BW, 0);
  for (size_t Col = 0; Col < FailingRuns.size(); ++Col) {
    uint64_t Run = FailingRuns[Col];
    size_t Block = Run / BitMatrix::BlockCols;
    size_t Word = (Run % BitMatrix::BlockCols) / 64;
    Index.Fail0Mask[Block * BW + Word] |= uint64_t(1) << (Run & 63);
  }

  // --- Pass 2: full-width survivor rows -----------------------------------
  // 64-aligned run chunks own disjoint words; row lookups filter to the
  // survivor rows. Skipped entirely when nothing survives pruning.
  auto fillFull = [&](size_t Begin, size_t End) {
    for (size_t Run = Begin; Run < End; ++Run) {
      for (uint32_t Site : Runs.sites(Run))
        if (uint32_t Row = Index.SiteFullRow[Site]; Row != NoRow)
          Index.FullM.set(Row, Run);
      for (uint32_t Pred : Runs.preds(Run))
        if (uint32_t Row = Index.PredFullRow[Pred]; Row != NoRow)
          Index.FullM.set(Row, Run);
    }
  };
  // --- Pass 3: failing-column structures ----------------------------------
  // Chunked over the failing-run list, so the predicate matrix's
  // 64-alignment is in *column* (failing-rank) space; the transpose's rows
  // are whole per-column, disjoint under any chunking. Predicate rows are
  // always present: a true posting of a failing run implies F0 > 0.
  auto fillFail = [&](size_t Begin, size_t End) {
    for (size_t Col = Begin; Col < End; ++Col) {
      size_t Run = FailingRuns[Col];
      uint64_t *RowT = Index.FailT.data() + Col * Index.FailTRowWords;
      for (uint32_t Site : Runs.sites(Run)) {
        size_t Id = size_t(NumPreds) + Site;
        RowT[Id / 64] |= uint64_t(1) << (Id & 63);
      }
      for (uint32_t Pred : Runs.preds(Run)) {
        Index.FailM.set(Index.PredFailRow[Pred], Col);
        RowT[Pred / 64] |= uint64_t(1) << (Pred & 63);
      }
    }
  };

  // 64-aligned chunks of each pass's items: workers own disjoint words.
  auto runChunked = [&](size_t NumItems, const auto &Fill) {
    const std::vector<size_t> Bounds = alignedChunks(NumItems, Workers);
    runWorkers(Workers, [&](size_t W) { Fill(Bounds[W], Bounds[W + 1]); });
  };
  runChunked(NumRuns, fillFull);
  runChunked(FailingRuns.size(), fillFail);
  return Index;
}

bool BitsetIndex::preferIncremental(const RunProfiles &Runs,
                                    double MinDensity) {
  const uint64_t Rows =
      uint64_t(Runs.numPredicates()) + uint64_t(Runs.numSites());
  const uint64_t NumRuns = Runs.size();
  if (Rows == 0 || NumRuns == 0)
    return false;
  // Tiny matrices are cheap either way — never fall back below 1 MiB of
  // failing-column matrix, so small campaigns always exercise the bitset
  // path when asked for it.
  const uint64_t FailWords = Rows * ((Runs.numFailing() + 63) / 64);
  if (FailWords * sizeof(uint64_t) < (uint64_t(1) << 20))
    return false;
  const double Density = static_cast<double>(Runs.numPostings()) /
                         (static_cast<double>(Rows) *
                          static_cast<double>(NumRuns));
  return Density < MinDensity;
}

// --- BitsetState ----------------------------------------------------------

BitsetState::BitsetState(const BitsetIndex &Index, size_t Threads,
                         bool TrackChanges)
    : Index(Index), Threads(Threads), Agg(Index.InitialAgg),
      ActiveFail(onesMask(Index.FailM.numCols(),
                          Index.FailM.numBlocks() * BW)),
      ActiveAll(onesMask(Index.FullM.numCols(),
                         Index.FullM.numBlocks() * BW)) {
  DMaskF.resize(ActiveAll.size());
  DMaskS.resize(ActiveAll.size());
  RowDeltaF.resize(Index.FullM.numRows());
  RowDeltaS.resize(Index.FullM.numRows());
  if (TrackChanges)
    Marks.emplace(Index.NumSites, Index.numPredicates());
}

void BitsetState::sweepRows(const BitMatrix &M, bool WithSuccess) {
  const uint32_t NumRows = M.numRows();
  std::fill(RowDeltaF.begin(), RowDeltaF.begin() + NumRows, 0);
  if (WithSuccess)
    std::fill(RowDeltaS.begin(), RowDeltaS.begin() + NumRows, 0);

  const SweepArgs Args{&M,
                       &DirtyBlocks,
                       DMaskF.data(),
                       DMaskS.data(),
                       RowDeltaF.data(),
                       RowDeltaS.data(),
                       WithSuccess};

  // One worker per ~2M swept words; below that the spawn/join overhead
  // exceeds the sweep itself.
  const size_t Work = DirtyBlocks.size() * BW * NumRows;
  const size_t Workers = resolveThreadCount(Threads, Work >> 21);
  const uint32_t PerWorker =
      static_cast<uint32_t>((NumRows + Workers - 1) / Workers);
  runWorkers(Workers, [&](size_t W) {
    const uint32_t Begin =
        std::min(NumRows, static_cast<uint32_t>(W) * PerWorker);
    SweepKernel(Args, Begin, std::min(NumRows, Begin + PerWorker));
  });
}

uint64_t BitsetState::discardCoveredRuns(uint32_t Pred) {
  const uint32_t Row = Index.PredFullRow[Pred];
  if (Row == BitsetIndex::NoRow) {
    std::fprintf(stderr,
                 "sbi: BitsetState: predicate %u selected under policy (1) "
                 "but absent from the survivor matrix\n",
                 Pred);
    std::abort();
  }
  const BitMatrix &M = Index.FullM;
  DirtyBlocks.clear();
  uint64_t TotF = 0, TotS = 0;
  for (size_t Block = 0; Block < M.numBlocks(); ++Block) {
    const uint64_t *R = M.blockRow(Block, Row);
    uint64_t *A = ActiveAll.data() + Block * BW;
    const uint64_t *L = Index.Fail0Mask.data() + Block * BW;
    uint64_t Nz = 0;
    for (size_t O = 0; O < BW; ++O) {
      uint64_t D = R[O] & A[O];
      DMaskF[Block * BW + O] = D & L[O];
      DMaskS[Block * BW + O] = D & ~L[O];
      A[O] &= ~D;
      TotF += static_cast<uint64_t>(popcount64(D & L[O]));
      TotS += static_cast<uint64_t>(popcount64(D & ~L[O]));
      Nz |= D;
    }
    if (Nz)
      DirtyBlocks.push_back(static_cast<uint32_t>(Block));
  }
  if (TotF + TotS == 0)
    return 0;

  sweepRows(M, /*WithSuccess=*/true);
  for (uint32_t R = 0; R < M.numRows(); ++R) {
    uint64_t DF = RowDeltaF[R], DS = RowDeltaS[R];
    if (DF == 0 && DS == 0)
      continue;
    uint32_t Id = Index.FullRowId[R];
    if (R < Index.FullPredRows) {
      Agg.PredTrue[Id][0] -= DF;
      Agg.PredTrue[Id][1] -= DS;
      if (Marks)
        Marks->markPred(Id);
    } else {
      Agg.SiteObs[Id][0] -= DF;
      Agg.SiteObs[Id][1] -= DS;
      if (Marks)
        Marks->markSite(Id);
    }
  }
  Agg.NumF -= TotF;
  Agg.NumS -= TotS;
  return TotF + TotS;
}

uint64_t BitsetState::applyFailingOnly(uint32_t Pred, bool Relabel) {
  const uint32_t Row = Index.PredFailRow[Pred];
  if (Row == BitsetIndex::NoRow) {
    std::fprintf(stderr,
                 "sbi: BitsetState: predicate %u selected but never true "
                 "in a failing run\n",
                 Pred);
    std::abort();
  }
  // The discarded set: the selected predicate's failing-column row AND the
  // still-active columns, cleared from the mask and expanded to a column
  // (failing-rank) list.
  const BitMatrix &M = Index.FailM;
  DiscardedCols.clear();
  for (size_t Block = 0; Block < M.numBlocks(); ++Block) {
    const uint64_t *R = M.blockRow(Block, Row);
    uint64_t *A = ActiveFail.data() + Block * BW;
    for (size_t O = 0; O < BW; ++O) {
      uint64_t D = R[O] & A[O];
      if (!D)
        continue;
      A[O] &= ~D;
      const uint32_t Base =
          static_cast<uint32_t>(Block * BitMatrix::BlockCols + O * 64);
      while (D) {
        DiscardedCols.push_back(Base +
                                static_cast<uint32_t>(countr_zero64(D)));
        D &= D - 1;
      }
    }
  }
  const uint64_t Discarded = DiscardedCols.size();
  if (Discarded == 0)
    return 0;

  // Walk each discarded run's transposed bit-row: per-iteration work is
  // proportional to the discarded postings, and the set-bit scan
  // decrements counts in ascending id order. The row's id space is the
  // change marks'.
  const uint32_t NumPreds = static_cast<uint32_t>(Index.PredFailRow.size());
  const size_t RW = Index.FailTRowWords;
  for (uint32_t Col : DiscardedCols) {
    const uint64_t *RowT = Index.FailT.data() + size_t(Col) * RW;
    for (size_t W = 0; W < RW; ++W) {
      uint64_t Bits = RowT[W];
      while (Bits) {
        const uint32_t Id = static_cast<uint32_t>(W * 64) +
                            static_cast<uint32_t>(countr_zero64(Bits));
        Bits &= Bits - 1;
        if (Marks)
          Marks->markId(Id);
        auto &Counts = Id < NumPreds ? Agg.PredTrue[Id]
                                     : Agg.SiteObs[Id - NumPreds];
        Counts[0] -= 1;
        if (Relabel)
          Counts[1] += 1;
      }
    }
  }
  Agg.NumF -= Discarded;
  if (Relabel)
    Agg.NumS += Discarded;
  return Discarded;
}

uint64_t BitsetState::discardFailingRuns(uint32_t Pred) {
  return applyFailingOnly(Pred, /*Relabel=*/false);
}

uint64_t BitsetState::relabelFailingRuns(uint32_t Pred) {
  return applyFailingOnly(Pred, /*Relabel=*/true);
}
