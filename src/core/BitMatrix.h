//===- core/BitMatrix.h - Dense bit-matrix aggregation engine -------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third analysis engine (AnalysisEngine::Bitset): F(P)/S(P)/Context
/// counts and the elimination loop's per-iteration updates computed by
/// word-AND + popcount over dense (row x run) bit-matrices instead of
/// posting-list walks.
///
/// The population-level structure of the Section 3.4 loop makes a full
/// predicates x runs matrix unnecessary; two much smaller matrices carry
/// every count the loop can ever ask for:
///
///   * Policies (2)/(3) only ever discard or relabel *failing* runs, and a
///     relabeled run's contributions move F->S wholesale, so S(P) is
///     either frozen (policy 2) or derivable as S0(P) + (F0(P) - F(P))
///     (policy 3). Everything those policies need lives in the *initially
///     failing* column space: a predicate-row matrix (rows for every
///     predicate with F0 > 0) from which one row extraction + AND with the
///     active mask yields the discarded-run set, and a transposed matrix
///     (one bit-row per failing run over the predicate-then-site id space)
///     whose discarded rows are walked bit-by-bit to decrement the counts.
///     Per-iteration cost is therefore proportional to the *discarded
///     postings* — like the incremental engine's — but the walk is a
///     sequential word scan in ascending id order instead of posting-list
///     pointer chasing, and the initial scan is skipped entirely.
///
///   * Policy (1) discards successes too, but its candidate set is the
///     Increase-test survivors (typically ~1% of predicates, Section 3.1),
///     so a full-width matrix restricted to survivor rows (plus their
///     sites) stays small, and the per-iteration sweep (every row AND the
///     discarded-run mask, popcount the result) touches few rows.
///
/// Row-major matrices are runs-major: 64 runs per word, words grouped
/// into BitMatrix::BlockWords-word cache blocks with all rows of one
/// block contiguous, so policy (1)'s sweep streams sequentially through
/// one block-sized tile at a time.
///
/// BitsetIndex is the immutable, shareable build product (the analog of
/// InvertedIndex): the initial full-population aggregates, the survivor
/// list, and both matrices, built in parallel over run chunks. All
/// per-run() mutable state lives in BitsetState (the analog of
/// DeltaAggregates): live Aggregates plus the active-column masks,
/// updated by AND + popcount per selection. Counts are integers
/// throughout, so the engine is bit-identical to rescan and incremental —
/// the same contract the differential tests enforce.
///
/// For very sparse populations (dense cells >> postings) the word sweeps
/// do more work than posting walks; preferIncremental() is the density
/// heuristic CauseIsolator::run() consults to fall back to the
/// incremental engine.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_CORE_BITMATRIX_H
#define SBI_CORE_BITMATRIX_H

#include "core/Aggregator.h"
#include "feedback/RunProfiles.h"
#include "instrument/Sites.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace sbi {

/// Dense rows x columns bit matrix in cache-blocked, runs-major layout:
/// columns are grouped into blocks of BlockWords 64-bit words, and within
/// one block every row's words are contiguous. Word o of block B for row R
/// lives at Words[(B * NumRows + R) * BlockWords + o]; a plain column
/// bitvector (mask) indexes the same word as Mask[B * BlockWords + o].
class BitMatrix {
public:
  /// 8 words = 512 columns per block: one row's block slice is a cache
  /// line, and a 4k-row tile is ~256 KiB — streamed once per sweep.
  static constexpr size_t BlockWords = 8;
  static constexpr uint64_t BlockCols = BlockWords * 64;

  BitMatrix() = default;
  BitMatrix(uint32_t NumRows, uint64_t NumCols)
      : Rows(NumRows), Cols(NumCols),
        Blocks((NumCols + BlockCols - 1) / BlockCols),
        Words(static_cast<size_t>(Blocks) * NumRows * BlockWords) {}

  void set(uint32_t Row, uint64_t Col) {
    Words[wordIndex(Row, Col)] |= uint64_t(1) << (Col & 63);
  }
  bool test(uint32_t Row, uint64_t Col) const {
    return (Words[wordIndex(Row, Col)] >> (Col & 63)) & 1;
  }

  uint32_t numRows() const { return Rows; }
  uint64_t numCols() const { return Cols; }
  size_t numBlocks() const { return Blocks; }
  size_t bytes() const { return Words.size() * sizeof(uint64_t); }

  /// The BlockWords words of \p Row within \p Block.
  const uint64_t *blockRow(size_t Block, uint32_t Row) const {
    return Words.data() + (Block * Rows + Row) * BlockWords;
  }
  uint64_t *blockRow(size_t Block, uint32_t Row) {
    return Words.data() + (Block * Rows + Row) * BlockWords;
  }

private:
  size_t wordIndex(uint32_t Row, uint64_t Col) const {
    size_t Block = Col / BlockCols;
    size_t WordInBlock = (Col % BlockCols) / 64;
    return (Block * Rows + Row) * BlockWords + WordInBlock;
  }

  uint32_t Rows = 0;
  uint64_t Cols = 0;
  size_t Blocks = 0;
  std::vector<uint64_t> Words;
};

/// Immutable build product of the bitset engine over one run population.
/// Like InvertedIndex, it depends only on the population (not the policy),
/// is never mutated by run(), and can be shared across analyses via
/// AnalysisOptions::SharedBitset.
class BitsetIndex {
public:
  /// Builds over \p Runs: one parallel counting pass (the initial
  /// full-population aggregation, ChunkTallies as in the inverted index's
  /// build), then one parallel bit-setting pass per matrix. Run chunks are aligned to 64-column boundaries so workers
  /// own disjoint words; any \p Threads value (0 = one per hardware
  /// thread) yields bit-identical matrices.
  static BitsetIndex build(const RunProfiles &Runs, const SiteTable &Sites,
                           size_t Threads = 0);

  /// Counts over the full population — exactly what Aggregates::compute
  /// returns for RunView::allOf(Runs); computed once at build, so every
  /// policy's run() starts from it without rescanning.
  const Aggregates &initialAggregates() const { return InitialAgg; }

  /// Predicates passing the Increase test over the full population, in id
  /// order (the policy-1 candidate set and every engine's PrunedSurvivors).
  const std::vector<uint32_t> &survivors() const { return Survivors; }

  uint32_t numPredicates() const {
    return static_cast<uint32_t>(PredFailRow.size());
  }
  uint32_t numSites() const { return NumSites; }
  uint64_t numRuns() const { return NumRuns; }
  uint64_t numFailing() const { return NumFailing0; }

  /// Resident bytes of all matrices (for memory accounting in benches).
  size_t matrixBytes() const {
    return FailM.bytes() + FailT.size() * sizeof(uint64_t) + FullM.bytes();
  }

  /// The density heuristic: true when the population is so sparse that
  /// word sweeps would do far more work than posting walks, i.e. the
  /// engine dispatch should fall back to the incremental engine.
  /// \p MinDensity is the posting fill fraction below which dense loses
  /// (AnalysisOptions::BitsetMinDensity); tiny matrices never fall back.
  static bool preferIncremental(const RunProfiles &Runs, double MinDensity);

private:
  friend class BitsetState;

  static constexpr uint32_t NoRow = UINT32_MAX;

  Aggregates InitialAgg{0, 0};
  std::vector<uint32_t> Survivors;

  /// Failing-column predicate matrix (policies 2/3): columns are the
  /// initially failing runs in run order; one row per predicate with
  /// F0 > 0. Only ever read one row at a time — the selected predicate's —
  /// to form the discarded-run mask.
  BitMatrix FailM;
  std::vector<uint32_t> PredFailRow; ///< pred id -> row, NoRow if absent.

  /// Transpose over the same columns: one plain row-major bit-row per
  /// initially failing run, FailTRowWords words wide, over the virtual id
  /// space [0, numPredicates) predicates then [numPredicates, +numSites)
  /// sites. Discarding/relabeling a run walks its row's set bits.
  std::vector<uint64_t> FailT;
  size_t FailTRowWords = 0;

  /// Full-width matrix (policy 1): columns are all runs; rows are the
  /// Increase survivors followed by their sites.
  BitMatrix FullM;
  std::vector<uint32_t> PredFullRow;
  std::vector<uint32_t> SiteFullRow;
  std::vector<uint32_t> FullRowId;
  uint32_t FullPredRows = 0;

  /// Initially-failing runs as a full-column-space bitvector (policy 1
  /// splits discarded runs into F/S by this static label mask).
  std::vector<uint64_t> Fail0Mask;

  uint64_t NumRuns = 0;
  uint64_t NumFailing0 = 0;
  uint32_t NumSites = 0;
};

/// Mutable per-run() state of the bitset engine (the analog of
/// DeltaAggregates): live Aggregates plus the active-column masks. The
/// current counts are always exactly what Aggregates::compute would return
/// for the equivalently mutated RunView. With \p TrackChanges, every site
/// and predicate whose counts a policy changes is also marked in
/// changes().
class BitsetState {
public:
  BitsetState(const BitsetIndex &Index, size_t Threads = 0,
              bool TrackChanges = false);

  /// The live counts, interface-compatible with a fresh full scan.
  const Aggregates &aggregates() const { return Agg; }

  /// The sites and predicates whose counts changed since they were last
  /// cleared: under policies (2)/(3) the set bits of the discarded runs'
  /// transposed rows, under policy (1) the survivor-matrix rows with a
  /// nonzero delta. Null unless constructed with TrackChanges.
  const ChangeMarks *changes() const { return Marks ? &*Marks : nullptr; }
  void clearChanges(const IdRange &Range) {
    if (Marks)
      Marks->clear(Range);
  }

  /// The three Section 5 policies, applied for selected predicate \p Pred:
  /// each computes the discarded-run set by AND-ing the predicate's row
  /// with the active mask and clears those columns. Policy (1) folds every
  /// survivor row's intersection with the mask into the live counts via
  /// popcount; policies (2)/(3) walk the discarded runs' transposed
  /// bit-rows. Each returns the number of runs discarded (or relabeled) —
  /// identical to the other engines' counts.
  uint64_t discardCoveredRuns(uint32_t Pred);  ///< Proposal (1).
  uint64_t discardFailingRuns(uint32_t Pred);  ///< Proposal (2).
  uint64_t relabelFailingRuns(uint32_t Pred);  ///< Proposal (3).

private:
  uint64_t applyFailingOnly(uint32_t Pred, bool Relabel);

  /// Accumulates popcount(row & DMaskF) and popcount(row & DMaskS) into
  /// RowDeltaF/RowDeltaS for every row of \p M (the full-width survivor
  /// matrix), visiting only dirty blocks; parallel over row ranges when
  /// the sweep is large enough to pay for the threads.
  void sweepRows(const BitMatrix &M, bool WithSuccess);

  const BitsetIndex &Index;
  size_t Threads;
  Aggregates Agg;
  std::optional<ChangeMarks> Marks;

  std::vector<uint64_t> ActiveFail; ///< Failing-column space (policies 2/3).
  std::vector<uint64_t> ActiveAll;  ///< Full-column space (policy 1).

  // Per-applyPolicy scratch, sized once.
  std::vector<uint64_t> DMaskF;
  std::vector<uint64_t> DMaskS;
  std::vector<uint32_t> DirtyBlocks;
  std::vector<uint64_t> RowDeltaF;
  std::vector<uint64_t> RowDeltaS;
  std::vector<uint32_t> DiscardedCols;
};

} // namespace sbi

#endif // SBI_CORE_BITMATRIX_H
