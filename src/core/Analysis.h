//===- core/Analysis.h - The cause-isolation algorithm --------------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full Section 3 pipeline:
///
///   1. Pruning: discard every predicate whose 95% interval on Increase(P)
///      does not lie strictly above zero. This typically removes ~99% of
///      predicates.
///   2. Iterative redundancy elimination (Section 3.4): rank survivors by
///      Importance, select the top predicate, discard the runs it explains
///      (per one of the three Section 5 policies), and repeat. Lemma 3.1:
///      every bug whose profile intersects the selected predicates' covered
///      runs retains at least one predictor on the output list.
///   3. Affinity lists: for each selected predicate P, how much each other
///      predicate's Importance dropped when P's runs were removed — large
///      drops mean "probably the same bug".
///
//===----------------------------------------------------------------------===//

#ifndef SBI_CORE_ANALYSIS_H
#define SBI_CORE_ANALYSIS_H

#include "core/Aggregator.h"
#include "core/Scores.h"
#include "feedback/Report.h"
#include "feedback/RunProfiles.h"
#include "instrument/Sites.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace sbi {

class InvertedIndex;
class BitsetIndex;
class BitsetState;

/// The three run-discarding proposals of Section 5.
enum class DiscardPolicy {
  DiscardAllRuns,     ///< (1) Remove every run with R(P) = 1 (the default).
  DiscardFailingRuns, ///< (2) Remove only failing runs with R(P) = 1.
  RelabelFailingRuns, ///< (3) Relabel failing runs with R(P) = 1 as passes.
};

const char *discardPolicyName(DiscardPolicy Policy);

/// How run() re-aggregates counts after each selection.
enum class AnalysisEngine {
  Rescan,      ///< Full population scan per iteration (reference).
  Incremental, ///< Inverted index + delta-updated counts (default).
  Bitset,      ///< Dense bit-matrices, word-AND + popcount per iteration.
};

const char *analysisEngineName(AnalysisEngine Engine);

struct AnalysisOptions {
  DiscardPolicy Policy = DiscardPolicy::DiscardAllRuns;
  /// All engines produce bit-identical AnalysisResults (differential
  /// tested); Rescan survives as the reference implementation.
  AnalysisEngine Engine = AnalysisEngine::Incremental;
  /// Hard cap on elimination iterations (each selects one predicate).
  int MaxSelections = 60;
  /// How many affinity entries to keep per selected predicate; zero or
  /// less keeps none.
  int AffinityTopK = 10;
  /// Worker threads for the live engines: the one-time inverted-index or
  /// bit-matrix build, the bitset engine's large row sweeps, and the
  /// elimination loop, whose discard and scoring run as one round per
  /// selection over the population's site-aligned slices
  /// (CauseIsolator::SlicePreds) on a team of at most one worker per
  /// slice; 0 means one per hardware thread. Results and the elimination
  /// work counters are the same at any value. Irrelevant under
  /// AnalysisEngine::Rescan.
  size_t IndexThreads = 0;
  /// Optional prebuilt index over the same run population, letting callers
  /// that analyze one population repeatedly (e.g. once per policy) pay the
  /// build once. The index carries the population's initial counts too,
  /// so every run() over it starts without a scan, as with SharedBitset.
  /// It is immutable — all per-run() mutable state lives in
  /// DeltaAggregates, which copies those counts — and must outlive the
  /// isolator; run() aborts if its run, site or predicate count differs
  /// from the population's. When null the incremental engine builds its
  /// own.
  const InvertedIndex *SharedIndex = nullptr;
  /// The bitset-engine analog of SharedIndex: a prebuilt BitsetIndex over
  /// the same run population (immutable; mutable state lives in
  /// BitsetState). Passing one also pins the engine — the density fallback
  /// below is skipped, since the build is already paid for.
  const BitsetIndex *SharedBitset = nullptr;
  /// Posting fill fraction below which AnalysisEngine::Bitset falls back
  /// to the incremental engine (dense word sweeps would outweigh posting
  /// walks); see BitsetIndex::preferIncremental.
  double BitsetMinDensity = 1.0 / 256;
};

/// One ranked predicate with its scores over some run population.
struct RankedPredicate {
  uint32_t Pred = 0;
  PredicateScores Scores;
  double Importance = 0.0;
  ScoreInterval ImportanceCI;
};

/// One predicate chosen by the elimination algorithm.
struct SelectedPredicate {
  uint32_t Pred = 0;
  /// Scores over the full original population ("initial thermometer").
  PredicateScores InitialScores;
  double InitialImportance = 0.0;
  /// Scores over the population at selection time ("effective
  /// thermometer"), reflecting dilution by earlier selections.
  PredicateScores EffectiveScores;
  double EffectiveImportance = 0.0;
  uint64_t ActiveRunsAtSelection = 0;
  uint64_t FailingRunsAtSelection = 0;
  /// (predicate, importance drop) pairs, largest drop first.
  std::vector<std::pair<uint32_t, double>> Affinity;
};

/// One elimination iteration of the audit trail: why the loop picked this
/// predicate and what applying the discard policy did to the population.
/// Both engines fill it from the same integer counts, so a trail is
/// bit-identical (and renders byte-identical) across engines — the same
/// contract bitIdentical() enforces for selections.
struct EliminationTraceEntry {
  uint32_t Pred = 0;
  /// Effective F/S/FObs/SObs at selection time.
  PredicateCounts Counts;
  /// Point value of Increase(P) over the population at selection time.
  double Increase = 0.0;
  /// Effective Importance(P) — the value the selection maximized.
  double Importance = 0.0;
  /// Population before the discard policy was applied.
  uint64_t ActiveRuns = 0;
  uint64_t FailingRuns = 0;
  /// Runs the policy discarded (or, under relabeling, relabeled).
  uint64_t RunsDiscarded = 0;
  /// Candidate predicates remaining after this selection.
  uint64_t SurvivingCandidates = 0;
};

struct AnalysisResult {
  uint32_t NumInitialPredicates = 0;
  /// The discard policy the elimination ran under.
  DiscardPolicy Policy = DiscardPolicy::DiscardAllRuns;
  /// Predicates surviving the Increase test, in id order.
  std::vector<uint32_t> PrunedSurvivors;
  /// Elimination output in selection order.
  std::vector<SelectedPredicate> Selected;
  /// Per-iteration audit trail, parallel to Selected.
  std::vector<EliminationTraceEntry> Trail;
};

/// Exact (bit-level, including every score double) equality of two
/// analysis results, audit trail included; the contract the rescan and
/// incremental engines are differential-tested against.
bool bitIdentical(const AnalysisResult &A, const AnalysisResult &B);

/// bitIdentical minus the trail's SurvivingCandidates counts — the contract
/// between a statically pruned campaign and its unpruned reference. Pruned
/// predicates can never be selected (zero or identically-zero-Increase
/// Importance), but under the discard policies that keep every F(P) > 0
/// predicate as a candidate they do inflate the unpruned candidate pool, so
/// only that trail field may differ.
bool prunedRankingsMatch(const AnalysisResult &A, const AnalysisResult &B);

/// Runs pruning + elimination + affinity over one run population, a
/// RunProfiles store.
class CauseIsolator {
public:
  /// Converts \p Set once and analyzes the copy with the same code as the
  /// RunProfiles constructor, so results (audit trail included) are
  /// bit-identical to it. A caller that also renders tables converts once
  /// itself and passes the one store to both.
  CauseIsolator(const SiteTable &Sites, const ReportSet &Set,
                AnalysisOptions Options = {});

  /// Analysis over \p Runs, which must outlive the isolator.
  CauseIsolator(const SiteTable &Sites, const RunProfiles &Runs,
                AnalysisOptions Options = {});

  /// Stage 1 only: ids of predicates passing the Increase test, over the
  /// full population.
  std::vector<uint32_t> prune() const;

  /// Scores every predicate in \p Candidates over \p View, most important
  /// first. Ties break toward larger F(P), then smaller id (determinism).
  std::vector<RankedPredicate> rank(const std::vector<uint32_t> &Candidates,
                                    const RunView &View) const;

  /// The full pipeline.
  AnalysisResult run() const;

  /// The live engines' elimination cuts the predicate id space into
  /// site-aligned slices of at least this many predicates
  /// (siteAlignedSlices), and each slice's owner applies every discard to
  /// the slice's counts and scores its candidates. The cut depends on the
  /// population alone, never on the thread count, so neither results nor
  /// work counters do. Each slice starts its pass from no best, so smaller
  /// slices rescore more: at this size the sweep rescores under 1% more
  /// candidates than one pass over all of them, while 4,096 to 32,768 run
  /// within noise of each other (DESIGN.md §7).
  static constexpr uint32_t SlicePreds = 16384;

private:
  /// Predicates passing the Increase test under precomputed counts.
  std::vector<uint32_t> survivorsOf(const Aggregates &Agg) const;

  /// The elimination loop's starting candidates. Policy (1) uses the
  /// Increase survivors; policies (2)/(3) keep every predicate with
  /// F(P) > 0, because a nonpositive-Increase predicate may become
  /// positive once an anti-correlated predictor is selected (Section 5).
  std::vector<uint32_t> initialCandidatesOf(const Aggregates &Agg) const;

  /// Applies the discard policy for \p Pred; returns how many runs it
  /// discarded (or relabeled).
  uint64_t applyPolicy(RunView &View, uint32_t Pred) const;

  /// Policy application by word-AND + popcount over \p State's matrices;
  /// returns the same count as applyPolicy.
  uint64_t applyPolicyBitset(uint32_t Pred, BitsetState &State) const;

  const SiteTable &Sites;
  /// Set only by the ReportSet constructor; declared before Runs so the
  /// reference can bind to it in member-initialization order.
  std::optional<RunProfiles> OwnedRuns;
  const RunProfiles &Runs;
  AnalysisOptions Options;
};

} // namespace sbi

#endif // SBI_CORE_ANALYSIS_H
