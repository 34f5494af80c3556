//===- core/Analysis.cpp - The cause-isolation algorithm ------------------===//

#include "core/Analysis.h"

#include "core/BitMatrix.h"
#include "core/InvertedIndex.h"
#include "obs/Tracer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>
#include <unordered_map>

using namespace sbi;

const char *sbi::discardPolicyName(DiscardPolicy Policy) {
  switch (Policy) {
  case DiscardPolicy::DiscardAllRuns:
    return "discard-all-runs";
  case DiscardPolicy::DiscardFailingRuns:
    return "discard-failing-runs";
  case DiscardPolicy::RelabelFailingRuns:
    return "relabel-failing-runs";
  }
  return "?";
}

const char *sbi::analysisEngineName(AnalysisEngine Engine) {
  switch (Engine) {
  case AnalysisEngine::Rescan:
    return "rescan";
  case AnalysisEngine::Incremental:
    return "incremental";
  case AnalysisEngine::Bitset:
    return "bitset";
  }
  return "?";
}

namespace {

/// Shared comparison core of bitIdentical and prunedRankingsMatch.
/// \p CompareSurvivingCandidates controls whether the trail's candidate
/// counts participate: under policies (2)/(3) the candidate pool is "every
/// predicate with F(P) > 0", which legitimately shrinks when instrumentation
/// is statically pruned, while everything selection-visible stays equal.
bool resultsMatch(const AnalysisResult &A, const AnalysisResult &B,
                  bool CompareSurvivingCandidates) {
  auto sameScores = [](const PredicateScores &X, const PredicateScores &Y) {
    const PredicateCounts &C = X.counts(), &D = Y.counts();
    return C.F == D.F && C.S == D.S && C.FObs == D.FObs && C.SObs == D.SObs;
  };
  if (A.NumInitialPredicates != B.NumInitialPredicates ||
      A.Policy != B.Policy || A.PrunedSurvivors != B.PrunedSurvivors ||
      A.Selected.size() != B.Selected.size() ||
      A.Trail.size() != B.Trail.size())
    return false;
  for (size_t I = 0; I < A.Trail.size(); ++I) {
    const EliminationTraceEntry &X = A.Trail[I], &Y = B.Trail[I];
    if (X.Pred != Y.Pred || X.Counts.F != Y.Counts.F ||
        X.Counts.S != Y.Counts.S || X.Counts.FObs != Y.Counts.FObs ||
        X.Counts.SObs != Y.Counts.SObs || X.Increase != Y.Increase ||
        X.Importance != Y.Importance || X.ActiveRuns != Y.ActiveRuns ||
        X.FailingRuns != Y.FailingRuns ||
        X.RunsDiscarded != Y.RunsDiscarded ||
        (CompareSurvivingCandidates &&
         X.SurvivingCandidates != Y.SurvivingCandidates))
      return false;
  }
  for (size_t I = 0; I < A.Selected.size(); ++I) {
    const SelectedPredicate &X = A.Selected[I], &Y = B.Selected[I];
    if (X.Pred != Y.Pred || !sameScores(X.InitialScores, Y.InitialScores) ||
        X.InitialImportance != Y.InitialImportance ||
        !sameScores(X.EffectiveScores, Y.EffectiveScores) ||
        X.EffectiveImportance != Y.EffectiveImportance ||
        X.ActiveRunsAtSelection != Y.ActiveRunsAtSelection ||
        X.FailingRunsAtSelection != Y.FailingRunsAtSelection ||
        X.Affinity != Y.Affinity)
      return false;
  }
  return true;
}

} // namespace

bool sbi::bitIdentical(const AnalysisResult &A, const AnalysisResult &B) {
  return resultsMatch(A, B, /*CompareSurvivingCandidates=*/true);
}

bool sbi::prunedRankingsMatch(const AnalysisResult &A,
                              const AnalysisResult &B) {
  return resultsMatch(A, B, /*CompareSurvivingCandidates=*/false);
}

CauseIsolator::CauseIsolator(const SiteTable &Sites, const ReportSet &Set,
                             AnalysisOptions Options)
    : Sites(Sites), OwnedRuns(RunProfiles::fromReports(Set)),
      Runs(*OwnedRuns), Options(Options) {
  assert(Sites.numPredicates() == Runs.numPredicates() &&
         Sites.numSites() == Runs.numSites() &&
         "report set does not match the site table");
}

CauseIsolator::CauseIsolator(const SiteTable &Sites, const RunProfiles &Runs,
                             AnalysisOptions Options)
    : Sites(Sites), Runs(Runs), Options(Options) {
  assert(Sites.numPredicates() == Runs.numPredicates() &&
         Sites.numSites() == Runs.numSites() &&
         "run profiles do not match the site table");
}

namespace {

/// Scores \p Candidates against precomputed counts, most important first.
/// Shared by both engines: the rescan path feeds it a fresh full scan, the
/// incremental path the delta-maintained counts — identical integer counts
/// make every derived double, and therefore the order, identical.
std::vector<RankedPredicate>
rankAggregated(const Aggregates &Agg, const SiteTable &Sites,
               const std::vector<uint32_t> &Candidates) {
  uint64_t NumF = Agg.numFailing();

  std::vector<RankedPredicate> Ranked;
  Ranked.reserve(Candidates.size());
  for (uint32_t Pred : Candidates) {
    RankedPredicate Entry;
    Entry.Pred = Pred;
    Entry.Scores = Agg.scores(Pred, Sites);
    Entry.Importance = Entry.Scores.importance(NumF);
    Entry.ImportanceCI = Entry.Scores.importanceInterval(NumF);
    Ranked.push_back(std::move(Entry));
  }

  std::sort(Ranked.begin(), Ranked.end(),
            [](const RankedPredicate &A, const RankedPredicate &B) {
              if (A.Importance != B.Importance)
                return A.Importance > B.Importance;
              if (A.Scores.counts().F != B.Scores.counts().F)
                return A.Scores.counts().F > B.Scores.counts().F;
              return A.Pred < B.Pred;
            });
  return Ranked;
}

/// Affinity drops as (predicate, Importance drop) pairs.
using DropList = std::vector<std::pair<uint32_t, double>>;

/// Keeps the \p TopK (> 0) largest drops, largest first with the
/// predicate id as tiebreak — a total order, so every engine keeps the
/// same entries in the same order.
void keepTopDrops(DropList &Drops, int TopK) {
  const size_t Keep = std::min(Drops.size(), static_cast<size_t>(TopK));
  std::partial_sort(Drops.begin(), Drops.begin() + Keep, Drops.end(),
                    [](const auto &A, const auto &B) {
                      if (A.second != B.second)
                        return A.second > B.second;
                      return A.first < B.first;
                    });
  Drops.resize(Keep);
}

/// What one scoring pass did, in candidates: scored from their counts, or
/// skipped because their bound could not reach the best; and the positive
/// affinity drops it collected.
struct PassWork {
  uint64_t Rescored = 0;
  uint64_t BoundSkipped = 0;
  uint64_t AffinityDrops = 0;

  PassWork &operator+=(const PassWork &Other) {
    Rescored += Other.Rescored;
    BoundSkipped += Other.BoundSkipped;
    AffinityDrops += Other.AffinityDrops;
    return *this;
  }
};

/// The entry a full sort would surface first among predicates with
/// positive Importance.
struct BestCandidate {
  bool Found = false;
  uint32_t Pred = 0;
  uint32_t F = 0;
  double Importance = 0.0;
};

/// The live engines' candidates in id order, each with what its last
/// scoring left behind. Increase = failure() - context() and F are exact
/// for the current counts until a change mark says the counts moved; Key
/// is Importance x log NumF at the candidate's last evaluation, rounded
/// up to a float (still a bound, in half the bytes).
///
/// With Increase and F fixed, Importance can only rise as log NumF falls
/// (PredicateScores::importanceOf), and by no more than in proportion:
/// the harmonic mean h of Increase I and sensitivity s satisfies
/// h(I, s r) <= r h(I, s) for r >= 1. So an unmarked candidate's
/// Importance now is at most Key / log NumF now, and a pass can skip it
/// without arithmetic once a scored candidate beats that bound. Every
/// score a pass does compute comes from the same operations on the same
/// integers as a fresh ranking's, which keeps the live engines
/// bit-identical to rank().
class CandidateTable {
public:
  CandidateTable(const std::vector<uint32_t> &Preds, const SiteTable &Sites,
                 const Aggregates &Agg) {
    Rows.reserve(Preds.size());
    uint64_t MaxF = 0;
    for (uint32_t Pred : Preds) {
      Rows.push_back({Pred, Sites.predicate(Pred).Site, 0, 0.0f, 0.0});
      MaxF = std::max(MaxF, Agg.counts(Pred, Sites).F);
    }
    // No policy ever raises a failing count, so every F the loop will see
    // is at most its initial value. The same call on the same value as
    // importanceFromLog's log F, so a lookup is bit-identical to it.
    // LogF[0] never decides a score: F = 0 makes Increase <= 0.
    LogF.resize(MaxF + 1, 0.0);
    for (uint64_t K = 1; K <= MaxF; ++K)
      LogF[K] = std::log(static_cast<double>(K));
  }

  /// One scoring pass in id order over a population with log NumF =
  /// \p LogNow, reached from one with log NumF = \p LogBefore by a
  /// discard that changed the counts \p Marks names; a null \p Marks
  /// means every row may have changed. Re-derives every marked row from
  /// \p Agg, scores the unmarked rows whose bound could still reach the
  /// best from their cache, and returns the best. With \p Drops, appends
  /// the positive Importance drops of every predicate but \p Selected.
  BestCandidate pass(const Aggregates &Agg, const ChangeMarks *Marks,
                     double LogBefore, double LogNow, uint32_t Selected,
                     DropList *Drops, PassWork &Work) {
    // Rounding slack of the bound: far above the few ulps its operations
    // can err by, far below any gap between two real Importance values.
    constexpr double Slack = 1.0 + 1e-9;
    BestCandidate Best;
    double Threshold = 0.0; // Best.Importance * LogNow.
    for (CandidateRow &Row : Rows) {
      double Now;
      if (!Marks || Marks->changed(Row.Pred, Row.Site)) {
        // The cache still holds the counts before the discard, so the
        // Importance before it is recomputed, not stored.
        const double Before =
            Drops ? PredicateScores::importanceOf(Row.Increase, LogF[Row.F],
                                                  LogBefore)
                  : 0.0;
        const PredicateScores Scores(Agg.counts(Row.Pred, Row.Site));
        Row.Increase = Scores.failure() - Scores.context();
        Row.F = static_cast<uint32_t>(Scores.counts().F);
        Now = PredicateScores::importanceOf(Row.Increase, LogF[Row.F],
                                            LogNow);
        if (Drops && Before - Now > 0.0 && Row.Pred != Selected)
          Drops->emplace_back(Row.Pred, Before - Now);
      } else if (Row.Key * Slack < Threshold) {
        // Unmarked: its Importance did not fall, so it has no drop either.
        ++Work.BoundSkipped;
        continue;
      } else {
        Now = PredicateScores::importanceOf(Row.Increase, LogF[Row.F],
                                            LogNow);
      }
      ++Work.Rescored;
      Row.Key = roundedUp(Now * LogNow);
      // The (Importance desc, F desc, id asc) maximum. A candidate that
      // could tie the best is never skipped above, so ties break exactly
      // as in a full sort.
      if (Now > 0.0 &&
          (!Best.Found || Now > Best.Importance ||
           (Now == Best.Importance &&
            (Row.F > Best.F || (Row.F == Best.F && Row.Pred < Best.Pred))))) {
        Best = {true, Row.Pred, Row.F, Now};
        Threshold = Now * LogNow;
      }
    }
    if (Drops)
      Work.AffinityDrops += Drops->size();
    return Best;
  }

private:
  /// 24 bytes. F fits 32 bits: the live engines' indexes hold run ids in
  /// 32 bits.
  struct CandidateRow {
    uint32_t Pred;
    uint32_t Site;
    uint32_t F;
    float Key;
    double Increase;
  };

  /// The least float >= \p Key (>= 0): the next representation up when
  /// the conversion rounded down.
  static float roundedUp(double Key) {
    const float Rounded = static_cast<float>(Key);
    return Rounded < Key ? std::bit_cast<float>(
                               std::bit_cast<uint32_t>(Rounded) + 1)
                         : Rounded;
  }

  std::vector<CandidateRow> Rows;
  /// LogF[K] = log(K) for every F a candidate can reach.
  std::vector<double> LogF;
};

} // namespace

std::vector<uint32_t> CauseIsolator::prune() const {
  RunView View = RunView::allOf(Runs);
  return survivorsOf(Aggregates::compute(Runs, View));
}

std::vector<uint32_t> CauseIsolator::survivorsOf(const Aggregates &Agg) const {
  std::vector<uint32_t> Survivors;
  for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred)
    if (Agg.scores(Pred, Sites).survivesIncreaseTest())
      Survivors.push_back(Pred);
  return Survivors;
}

std::vector<RankedPredicate>
CauseIsolator::rank(const std::vector<uint32_t> &Candidates,
                    const RunView &View) const {
  return rankAggregated(Aggregates::compute(Runs, View), Sites, Candidates);
}

uint64_t CauseIsolator::applyPolicy(RunView &View, uint32_t Pred) const {
  uint64_t Touched = 0;
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    if (!View.Active[Run] || !Runs.observedTrue(Run, Pred))
      continue;
    switch (Options.Policy) {
    case DiscardPolicy::DiscardAllRuns:
      View.Active[Run] = 0;
      ++Touched;
      break;
    case DiscardPolicy::DiscardFailingRuns:
      if (View.Failed[Run]) {
        View.Active[Run] = 0;
        ++Touched;
      }
      break;
    case DiscardPolicy::RelabelFailingRuns:
      if (View.Failed[Run]) {
        View.Failed[Run] = 0;
        ++Touched;
      }
      break;
    }
  }
  return Touched;
}

uint64_t CauseIsolator::applyPolicyBitset(uint32_t Pred,
                                          BitsetState &State) const {
  switch (Options.Policy) {
  case DiscardPolicy::DiscardAllRuns:
    return State.discardCoveredRuns(Pred);
  case DiscardPolicy::DiscardFailingRuns:
    return State.discardFailingRuns(Pred);
  case DiscardPolicy::RelabelFailingRuns:
    return State.relabelFailingRuns(Pred);
  }
  return 0;
}

uint64_t CauseIsolator::applyPolicyIncremental(RunView &View, uint32_t Pred,
                                               const InvertedIndex &Index,
                                               DeltaAggregates &Delta) const {
  uint64_t Touched = 0;
  for (uint32_t Run : Index.runsWhereTrue(Pred)) {
    if (!View.Active[Run])
      continue;
    switch (Options.Policy) {
    case DiscardPolicy::DiscardAllRuns:
      View.Active[Run] = 0;
      Delta.removeRun(Run, View.Failed[Run]);
      ++Touched;
      break;
    case DiscardPolicy::DiscardFailingRuns:
      if (View.Failed[Run]) {
        View.Active[Run] = 0;
        Delta.removeRun(Run, /*Failed=*/true);
        ++Touched;
      }
      break;
    case DiscardPolicy::RelabelFailingRuns:
      if (View.Failed[Run]) {
        View.Failed[Run] = 0;
        Delta.relabelRunAsSuccess(Run);
        ++Touched;
      }
      break;
    }
  }
  return Touched;
}

std::vector<uint32_t>
CauseIsolator::initialCandidatesOf(const Aggregates &Agg) const {
  // Under proposal (1) a predicate and its complement can never both have
  // positive predictive power, so pruning negatives early is safe. Under
  // proposals (2) and (3) a predicate with Increase <= 0 may become a
  // positive predictor once an anti-correlated predictor is selected
  // (Section 5), so only the never-true-in-a-failing-run predicates are
  // dropped.
  if (Options.Policy == DiscardPolicy::DiscardAllRuns)
    return survivorsOf(Agg);
  std::vector<uint32_t> Candidates;
  for (uint32_t Pred = 0; Pred < Runs.numPredicates(); ++Pred)
    if (Agg.counts(Pred, Sites).F > 0)
      Candidates.push_back(Pred);
  return Candidates;
}

AnalysisResult CauseIsolator::run() const {
  // The per-iteration spans below add the resolution the stage spans
  // cannot give: which iteration dominates, and how the candidate pool
  // shrinks.
  ScopedSpan AnalysisSpan("analysis", "analysis");

  // The density fallback: for populations so sparse that dense word sweeps
  // would outweigh posting walks, the bitset engine defers to the
  // incremental one (identical results either way). A caller-provided
  // BitsetIndex pins the engine — the build is already paid for.
  AnalysisEngine Engine = Options.Engine;
  if (Engine == AnalysisEngine::Bitset && !Options.SharedBitset &&
      BitsetIndex::preferIncremental(Runs, Options.BitsetMinDensity))
    Engine = AnalysisEngine::Incremental;
  const bool Incremental = Engine == AnalysisEngine::Incremental;
  const bool Bitset = Engine == AnalysisEngine::Bitset;
  // Both live engines share the candidate table; they differ only in how
  // the counts, and the marks of what changed, are kept current after
  // each selection.
  const bool Live = Incremental || Bitset;

  AnalysisResult Result;
  Result.NumInitialPredicates = Runs.numPredicates();
  Result.Policy = Options.Policy;

  RunView View = RunView::allOf(Runs);

  // The live engines pay a build up front, then touch only the selected
  // predicate's runs (incremental: its posting list; bitset: its row AND
  // the active mask) per iteration. The rescan engine keeps the
  // paper-literal shape: a full aggregation pass per ranking. A caller
  // analyzing the same population repeatedly can pass a prebuilt
  // index/bitset; neither is ever mutated, so sharing is safe.
  std::optional<InvertedIndex> OwnedIndex;
  const InvertedIndex *Index = nullptr;
  std::optional<DeltaAggregates> Delta;
  std::optional<BitsetIndex> OwnedBitset;
  const BitsetIndex *BIndex = nullptr;
  std::optional<BitsetState> BState;
  // An owned posting-list build reads the same immutable RunProfiles as
  // the initial scan, so it runs on a worker concurrently with the scan
  // below instead of serializing in front of it; the "index_build" span
  // then measures only the residual join wait.
  std::thread IndexBuilder;
  // Under policies (2)/(3) every predicate with F(P) > 0 is a candidate,
  // and the engines mark what each discard changes so a pass re-derives
  // only those. Policy (1)'s candidates are the Increase survivors, few
  // enough that re-deriving them all costs less than marking every
  // posting of every discarded run, successes included.
  const bool TrackChanges = Options.Policy != DiscardPolicy::DiscardAllRuns;

  if (Incremental) {
    if (Options.SharedIndex) {
      Index = Options.SharedIndex;
      if (Index->numPredicates() != Runs.numPredicates() ||
          Index->numSites() != Runs.numSites() ||
          Index->numRuns() != Runs.size()) {
        std::fprintf(stderr,
                     "sbi: CauseIsolator::run: shared index (%zu runs / %u "
                     "sites / %u predicates) was not built over this run "
                     "population (%zu runs / %u sites / %u predicates)\n",
                     Index->numRuns(), Index->numSites(),
                     Index->numPredicates(), Runs.size(), Runs.numSites(),
                     Runs.numPredicates());
        std::abort();
      }
    } else {
      IndexBuilder = std::thread([this, &OwnedIndex] {
        OwnedIndex.emplace(InvertedIndex::build(Runs, Options.IndexThreads));
      });
    }
  } else if (Bitset) {
    ScopedSpan IndexSpan("index_build", "analysis");
    if (Options.SharedBitset) {
      BIndex = Options.SharedBitset;
      if (BIndex->numPredicates() != Runs.numPredicates() ||
          BIndex->numSites() != Runs.numSites() ||
          BIndex->numRuns() != Runs.size()) {
        std::fprintf(stderr,
                     "sbi: CauseIsolator::run: shared bitset index was not "
                     "built over this run population\n");
        std::abort();
      }
    } else {
      OwnedBitset.emplace(
          BitsetIndex::build(Runs, Sites, Options.IndexThreads));
      BIndex = &*OwnedBitset;
    }
    BState.emplace(*BIndex, Options.IndexThreads, TrackChanges);
  }

  // Initial (full-population) scores, shown as the "initial thermometer".
  // The bitset build already fused this scan into its counting pass.
  std::optional<ScopedSpan> ScanSpan(std::in_place, "initial_scan", "analysis");
  if (Incremental)
    Delta.emplace(Runs, View, TrackChanges);
  // The bitset index keeps its initial counts unchanged, so they are read
  // in place. The incremental engine copies its counts before the first
  // discard changes them; the rescan engine's are a fresh scan.
  std::optional<Aggregates> OwnedInitialAgg;
  if (!Bitset)
    OwnedInitialAgg.emplace(Incremental ? Delta->aggregates()
                                        : Aggregates::compute(Runs, View));
  const Aggregates &InitialAgg =
      Bitset ? BIndex->initialAggregates() : *OwnedInitialAgg;
  uint64_t InitialNumF = InitialAgg.numFailing();

  Result.PrunedSurvivors =
      Bitset ? BIndex->survivors() : survivorsOf(InitialAgg);
  std::vector<uint32_t> Candidates = initialCandidatesOf(InitialAgg);
  ScanSpan.reset();

  if (IndexBuilder.joinable()) {
    ScopedSpan IndexSpan("index_build", "analysis");
    IndexBuilder.join();
    Index = &*OwnedIndex;
  }

  ScopedSpan EliminationSpan("elimination", "analysis");

  // The live engines' current counts: delta-maintained or popcount-
  // maintained, always exactly what a fresh full scan would produce.
  auto liveAgg = [&]() -> const Aggregates & {
    return Bitset ? BState->aggregates() : Delta->aggregates();
  };
  // The counts the last discard changed (null: untracked, so any), and
  // the reset after each pass.
  auto liveChanges = [&] {
    return Bitset ? BState->changes() : Delta->changes();
  };
  auto clearChanges = [&] {
    if (Bitset)
      BState->clearChanges();
    else
      Delta->clearChanges();
  };

  // Rescan engine: the paper-literal fully sorted ranking, rebuilt from a
  // full aggregation pass per iteration. Live engines: the candidate table,
  // whose one pass per iteration re-derives what the discard changed and
  // bounds the rest.
  std::vector<RankedPredicate> Ranked;
  std::optional<CandidateTable> Table;
  BestCandidate Best;
  double LogNumF = 0.0;
  // Counted on every run, flushed to the metrics registry only when
  // telemetry is on.
  PassWork Work;
  size_t NumCandidates = Candidates.size();
  if (Live) {
    Table.emplace(Candidates, Sites, liveAgg());
    std::vector<uint32_t>().swap(Candidates); // The table holds them now.
    LogNumF = PredicateScores::logNumFailing(liveAgg().numFailing());
    Best = Table->pass(liveAgg(), /*Marks=*/nullptr, LogNumF, LogNumF,
                       /*Selected=*/0, /*Drops=*/nullptr, Work);
  } else {
    Ranked = rank(Candidates, View);
    Work.Rescored = Candidates.size();
  }
  EliminationSpan.arg("rescored", Work.Rescored);
  // A cap of zero or less keeps no affinity entries, so none are collected.
  const bool WantDrops = Options.ComputeAffinity && Options.AffinityTopK > 0;

  for (int Iteration = 0; Iteration < Options.MaxSelections; ++Iteration) {
    // One span per elimination iteration, shared by all three engines:
    // the loop body is common, only the count-maintenance differs.
    ScopedSpan IterSpan("elimination_iter", "analysis");
    IterSpan.arg("candidates", NumCandidates);
    // Under relabeling every run stays active, so active = F + S in every
    // engine; the live counts give the totals without a view scan.
    uint64_t ActiveRuns = Live ? liveAgg().numFailing() +
                                     liveAgg().numSuccessful()
                               : View.numActive();
    uint64_t FailingRuns =
        Live ? liveAgg().numFailing() : View.numActiveFailing();
    IterSpan.arg("active_runs", ActiveRuns);
    if (NumCandidates == 0 || FailingRuns == 0)
      break;

    // Select the top-ranked predicate that still covers at least one
    // active failing run (Lemma 3.1's coverage argument rests on F(P) > 0)
    // and has strictly positive Importance. A zero-Importance predicate has
    // no positive Increase over the current population, so selecting it
    // explains nothing; the strict gate also guarantees that predicates
    // with Increase identically zero — notably always-true-when-observed
    // predicates, whose Failure and Context are the same ratio over every
    // sub-population — can never enter the output list, which is what lets
    // static pruning drop them without perturbing the rankings.
    SelectedPredicate Selected;
    if (Live) {
      if (!Best.Found)
        break;
      Selected.Pred = Best.Pred;
      Selected.EffectiveScores = liveAgg().scores(Best.Pred, Sites);
      Selected.EffectiveImportance = Best.Importance;
    } else {
      const RankedPredicate *Top = nullptr;
      for (const RankedPredicate &Entry : Ranked)
        if (Entry.Scores.counts().F > 0 && Entry.Importance > 0.0) {
          Top = &Entry;
          break;
        }
      if (!Top)
        break;
      Selected.Pred = Top->Pred;
      Selected.EffectiveScores = Top->Scores;
      Selected.EffectiveImportance = Top->Importance;
    }
    Selected.InitialScores = InitialAgg.scores(Selected.Pred, Sites);
    Selected.InitialImportance = Selected.InitialScores.importance(InitialNumF);
    Selected.ActiveRunsAtSelection = ActiveRuns;
    Selected.FailingRunsAtSelection = FailingRuns;

    uint64_t RunsDiscarded =
        Bitset        ? applyPolicyBitset(Selected.Pred, *BState)
        : Incremental ? applyPolicyIncremental(View, Selected.Pred, *Index,
                                               *Delta)
                      : applyPolicy(View, Selected.Pred);
    // The live table keeps the selected row: every policy took its F(P) to
    // 0, so it can never score again.
    --NumCandidates;
    if (!Live)
      Candidates.erase(
          std::remove(Candidates.begin(), Candidates.end(), Selected.Pred),
          Candidates.end());

    // The audit-trail entry for this iteration: selection rationale plus
    // the policy's effect, derived entirely from engine-shared counts so
    // both engines emit identical trails.
    EliminationTraceEntry Trace;
    Trace.Pred = Selected.Pred;
    Trace.Counts = Selected.EffectiveScores.counts();
    Trace.Increase = Selected.EffectiveScores.increase().Value;
    Trace.Importance = Selected.EffectiveImportance;
    Trace.ActiveRuns = ActiveRuns;
    Trace.FailingRuns = FailingRuns;
    Trace.RunsDiscarded = RunsDiscarded;
    Trace.SurvivingCandidates = NumCandidates;
    Result.Trail.push_back(Trace);

    // Affinity(P -> Q): how much Q's Importance fell when P's runs were
    // removed. Large drops indicate Q predicts (a subset of) P's bug.
    PassWork Pass;
    DropList Drops;
    if (Live) {
      // The selection had F(P) >= 2 and the policy took those failing
      // runs, so log NumF fell and no unmarked candidate lost Importance.
      // The one exception: once NumF <= 1 every Importance is 0, and one
      // pass over every row collects the drops and finds no best.
      const double LogBefore = LogNumF;
      LogNumF = PredicateScores::logNumFailing(liveAgg().numFailing());
      Best = Table->pass(liveAgg(), LogNumF > 0.0 ? liveChanges() : nullptr,
                         LogBefore, LogNumF, Selected.Pred,
                         WantDrops ? &Drops : nullptr, Pass);
      clearChanges();
    } else {
      std::vector<RankedPredicate> NextRanked = rank(Candidates, View);
      Pass.Rescored = Candidates.size();
      if (WantDrops) {
        std::unordered_map<uint32_t, double> After;
        After.reserve(NextRanked.size());
        for (const RankedPredicate &Entry : NextRanked)
          After.emplace(Entry.Pred, Entry.Importance);

        for (const RankedPredicate &Entry : Ranked) {
          auto It = After.find(Entry.Pred);
          if (It == After.end())
            continue;
          double Drop = Entry.Importance - It->second;
          if (Drop > 0.0)
            Drops.emplace_back(Entry.Pred, Drop);
        }
        Pass.AffinityDrops = Drops.size();
      }
      Ranked = std::move(NextRanked);
    }
    if (WantDrops) {
      keepTopDrops(Drops, Options.AffinityTopK);
      Selected.Affinity = std::move(Drops);
    }
    IterSpan.arg("rescored", Pass.Rescored);
    IterSpan.arg("bound_skipped", Pass.BoundSkipped);
    IterSpan.arg("affinity_drops", Pass.AffinityDrops);
    Work += Pass;

    Result.Selected.push_back(std::move(Selected));
  }

  if (Telemetry::enabled()) {
    MetricsRegistry &Metrics = Telemetry::metrics();
    static Counter &Rescored =
        Metrics.registerCounter("analysis.candidates_rescored_total");
    static Counter &BoundSkipped =
        Metrics.registerCounter("analysis.candidates_bound_skipped_total");
    static Counter &AffinityDrops =
        Metrics.registerCounter("analysis.affinity_drops_total");
    Rescored.add(Work.Rescored);
    BoundSkipped.add(Work.BoundSkipped);
    AffinityDrops.add(Work.AffinityDrops);
  }
  return Result;
}
