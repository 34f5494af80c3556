//===- core/Analysis.cpp - The cause-isolation algorithm ------------------===//

#include "core/Analysis.h"

#include "core/BitMatrix.h"
#include "core/InvertedIndex.h"
#include "obs/Tracer.h"

#include <algorithm>
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

/// The entry a full sort would surface first among predicates with F > 0.
struct BestCandidate {
  bool Found = false;
  uint32_t Pred = 0;
  PredicateScores Scores;
  double Importance = 0.0;
};

/// One scoring pass of the incremental engine: evaluates every candidate
/// against the delta-maintained counts, records Importance(P) into
/// \p ImportanceByPred (indexed by predicate id), and returns the maximum
/// under (Importance desc, F desc, Pred asc) restricted to F > 0 — exactly
/// the entry the rescan engine's sorted ranking selects. Skipping the sort,
/// the per-predicate confidence intervals, and the hash map keeps the pass
/// O(|Candidates|) with small constants; the doubles computed are the same,
/// so selection and affinity stay bit-identical across engines.
BestCandidate scoreCandidates(const Aggregates &Agg, const SiteTable &Sites,
                              const std::vector<uint32_t> &Candidates,
                              std::vector<double> &ImportanceByPred) {
  // One logarithm per pass: log(NumF) is the same for every candidate.
  const double LogNumF = PredicateScores::logNumFailing(Agg.numFailing());
  BestCandidate Best;
  for (uint32_t Pred : Candidates) {
    PredicateScores Scores = Agg.scores(Pred, Sites);
    double Importance = Scores.importanceFromLog(LogNumF);
    ImportanceByPred[Pred] = Importance;
    if (Scores.counts().F == 0 || Importance <= 0.0)
      continue;
    bool Better =
        !Best.Found || Importance > Best.Importance ||
        (Importance == Best.Importance &&
         (Scores.counts().F > Best.Scores.counts().F ||
          (Scores.counts().F == Best.Scores.counts().F && Pred < Best.Pred)));
    if (Better) {
      Best.Found = true;
      Best.Pred = Pred;
      Best.Scores = Scores;
      Best.Importance = Importance;
    }
  }
  return Best;
}

/// Orders affinity drops largest-first with the predicate id as tiebreak —
/// a total order, so both engines produce identical lists — and keeps the
/// top \p TopK.
void sortAndCapDrops(std::vector<std::pair<uint32_t, double>> &Drops,
                     int TopK) {
  std::sort(Drops.begin(), Drops.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first < B.first;
  });
  if (static_cast<int>(Drops.size()) > TopK)
    Drops.resize(static_cast<size_t>(TopK));
}

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
  // Both live engines share the sort-free scoring path; they differ only
  // in how the counts are kept current after each selection.
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
    BState.emplace(*BIndex, Options.IndexThreads);
  }

  // Initial (full-population) scores, shown as the "initial thermometer".
  // The bitset build already fused this scan into its counting pass.
  std::optional<ScopedSpan> ScanSpan(std::in_place, "initial_scan", "analysis");
  if (Incremental)
    Delta.emplace(Runs, View);
  Aggregates InitialAgg = Bitset        ? BIndex->initialAggregates()
                          : Incremental ? Delta->aggregates()
                                        : Aggregates::compute(Runs, View);
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

  // Rescan engine: the paper-literal fully sorted ranking, rebuilt from a
  // full aggregation pass per iteration. Live engines: one importance
  // value per predicate (all affinity needs) plus the would-be-first entry,
  // both maintained by a single sort-free scoring pass per iteration.
  std::vector<RankedPredicate> Ranked;
  std::vector<double> CurImportance, NextImportance;
  BestCandidate Best;
  if (Live) {
    CurImportance.resize(Runs.numPredicates());
    NextImportance.resize(Runs.numPredicates());
    Best = scoreCandidates(liveAgg(), Sites, Candidates, CurImportance);
  } else {
    Ranked = rank(Candidates, View);
  }

  for (int Iteration = 0; Iteration < Options.MaxSelections; ++Iteration) {
    // One span per elimination iteration, shared by all three engines:
    // the loop body is common, only the count-maintenance differs.
    ScopedSpan IterSpan("elimination_iter", "analysis");
    IterSpan.arg("candidates", Candidates.size());
    // Under relabeling every run stays active, so active = F + S in every
    // engine; the live counts give the totals without a view scan.
    uint64_t ActiveRuns = Live ? liveAgg().numFailing() +
                                     liveAgg().numSuccessful()
                               : View.numActive();
    uint64_t FailingRuns =
        Live ? liveAgg().numFailing() : View.numActiveFailing();
    IterSpan.arg("active_runs", ActiveRuns);
    if (Candidates.empty() || FailingRuns == 0)
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
      Selected.EffectiveScores = Best.Scores;
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
    Trace.SurvivingCandidates = Candidates.size();
    Result.Trail.push_back(Trace);

    // Affinity(P -> Q): how much Q's Importance fell when P's runs were
    // removed. Large drops indicate Q predicts (a subset of) P's bug.
    if (Live) {
      Best = scoreCandidates(liveAgg(), Sites, Candidates, NextImportance);
      if (Options.ComputeAffinity) {
        std::vector<std::pair<uint32_t, double>> Drops;
        for (uint32_t Pred : Candidates) {
          double Drop = CurImportance[Pred] - NextImportance[Pred];
          if (Drop > 0.0)
            Drops.emplace_back(Pred, Drop);
        }
        sortAndCapDrops(Drops, Options.AffinityTopK);
        Selected.Affinity = std::move(Drops);
      }
      std::swap(CurImportance, NextImportance);
    } else {
      std::vector<RankedPredicate> NextRanked = rank(Candidates, View);
      if (Options.ComputeAffinity) {
        std::unordered_map<uint32_t, double> After;
        After.reserve(NextRanked.size());
        for (const RankedPredicate &Entry : NextRanked)
          After.emplace(Entry.Pred, Entry.Importance);

        std::vector<std::pair<uint32_t, double>> Drops;
        for (const RankedPredicate &Entry : Ranked) {
          auto It = After.find(Entry.Pred);
          if (It == After.end())
            continue;
          double Drop = Entry.Importance - It->second;
          if (Drop > 0.0)
            Drops.emplace_back(Entry.Pred, Drop);
        }
        sortAndCapDrops(Drops, Options.AffinityTopK);
        Selected.Affinity = std::move(Drops);
      }
      Ranked = std::move(NextRanked);
    }

    Result.Selected.push_back(std::move(Selected));
  }

  return Result;
}
