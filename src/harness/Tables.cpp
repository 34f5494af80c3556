//===- harness/Tables.cpp - Paper-table rendering and derived studies -----===//

#include "harness/Tables.h"

#include "support/StringUtils.h"
#include "support/TextTable.h"
#include "support/Thermometer.h"

#include <algorithm>
#include <map>
#include <set>

using namespace sbi;

static constexpr size_t ThermometerWidth = 24;

std::string sbi::predicateLabel(const SiteTable &Sites, uint32_t PredId) {
  const PredicateInfo &Pred = Sites.predicate(PredId);
  const SiteInfo &Site = Sites.site(Pred.Site);
  return format("%s  [%s @ %s:%d]", Pred.Text.c_str(),
                schemeName(Site.SchemeKind), Site.Function.c_str(),
                Site.Line);
}

static std::string formatInterval(const ScoreInterval &Interval) {
  return format("%.3f +- %.3f", Interval.Value, Interval.HalfWidth);
}

std::string sbi::renderRankedList(const SiteTable &Sites,
                                  const std::vector<RankedPredicate> &Ranked,
                                  size_t TopK, uint64_t NumF) {
  uint64_t MaxRuns = 1;
  for (const RankedPredicate &Entry : Ranked)
    MaxRuns = std::max(MaxRuns, Entry.Scores.counts().observedTrue());

  TextTable Table;
  Table.setHeader({"Thermometer", "Context", "Increase", "Importance", "S",
                   "F", "F+S", "Predicate"});
  size_t Rows = TopK == 0 ? Ranked.size() : std::min(TopK, Ranked.size());
  for (size_t I = 0; I < Rows; ++I) {
    const RankedPredicate &Entry = Ranked[I];
    const PredicateCounts &Counts = Entry.Scores.counts();
    Table.addRow({renderThermometer(Entry.Scores.thermometer(),
                                    ThermometerWidth, MaxRuns),
                  format("%.3f", Entry.Scores.context()),
                  formatInterval(Entry.Scores.increase()),
                  format("%.3f", Entry.Scores.importance(NumF)),
                  format("%llu", static_cast<unsigned long long>(Counts.S)),
                  format("%llu", static_cast<unsigned long long>(Counts.F)),
                  format("%llu", static_cast<unsigned long long>(
                                     Counts.observedTrue())),
                  predicateLabel(Sites, Entry.Pred)});
  }
  if (Rows < Ranked.size())
    Table.addRow({format("... %zu additional predicates follow",
                         Ranked.size() - Rows)});
  return Table.render();
}

size_t sbi::failingRunsWithPredAndBug(const RunProfiles &Runs,
                                      uint32_t PredId, int BugId) {
  size_t N = 0;
  for (size_t Run = 0; Run < Runs.size(); ++Run)
    if (Runs.failed(Run) && Runs.hasBug(Run, BugId) &&
        Runs.observedTrue(Run, PredId))
      ++N;
  return N;
}

std::string
sbi::renderSelectedList(const SiteTable &Sites, const RunProfiles &Runs,
                        const std::vector<SelectedPredicate> &Selected,
                        const std::vector<int> &BugIds, size_t TopK) {
  uint64_t MaxRuns = 1;
  for (const SelectedPredicate &Entry : Selected)
    MaxRuns = std::max(MaxRuns, Entry.InitialScores.counts().observedTrue());

  TextTable Table;
  std::vector<std::string> Header = {"Initial", "Effective", "Imp", "F", "S",
                                     "Predicate"};
  for (int Bug : BugIds)
    Header.push_back(format("#%d", Bug));
  Table.setHeader(std::move(Header));

  size_t Rows = TopK == 0 ? Selected.size() : std::min(TopK, Selected.size());
  for (size_t I = 0; I < Rows; ++I) {
    const SelectedPredicate &Entry = Selected[I];
    std::vector<std::string> Row = {
        renderThermometer(Entry.InitialScores.thermometer(),
                          ThermometerWidth, MaxRuns),
        renderThermometer(Entry.EffectiveScores.thermometer(),
                          ThermometerWidth, MaxRuns),
        format("%.3f", Entry.InitialImportance),
        format("%llu", static_cast<unsigned long long>(
                           Entry.InitialScores.counts().F)),
        format("%llu", static_cast<unsigned long long>(
                           Entry.InitialScores.counts().S)),
        predicateLabel(Sites, Entry.Pred)};
    for (int Bug : BugIds)
      Row.push_back(
          format("%zu", failingRunsWithPredAndBug(Runs, Entry.Pred, Bug)));
    Table.addRow(std::move(Row));
  }
  return Table.render();
}

std::string sbi::renderAffinity(const SiteTable &Sites,
                                const SelectedPredicate &Selected) {
  std::string Out = format("affinity of %s:\n",
                           predicateLabel(Sites, Selected.Pred).c_str());
  for (const auto &[Pred, Drop] : Selected.Affinity)
    Out += format("  drop %.3f  %s\n", Drop,
                  predicateLabel(Sites, Pred).c_str());
  if (Selected.Affinity.empty())
    Out += "  (no related predicates)\n";
  return Out;
}

std::string sbi::renderAuditTrail(const SiteTable &Sites,
                                  const AnalysisResult &Analysis) {
  std::string Out =
      format("elimination audit trail (policy %s): %u predicates, %zu "
             "survive Increase>0, %zu selected\n",
             discardPolicyName(Analysis.Policy),
             Analysis.NumInitialPredicates, Analysis.PrunedSurvivors.size(),
             Analysis.Trail.size());
  for (size_t I = 0; I < Analysis.Trail.size(); ++I) {
    const EliminationTraceEntry &Entry = Analysis.Trail[I];
    Out += format(
        "iter %3zu: select P%-6u F=%llu S=%llu FObs=%llu SObs=%llu "
        "Increase=%.6f Importance=%.6f | %llu/%llu runs active/failing -> "
        "%llu %s, %llu candidates remain | %s\n",
        I + 1, Entry.Pred, static_cast<unsigned long long>(Entry.Counts.F),
        static_cast<unsigned long long>(Entry.Counts.S),
        static_cast<unsigned long long>(Entry.Counts.FObs),
        static_cast<unsigned long long>(Entry.Counts.SObs), Entry.Increase,
        Entry.Importance, static_cast<unsigned long long>(Entry.ActiveRuns),
        static_cast<unsigned long long>(Entry.FailingRuns),
        static_cast<unsigned long long>(Entry.RunsDiscarded),
        Analysis.Policy == DiscardPolicy::RelabelFailingRuns ? "relabeled"
                                                             : "discarded",
        static_cast<unsigned long long>(Entry.SurvivingCandidates),
        predicateLabel(Sites, Entry.Pred).c_str());
  }
  return Out;
}

std::vector<std::pair<int, uint32_t>>
sbi::choosePredictorPerBug(const RunProfiles &Runs,
                           const std::vector<SelectedPredicate> &Selected,
                           const std::vector<int> &BugIds) {
  std::vector<std::pair<int, uint32_t>> Result;
  for (int Bug : BugIds) {
    uint32_t BestPred = 0;
    size_t BestOverlap = 0;
    bool Found = false;
    for (const SelectedPredicate &Entry : Selected) {
      size_t Overlap = failingRunsWithPredAndBug(Runs, Entry.Pred, Bug);
      if (Overlap > BestOverlap) {
        BestOverlap = Overlap;
        BestPred = Entry.Pred;
        Found = true;
      }
    }
    if (Found)
      Result.emplace_back(Bug, BestPred);
  }
  return Result;
}

std::vector<size_t> sbi::defaultMinRunsGrid(size_t NumRuns) {
  std::vector<size_t> Grid;
  for (size_t N = 100; N <= 1000 && N <= NumRuns; N += 100)
    Grid.push_back(N);
  for (size_t N = 2000; N <= 25000 && N <= NumRuns; N += 1000)
    Grid.push_back(N);
  if (Grid.empty() || Grid.back() != NumRuns)
    Grid.push_back(NumRuns);
  return Grid;
}

std::vector<MinRunsRow> sbi::computeMinimumRuns(
    const SiteTable &Sites, const RunProfiles &Runs,
    const std::vector<std::pair<int, uint32_t>> &Predictors,
    const std::vector<size_t> &Grid, double Threshold) {
  // Incremental prefix aggregation: walk the runs once, checkpointing the
  // chosen predicates' counts at each grid size.
  struct Tracker {
    int BugId;
    uint32_t Pred;
    uint32_t Site;
    PredicateCounts Counts;
    std::vector<PredicateCounts> AtGrid;
    std::vector<uint64_t> NumFAtGrid;
  };
  std::vector<Tracker> Trackers;
  for (const auto &[Bug, Pred] : Predictors)
    Trackers.push_back(
        {Bug, Pred, Sites.predicate(Pred).Site, {}, {}, {}});

  uint64_t NumF = 0;
  size_t GridIdx = 0;
  for (size_t Run = 0; Run < Runs.size() && GridIdx < Grid.size(); ++Run) {
    const bool Failed = Runs.failed(Run);
    if (Failed)
      ++NumF;
    for (Tracker &T : Trackers) {
      if (Runs.siteObserved(Run, T.Site)) {
        if (Failed)
          ++T.Counts.FObs;
        else
          ++T.Counts.SObs;
      }
      if (Runs.observedTrue(Run, T.Pred)) {
        if (Failed)
          ++T.Counts.F;
        else
          ++T.Counts.S;
      }
    }
    while (GridIdx < Grid.size() && Run + 1 == Grid[GridIdx]) {
      for (Tracker &T : Trackers) {
        T.AtGrid.push_back(T.Counts);
        T.NumFAtGrid.push_back(NumF);
      }
      ++GridIdx;
    }
  }

  // Full-population importance for each predictor.
  Aggregates Agg = Aggregates::compute(Runs, RunView::allOf(Runs));

  std::vector<MinRunsRow> Rows;
  for (Tracker &T : Trackers) {
    MinRunsRow Row;
    Row.BugId = T.BugId;
    Row.Pred = T.Pred;
    Row.FullImportance =
        Agg.scores(T.Pred, Sites).importance(Agg.numFailing());
    for (size_t G = 0; G < T.AtGrid.size(); ++G) {
      PredicateScores Scores(T.AtGrid[G]);
      double ImportanceN = Scores.importance(T.NumFAtGrid[G]);
      if (Row.FullImportance - ImportanceN < Threshold) {
        Row.MinRuns = Grid[G];
        Row.FAtMinRuns = T.AtGrid[G].F;
        break;
      }
    }
    Rows.push_back(Row);
  }
  return Rows;
}

std::string sbi::crashFunctionOf(const std::string &Location) {
  size_t At = Location.find('@');
  return At == std::string::npos ? Location : Location.substr(0, At);
}

std::vector<StackStudyRow>
sbi::computeStackStudy(const ReportSet &Set, const std::vector<int> &BugIds,
                       const std::vector<std::string> &CauseFunctions) {
  // Crash location = innermost stack frame of a crashed run.
  auto locationOf = [](const FeedbackReport &Report) {
    size_t Sep = Report.StackSignature.find('>');
    return Sep == std::string::npos ? Report.StackSignature
                                    : Report.StackSignature.substr(0, Sep);
  };

  // Per crash location: total crashed runs and crashed runs per bug.
  std::map<std::string, size_t> LocationRuns;
  std::map<std::string, std::map<int, size_t>> LocationRunsWithBug;
  for (const FeedbackReport &Report : Set.reports()) {
    if (Report.Trap == TrapKind::None || Report.StackSignature.empty())
      continue;
    std::string Loc = locationOf(Report);
    ++LocationRuns[Loc];
    for (int Bug : BugIds)
      if (Report.hasBug(Bug))
        ++LocationRunsWithBug[Loc][Bug];
  }

  std::vector<StackStudyRow> Rows;
  for (size_t BugIdx = 0; BugIdx < BugIds.size(); ++BugIdx) {
    int Bug = BugIds[BugIdx];
    StackStudyRow Row;
    Row.BugId = Bug;
    std::string Cause =
        BugIdx < CauseFunctions.size() ? CauseFunctions[BugIdx] : "";
    std::set<std::string> Locations, Signatures;
    for (const FeedbackReport &Report : Set.reports()) {
      if (Report.Trap == TrapKind::None || !Report.hasBug(Bug) ||
          Report.StackSignature.empty())
        continue;
      ++Row.CrashingRuns;
      std::string Loc = locationOf(Report);
      if (!Cause.empty() && crashFunctionOf(Loc) == Cause)
        ++Row.CrashesNamingCause;
      Locations.insert(Loc);
      Signatures.insert(Report.StackSignature);
    }
    Row.DistinctLocations = Locations.size();
    Row.DistinctSignatures = Signatures.size();
    // Unique: this bug crashes at exactly one location, and every crash at
    // that location involves this bug ("crash location present iff the
    // corresponding bug was actually triggered", Section 6).
    if (Locations.size() == 1) {
      const std::string &Loc = *Locations.begin();
      Row.UniqueLocation = LocationRunsWithBug[Loc][Bug] == LocationRuns[Loc];
    }
    Rows.push_back(Row);
  }
  return Rows;
}
