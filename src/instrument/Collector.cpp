//===- instrument/Collector.cpp - Sampling and report collection ----------===//

#include "instrument/Collector.h"

#include "support/StringUtils.h"

#include <algorithm>

using namespace sbi;

SamplingPlan SamplingPlan::full(uint32_t NumSites) {
  SamplingPlan Plan;
  Plan.Rates.assign(NumSites, 1.0);
  Plan.Name = "full";
  return Plan;
}

SamplingPlan SamplingPlan::uniform(uint32_t NumSites, double Rate) {
  SamplingPlan Plan;
  Plan.Rates.assign(NumSites, std::clamp(Rate, 0.0, 1.0));
  Plan.Name = format("uniform(%.4f)", Rate);
  return Plan;
}

SamplingPlan
SamplingPlan::adaptive(const std::vector<double> &MeanReachPerRun,
                       double TargetSamples, double MinRate) {
  SamplingPlan Plan;
  Plan.Rates.reserve(MeanReachPerRun.size());
  for (double Mean : MeanReachPerRun) {
    double Rate = Mean <= TargetSamples ? 1.0 : TargetSamples / Mean;
    Rate = std::max(Rate, MinRate);
    // Sampling at a rate close to 1 costs more (a geometric draw per
    // reach) than it saves; snap such sites to complete monitoring.
    if (Rate > 0.5)
      Rate = 1.0;
    Plan.Rates.push_back(Rate);
  }
  Plan.Name = format("adaptive(target=%g,min=%g)", TargetSamples, MinRate);
  return Plan;
}

ReportCollector::ReportCollector(const SiteTable &Sites, SamplingPlan Plan,
                                 const std::vector<uint8_t> *EnabledSites)
    : Sites(Sites), Plan(std::move(Plan)) {
  assert(this->Plan.numSites() == Sites.numSites() &&
         "sampling plan does not match the site table");
  assert((!EnabledSites || EnabledSites->size() == Sites.numSites()) &&
         "enabled-site mask does not match the site table");
  uint32_t NumSites = Sites.numSites();
  SiteObserved.assign(NumSites, 0);
  PredTrue.assign(Sites.numPredicates(), 0);
  SiteRng.assign(NumSites, Rng(0));
  SiteDue.assign(NumSites, 0);
  buildNodeIndex(EnabledSites);
}

void ReportCollector::buildNodeIndex(
    const std::vector<uint8_t> *EnabledSites) {
  uint32_t NumNodes = 0;
  for (const SiteInfo &Site : Sites.sites())
    NumNodes = std::max(NumNodes, static_cast<uint32_t>(Site.NodeId) + 1);
  // A site at rate 0 never samples and never draws, so, like a masked site,
  // it is left out of its node's list.
  auto listed = [&](const SiteInfo &Site) {
    return (!EnabledSites || (*EnabledSites)[Site.Id]) &&
           Plan.rate(Site.Id) > 0.0;
  };
  NodeStart.assign(NumNodes + 1, 0);
  for (const SiteInfo &Site : Sites.sites())
    if (listed(Site))
      ++NodeStart[static_cast<size_t>(Site.NodeId) + 1];
  for (size_t I = 1; I < NodeStart.size(); ++I)
    NodeStart[I] += NodeStart[I - 1];
  NodeSites.resize(NodeStart.back());
  // Two forward passes with per-node cursors: the rate-1 sites, then the
  // sampled ones, each in id order.
  SampledStart.assign(NodeStart.begin(), NodeStart.end() - 1);
  for (const SiteInfo &Site : Sites.sites())
    if (listed(Site) && Plan.rate(Site.Id) >= 1.0)
      NodeSites[SampledStart[static_cast<size_t>(Site.NodeId)]++] = Site.Id;
  std::vector<uint32_t> Cursor = SampledStart;
  for (const SiteInfo &Site : Sites.sites())
    if (listed(Site) && Plan.rate(Site.Id) < 1.0)
      NodeSites[Cursor[static_cast<size_t>(Site.NodeId)]++] = Site.Id;

  size_t Widest = 0;
  Countdown.resize(NumNodes);
  NodeDue.assign(NumNodes, 0);
  for (uint32_t Node = 0; Node < NumNodes; ++Node) {
    size_t Width = NodeStart[Node + 1] - NodeStart[Node];
    Countdown[Node] = Width == 0 ? NeverDue : SamplingAccel::Uninit;
    Widest = std::max(Widest, Width);
  }
  DueScratch.resize(Widest);
  Accel.Countdown = Countdown.data();
  Accel.NumNodes = NumNodes;
}

void ReportCollector::beginRun(uint64_t RunSeed) {
  RunSeedBase = RunSeed;
  assert(TouchedSites.empty() && TouchedPreds.empty() &&
         TouchedNodes.empty() &&
         "takeReport must be called before the next beginRun");
}

RawReport ReportCollector::takeReport() {
  RawReport Report;
  std::sort(TouchedSites.begin(), TouchedSites.end());
  Report.SiteObservations.reserve(TouchedSites.size());
  for (uint32_t Site : TouchedSites) {
    Report.SiteObservations.emplace_back(Site, SiteObserved[Site]);
    SiteObserved[Site] = 0;
  }
  TouchedSites.clear();

  std::sort(TouchedPreds.begin(), TouchedPreds.end());
  Report.TruePredicates.reserve(TouchedPreds.size());
  for (uint32_t Pred : TouchedPreds) {
    Report.TruePredicates.emplace_back(Pred, PredTrue[Pred]);
    PredTrue[Pred] = 0;
  }
  TouchedPreds.clear();

  // Restore the Uninit sentinel so the next run's first reach of each node
  // reseeds its sites' streams. A node enters this list on its first reach,
  // which always reaches dueStep, so the list is complete even though most
  // reaches never called the collector. Every site of a node is reached as
  // often as the node, so the reach count the countdown implies is each
  // listed site's.
  for (uint32_t Node : TouchedNodes) {
    if (TrackReaches) {
      uint64_t Reaches = NodeDue[Node] - Countdown[Node];
      for (uint32_t I = NodeStart[Node]; I < NodeStart[Node + 1]; ++I) {
        uint32_t Site = NodeSites[I];
        Stats.Reaches[SchemeOf[Site]] += Reaches;
        Stats.ExpectedSamples[SchemeOf[Site]] +=
            static_cast<double>(Reaches) * Plan.rate(Site);
      }
    }
    Countdown[Node] = SamplingAccel::Uninit;
  }
  TouchedNodes.clear();
  return Report;
}

void ReportCollector::enableReachStats() {
  TrackReaches = true;
  SchemeOf.resize(Sites.numSites());
  for (uint32_t Site = 0; Site < Sites.numSites(); ++Site)
    SchemeOf[Site] = static_cast<uint8_t>(Sites.site(Site).SchemeKind);
}

inline ReportCollector::SiteSpan ReportCollector::dueSites(int NodeId) {
  if (Accel.skipReach(NodeId))
    return {};
  auto Node = static_cast<size_t>(static_cast<uint32_t>(NodeId));
  if (Node >= Accel.NumNodes)
    return {};
  return dueStep(Node);
}

ReportCollector::SiteSpan ReportCollector::dueStep(size_t Node) {
  const uint32_t *First = NodeSites.data() + NodeStart[Node];
  const uint32_t *Sampled = NodeSites.data() + SampledStart[Node];
  const uint32_t *Last = NodeSites.data() + NodeStart[Node + 1];
  uint64_t &Left = Countdown[Node];
  if (First == Last) {
    // A node without sites only runs out after 2^64 - 2 reaches.
    Left = NeverDue;
    return {};
  }
  uint64_t Reach = NodeDue[Node];
  if (Left == SamplingAccel::Uninit) {
    // Geometric skip counting: instead of flipping a coin on every reach,
    // each site draws how many reaches to skip until its next sample
    // (Section 2's statistically fair Bernoulli process, with the fast path
    // of the original CBI instrumentor). Each site draws from its own RNG
    // stream, seeded from (run seed, site id) on its node's first reach in
    // the run, so the draw sequence a site sees depends only on the run —
    // never on which other sites are instrumented or how often they are
    // reached.
    TouchedNodes.push_back(static_cast<uint32_t>(Node));
    for (const uint32_t *Site = Sampled; Site != Last; ++Site) {
      SiteRng[*Site].reseed(RunSeedBase ^
                            (0x5bd1e995bc9e1d34ULL +
                             *Site * 0x9e3779b97f4a7c15ULL));
      SiteDue[*Site] = SiteRng[*Site].nextGeometricSkip(Plan.rate(*Site));
    }
    Reach = 0;
  }

  // Rate-1 sites are due on every reach, so they hold the countdown at 0.
  uint64_t Next = First != Sampled ? Reach + 1 : UINT64_MAX;
  SiteSpan Due{First, Sampled};
  if (Sampled != Last) {
    uint32_t *Out = std::copy(First, Sampled, DueScratch.data());
    for (const uint32_t *Site = Sampled; Site != Last; ++Site) {
      uint64_t &At = SiteDue[*Site];
      if (At == Reach) {
        *Out++ = *Site;
        // The next sample comes after Skip more reaches. A rate too small
        // to sample draws UINT64_MAX: saturate, meaning never this run.
        uint64_t Skip = SiteRng[*Site].nextGeometricSkip(Plan.rate(*Site));
        At = Skip < UINT64_MAX - Reach ? Reach + 1 + Skip : UINT64_MAX;
      }
      Next = std::min(Next, At);
    }
    Due = {DueScratch.data(), Out};
  }
  NodeDue[Node] = Next;
  // Every due index left lies past Reach, so the countdown stays below
  // Uninit.
  Left = Next - Reach - 1;
  if (TrackReaches)
    for (uint32_t Site : Due)
      ++Stats.Samples[SchemeOf[Site]];
  return Due;
}

void ReportCollector::markObserved(uint32_t SiteId) {
  if (SiteObserved[SiteId] == 0)
    TouchedSites.push_back(SiteId);
  ++SiteObserved[SiteId];
}

void ReportCollector::markTrue(uint32_t PredId) {
  if (PredTrue[PredId] == 0)
    TouchedPreds.push_back(PredId);
  ++PredTrue[PredId];
}

void ReportCollector::recordSixWay(const SiteInfo &Site, int64_t Lhs,
                                   int64_t Rhs) {
  // Predicate order within the site: Lt, Le, Gt, Ge, Eq, Ne (see
  // SiteBuilder). All six are observed jointly; the true ones get counts.
  uint32_t First = Site.FirstPredicate;
  assert(Site.NumPredicates == 6 && "six-way site layout");
  if (Lhs < Rhs)
    markTrue(First + 0);
  if (Lhs <= Rhs)
    markTrue(First + 1);
  if (Lhs > Rhs)
    markTrue(First + 2);
  if (Lhs >= Rhs)
    markTrue(First + 3);
  if (Lhs == Rhs)
    markTrue(First + 4);
  if (Lhs != Rhs)
    markTrue(First + 5);
}

void ReportCollector::onBranch(int NodeId, bool Taken) {
  for (uint32_t SiteId : dueSites(NodeId)) {
    markObserved(SiteId);
    const SiteInfo &Site = Sites.site(SiteId);
    assert(Site.SchemeKind == Scheme::Branches && "node scheme mismatch");
    markTrue(Site.FirstPredicate + (Taken ? 0 : 1));
  }
}

void ReportCollector::onScalarReturn(int NodeId, int64_t Result) {
  for (uint32_t SiteId : dueSites(NodeId)) {
    markObserved(SiteId);
    recordSixWay(Sites.site(SiteId), Result, 0);
  }
}

void ReportCollector::onScalarAssign(int NodeId, int64_t NewValue,
                                     const FrameView &Frame) {
  // The sampling decision comes before any comparand is read: skipped
  // reaches must stay cheap (this is the whole point of sampling).
  for (uint32_t SiteId : dueSites(NodeId)) {
    const SiteInfo &Site = Sites.site(SiteId);
    int64_t Rhs;
    if (Site.PairIsConstant) {
      Rhs = Site.PairConstant;
    } else {
      const Value &Comparand = Frame.get(Site.PairVar);
      // A defensive guard: a non-int comparand (impossible for lexically
      // visible ints, which are always initialized) is just not observed.
      if (!Comparand.isInt())
        continue;
      Rhs = Comparand.asInt();
    }
    markObserved(SiteId);
    recordSixWay(Site, NewValue, Rhs);
  }
}
