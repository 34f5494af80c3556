//===- instrument/Collector.h - Sampling and feedback-report collection ---===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic half of the instrumentation system:
///
///   - SamplingPlan: a per-site sampling rate. Uniform plans model the
///     paper's fixed 1/100 Bernoulli sampling; adaptive plans implement the
///     nonuniform strategy of Section 4 (rates inversely proportional to
///     execution frequency, targeting ~100 expected samples per site per
///     run, clamped to a 1/100 minimum).
///
///   - ReportCollector: an ExecutionObserver that makes the per-site
///     Bernoulli sampling decision (a geometric skip count per site, and one
///     countdown per node to the nearest due site) and accumulates one
///     run's observation counts, producing a sparse RawReport. "P
///     observed" means P's site was reached AND sampled; "P observed true"
///     additionally requires the predicate to hold.
///
/// Sampling draws come from an independent per-site RNG stream seeded from
/// (run seed, site id). This makes each site's coin-flip sequence a function
/// of the run alone — disabling any subset of sites (static pruning) leaves
/// every retained site's draws bit-identical, which is what makes pruned and
/// unpruned campaigns directly comparable.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_INSTRUMENT_COLLECTOR_H
#define SBI_INSTRUMENT_COLLECTOR_H

#include "instrument/Sites.h"
#include "runtime/Observer.h"
#include "support/Random.h"

#include <array>
#include <string>
#include <vector>

namespace sbi {

/// Per-site sampling rates in [0, 1].
class SamplingPlan {
public:
  /// Every site sampled on every reach (complete monitoring).
  static SamplingPlan full(uint32_t NumSites);

  /// Every site sampled independently at \p Rate (e.g. 1/100).
  static SamplingPlan uniform(uint32_t NumSites, double Rate);

  /// The nonuniform plan of Section 4: given each site's mean reach count
  /// per run (measured on training runs), choose rates so each site yields
  /// about \p TargetSamples samples per run. Sites reached fewer than
  /// \p TargetSamples times get rate 1.0; rates never drop below
  /// \p MinRate.
  static SamplingPlan adaptive(const std::vector<double> &MeanReachPerRun,
                               double TargetSamples = 100.0,
                               double MinRate = 0.01);

  double rate(uint32_t Site) const { return Rates[Site]; }
  uint32_t numSites() const { return static_cast<uint32_t>(Rates.size()); }
  const std::string &name() const { return Name; }

private:
  std::vector<double> Rates;
  std::string Name;
};

/// One run's sparse observation counts.
struct RawReport {
  /// (site id, times sampled) sorted by site id.
  std::vector<std::pair<uint32_t, uint32_t>> SiteObservations;
  /// (predicate id, times observed true) sorted by predicate id.
  std::vector<std::pair<uint32_t, uint32_t>> TruePredicates;
};

/// Observes one run at a time; reusable across runs (beginRun resets).
class ReportCollector : public ExecutionObserver {
public:
  /// \p EnabledSites, when non-null, is a per-site 0/1 mask (indexed by site
  /// id); sites with a 0 entry are never sampled, never observed, and cost
  /// zero per-reach work — they are left out of their node's site list.
  /// The mask is copied into the node index, so the pointer need not outlive
  /// the constructor call.
  ReportCollector(const SiteTable &Sites, SamplingPlan Plan,
                  const std::vector<uint8_t> *EnabledSites = nullptr);

  /// Starts a fresh run whose sampling coin flips derive from \p RunSeed.
  void beginRun(uint64_t RunSeed);

  /// Returns the finished run's report and resets internal scratch.
  RawReport takeReport();

  void onBranch(int NodeId, bool Taken) override;
  void onScalarReturn(int NodeId, int64_t Result) override;
  void onScalarAssign(int NodeId, int64_t NewValue,
                      const FrameView &Frame) override;

  /// The countdown-hoisting handle (see SamplingAccel in Observer.h).
  const SamplingAccel *samplingAccel() const override { return &Accel; }

  const SamplingPlan &plan() const { return Plan; }

  /// Per-scheme reach/sample totals, accumulated across all runs since
  /// enableReachStats(): how often sites of each scheme were reached vs.
  /// actually sampled. Samples/Reaches is the *realized* sampling rate the
  /// telemetry layer compares against the plan. Off by default. When on, a
  /// sample costs one increment and takeReport derives each reached node's
  /// reach count from its countdown, so skipped reaches stay on the fast
  /// path. Reaches count sites sampled at a positive rate; a site at rate 0,
  /// like a masked one, is never instrumented.
  struct ReachStats {
    std::array<uint64_t, 3> Reaches{}; ///< Indexed by Scheme.
    std::array<uint64_t, 3> Samples{};
    /// Sum of the planned rate over every reach: what Samples converges
    /// to if the Bernoulli coin is fair (reach-weighted planned rate =
    /// ExpectedSamples / Reaches, directly comparable to Samples /
    /// Reaches).
    std::array<double, 3> ExpectedSamples{};
  };
  void enableReachStats();
  const ReachStats &reachStats() const { return Stats; }

private:
  /// A run of site ids.
  struct SiteSpan {
    const uint32_t *First = nullptr;
    const uint32_t *Last = nullptr;
    const uint32_t *begin() const { return First; }
    const uint32_t *end() const { return Last; }
  };

  /// The sites of \p NodeId due to sample on this reach. A reach that is
  /// not due costs one decrement of the node's countdown; otherwise
  /// dueStep picks the due sites.
  SiteSpan dueSites(int NodeId);
  /// The due reach of \p Node, or its first reach this run: seeds the
  /// node's streams on a first reach, redraws its due sites and resets
  /// its countdown to the nearest next sample.
  SiteSpan dueStep(size_t Node);
  void markObserved(uint32_t SiteId);
  void markTrue(uint32_t PredId);
  /// Records the six relational predicates of a returns/scalar-pairs site.
  void recordSixWay(const SiteInfo &Site, int64_t Lhs, int64_t Rhs);

  /// Builds the per-node site lists and countdowns.
  void buildNodeIndex(const std::vector<uint8_t> *EnabledSites);

  const SiteTable &Sites;
  SamplingPlan Plan;

  /// CSR node -> site lists. Node N lists its enabled sites with a positive
  /// rate, NodeSites[NodeStart[N] .. NodeStart[N+1]): first the rate-1
  /// sites, which are due on every reach and never draw, then from
  /// SampledStart[N] the sites whose rate lies in (0, 1).
  std::vector<uint32_t> NodeStart;
  std::vector<uint32_t> SampledStart;
  std::vector<uint32_t> NodeSites;

  /// Seed of the current run; each sampled site derives its own RNG stream
  /// from it on its node's first reach (see dueStep).
  uint64_t RunSeedBase = 0;
  std::vector<Rng> SiteRng;
  /// Per sampled site: the index of the node reach (from 0 within the run)
  /// at which the site next samples, saturating at UINT64_MAX.
  std::vector<uint64_t> SiteDue;
  /// Per node: the reach index at which its countdown next runs out, the
  /// nearest SiteDue of its sampled sites (or the next reach, when it has a
  /// rate-1 site). NodeDue minus the countdown is the node's reach count.
  std::vector<uint64_t> NodeDue;
  /// Per node: SamplingAccel's countdown, which engines decrement in place
  /// through Accel. Uninit until the node's first reach of the run; a node
  /// that lists no site starts at NeverDue, so it is never due.
  std::vector<uint64_t> Countdown;
  static constexpr uint64_t NeverDue = SamplingAccel::Uninit - 1;
  /// Room for the due sites of the widest node.
  std::vector<uint32_t> DueScratch;

  bool TrackReaches = false;
  ReachStats Stats;
  /// Site id -> Scheme, materialized by enableReachStats().
  std::vector<uint8_t> SchemeOf;

  // Dense scratch, reset in O(touched) at run end.
  std::vector<uint32_t> SiteObserved;
  std::vector<uint32_t> PredTrue;
  std::vector<uint32_t> TouchedSites;
  std::vector<uint32_t> TouchedPreds;
  /// Nodes reached this run; takeReport restores their Uninit countdowns.
  std::vector<uint32_t> TouchedNodes;

  SamplingAccel Accel;
};

} // namespace sbi

#endif // SBI_INSTRUMENT_COLLECTOR_H
