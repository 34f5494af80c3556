//===- harness/Campaign.cpp - End-to-end experiment campaigns -------------===//

#include "harness/Campaign.h"

#include "feedback/Corpus.h"
#include "obs/Telemetry.h"
#include "obs/Tracer.h"
#include "runtime/Interp.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <thread>

using namespace sbi;

std::unique_ptr<Program>
sbi::compileSubjectSource(const std::string &Source, const std::string &Name) {
  std::vector<Diagnostic> Diags;
  std::unique_ptr<Program> Prog = parseAndAnalyze(Source, Diags);
  if (!Prog) {
    std::fprintf(stderr, "subject '%s' failed to compile:\n%s", Name.c_str(),
                 renderDiagnostics(Diags).c_str());
    std::abort();
  }
  return Prog;
}

namespace {

/// Derives a per-run seed stream from the campaign seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream, uint64_t Run) {
  uint64_t X = Seed ^ (Stream * 0x9e3779b97f4a7c15ULL) ^
               (Run * 0xc2b2ae3d27d4eb4fULL);
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

std::string joinStack(const std::vector<std::string> &Frames) {
  std::string Sig;
  for (size_t I = 0; I < Frames.size(); ++I) {
    if (I != 0)
      Sig += '>';
    Sig += Frames[I];
  }
  return Sig;
}

/// Mean planned sampling rate over the sites of one scheme; 1.0 for a
/// scheme with no sites (vacuously complete monitoring).
double meanPlannedRate(const SiteTable &Sites, const SamplingPlan &Plan,
                       Scheme Kind) {
  double Total = 0.0;
  size_t Count = 0;
  for (uint32_t Site = 0; Site < Sites.numSites(); ++Site)
    if (Sites.site(Site).SchemeKind == Kind) {
      Total += Plan.rate(Site);
      ++Count;
    }
  return Count == 0 ? 1.0 : Total / static_cast<double>(Count);
}

/// What one worker learns from its runs besides the reports themselves.
/// Each worker keeps one and merges it into the campaign's once, after its
/// last unit, whether the reports stay in memory or spill to shards.
struct RunTally {
  size_t Runs = 0;
  size_t Failing = 0;
  uint64_t Bytes = 0; ///< Shard bytes written (spill mode).
  std::vector<CampaignResult::BugStats> Bugs;
  ReportCollector::ReachStats Reaches;

  explicit RunTally(const Subject &Subj) {
    for (const BugSpec &Bug : Subj.Bugs)
      Bugs.push_back({Bug.Id, 0, 0});
  }

  void add(const FeedbackReport &Report) {
    ++Runs;
    Failing += Report.Failed;
    for (CampaignResult::BugStats &Bug : Bugs)
      if (Report.hasBug(Bug.BugId)) {
        ++Bug.Triggered;
        Bug.TriggeredAndFailed += Report.Failed;
      }
  }

  void merge(const RunTally &Other) {
    Runs += Other.Runs;
    Failing += Other.Failing;
    Bytes += Other.Bytes;
    for (size_t B = 0; B < Bugs.size(); ++B) {
      Bugs[B].Triggered += Other.Bugs[B].Triggered;
      Bugs[B].TriggeredAndFailed += Other.Bugs[B].TriggeredAndFailed;
    }
    for (size_t K = 0; K < Reaches.Reaches.size(); ++K) {
      Reaches.Reaches[K] += Other.Reaches.Reaches[K];
      Reaches.Samples[K] += Other.Reaches.Samples[K];
      Reaches.ExpectedSamples[K] += Other.Reaches.ExpectedSamples[K];
    }
  }
};

} // namespace

CampaignResult sbi::runCampaign(const Subject &Subj,
                                const CampaignOptions &Options) {
  ScopedSpan CampaignSpan("campaign", "harness");
  CampaignSpan.arg("runs", Options.NumRuns);
  const bool Obs = Telemetry::enabled();
  MetricsRegistry &Metrics = Telemetry::metrics();
  // Summary gauges are maintained unconditionally — an O(1) cost per
  // campaign that lets renderers (the HTML report header) rely on them.
  // Everything per-run or per-reach below is gated on Telemetry::enabled().
  // Function-local statics register each metric once per process; gauges
  // and the label describe the most recent campaign, counters and
  // histograms accumulate across campaigns.
  static Gauge &RunsGauge = Metrics.registerGauge("campaign.runs");
  static Gauge &FailingGauge = Metrics.registerGauge("campaign.failing");
  static Gauge &WallMsGauge = Metrics.registerGauge("campaign.wall_ms");
  static Gauge &RunsPerSecGauge =
      Metrics.registerGauge("campaign.runs_per_sec");
  static Label &SamplingLabel =
      Metrics.registerLabel("campaign.sampling_mode");
  static Counter &RunsTotal = Metrics.registerCounter("campaign.runs_total");
  static Counter &TrainingRunsTotal =
      Metrics.registerCounter("campaign.training_runs_total");
  static Histogram &StepHist =
      Metrics.registerHistogram("campaign.run_steps");
  static Histogram &PadHist =
      Metrics.registerHistogram("campaign.overrun_pad");
  static Histogram &WorkerHist =
      Metrics.registerHistogram("campaign.runs_per_worker");
  auto WallStart = std::chrono::steady_clock::now();

  std::optional<ScopedSpan> ParseSpan(std::in_place, "parse", "harness");
  CampaignResult Result;
  Result.Subj = &Subj;
  Result.Prog = compileSubjectSource(Subj.Source, Subj.Name);
  if (Subj.UseOutputOracle)
    Result.Golden =
        compileSubjectSource(Subj.GoldenSource, Subj.Name + "-golden");
  Result.LinesOfCode = Result.Prog->NumLines;
  Result.Sites = SiteTable::build(*Result.Prog);

  // Static pruning: classify sites up front and instrument only the Live
  // ones. The per-site mask feeds every collector (including the trainer);
  // the per-node mask lets the VM compiler skip observation opcodes. Site
  // ids are never renumbered.
  std::vector<uint8_t> EnabledSites;
  const std::vector<uint8_t> *SiteMask = nullptr;
  std::vector<uint8_t> ObservedNodes;
  if (Options.StaticPrune) {
    ScopedSpan PruneSpan("static_prune", "harness");
    Result.StaticPruned = true;
    Result.Prune = computePrune(*Result.Prog, Result.Sites);
    EnabledSites = Result.Prune.siteEnabledMask();
    SiteMask = &EnabledSites;
    ObservedNodes =
        Result.Prune.observedNodeMask(Result.Prog->NumNodeIds, Result.Sites);
  }

  // Both engines produce bit-identical reports (differential-tested).
  CompiledProgram Bytecode, GoldenBytecode;
  if (Options.Exec == Engine::VM) {
    CompileOptions CompOpts;
    if (Options.StaticPrune)
      CompOpts.ObservedNodes = &ObservedNodes;
    Bytecode = compileProgram(*Result.Prog, CompOpts);
    // The golden build runs without an observer, so it compiles unpruned.
    if (Result.Golden)
      GoldenBytecode = compileProgram(*Result.Golden);
  }
  ParseSpan.reset();
  auto executeBuggy = [&](const RunConfig &Config) {
    return Options.Exec == Engine::VM ? runCompiled(Bytecode, Config)
                                      : runProgram(*Result.Prog, Config);
  };
  auto executeGolden = [&](const RunConfig &Config) {
    return Options.Exec == Engine::VM
               ? runCompiled(GoldenBytecode, Config)
               : runProgram(*Result.Golden, Config);
  };
  // Each run is fully determined by (campaign seed, stream, run index): its
  // input and overrun padding come from seed stream Stream, its sampling
  // coins from Stream + 1. Campaign runs use streams 1/2, training 100/101.
  auto beginRun = [&](uint64_t Stream, size_t Run,
                      ReportCollector &Collector) {
    Rng InputRng(mixSeed(Options.Seed, Stream, Run));
    RunConfig Config;
    Config.Args = Subj.GenerateInput(InputRng);
    Config.OverrunPad =
        static_cast<size_t>(InputRng.nextBelow(Options.MaxOverrunPad + 1));
    Config.StepLimit = Options.StepLimit;
    Config.Observer = &Collector;
    Collector.beginRun(mixSeed(Options.Seed, Stream + 1, Run));
    return Config;
  };

  // --- Choose the sampling plan -----------------------------------------
  std::optional<ScopedSpan> PlanSpan(std::in_place, "plan_training", "harness");
  if (Options.Mode == SamplingMode::None) {
    Result.Plan = SamplingPlan::full(Result.Sites.numSites());
  } else if (Options.Mode == SamplingMode::Uniform) {
    Result.Plan =
        SamplingPlan::uniform(Result.Sites.numSites(), Options.UniformRate);
  } else {
    // Train per-site reach counts on preliminary runs (Section 4: rates
    // inversely proportional to observed execution frequency).
    // The trainer honors the prune mask too: masked sites report zero
    // reaches (their rate is irrelevant — they are never instrumented),
    // while retained sites' reach counts are unchanged by construction, so
    // the adaptive rates of retained sites match the unpruned campaign's.
    ReportCollector Trainer(Result.Sites,
                            SamplingPlan::full(Result.Sites.numSites()),
                            SiteMask);
    std::vector<double> TotalReaches(Result.Sites.numSites(), 0.0);
    for (size_t Run = 0; Run < Options.TrainingRuns; ++Run) {
      executeBuggy(beginRun(/*Stream=*/100, Run, Trainer));
      RawReport Raw = Trainer.takeReport();
      for (const auto &[Site, Count] : Raw.SiteObservations)
        TotalReaches[Site] += static_cast<double>(Count);
    }
    std::vector<double> MeanReach(Result.Sites.numSites(), 0.0);
    if (Options.TrainingRuns > 0)
      for (size_t Site = 0; Site < MeanReach.size(); ++Site)
        MeanReach[Site] = TotalReaches[Site] /
                          static_cast<double>(Options.TrainingRuns);
    Result.Plan = SamplingPlan::adaptive(MeanReach, Options.TargetSamples,
                                         Options.MinRate);
    if (Obs)
      TrainingRunsTotal.add(Options.TrainingRuns);
  }
  PlanSpan.reset();

  // --- Main campaign -----------------------------------------------------
  // The loop runs over units: run K in memory, or shard K — runs
  // [K*S, (K+1)*S) in run order — when spilling. Worker T takes units T,
  // T+Threads, ...; workers fill pre-sized slots or whole shards and share
  // nothing but read-only state, so any thread count produces bit-identical
  // reports and corpus bytes.
  const bool Spill = !Options.SpillDir.empty();
  const size_t ShardSize = std::max<size_t>(1, Options.SpillShardReports);
  // An empty spilled campaign still emits one (empty) shard so the
  // directory is a well-formed corpus.
  const size_t NumUnits =
      Spill ? std::max<size_t>(1, (Options.NumRuns + ShardSize - 1) /
                                      ShardSize)
            : Options.NumRuns;
  // hardware_concurrency() may legitimately return 0; resolveThreadCount
  // clamps so a campaign never launches zero workers.
  const size_t Threads = resolveThreadCount(Options.Threads, NumUnits);
  std::vector<FeedbackReport> Collected(Spill ? 0 : Options.NumRuns);

  std::atomic<size_t> RunsCompleted{0};
  const size_t ProgressStride = std::max<size_t>(1, Options.NumRuns / 200);

  auto oneRun = [&](size_t Run, ReportCollector &Collector) {
    RunConfig Config = beginRun(/*Stream=*/1, Run, Collector);
    RunOutcome Outcome = executeBuggy(Config);
    if (Obs) {
      RunsTotal.add(1);
      StepHist.record(Outcome.Steps);
      PadHist.record(Config.OverrunPad);
    }

    FeedbackReport Report;
    Report.Counts = Collector.takeReport();
    Report.Failed = Outcome.failed();
    Report.Trap = Outcome.Trap;
    Report.ExitCode = Outcome.ExitCode;
    Report.StackSignature = joinStack(Outcome.StackTrace);
    for (int Bug : Outcome.BugsTriggered)
      Report.BugMask |= FeedbackReport::bugBit(Bug);

    // Output oracle: compare against the golden build on the same input.
    if (!Report.Failed && Subj.UseOutputOracle) {
      Config.Observer = nullptr;
      RunOutcome GoldenOutcome = executeGolden(Config);
      assert(!GoldenOutcome.crashed() && "golden build must never crash");
      if (GoldenOutcome.Output != Outcome.Output)
        Report.Failed = true;
    }

    if (Options.Progress) {
      size_t Done = RunsCompleted.fetch_add(1, std::memory_order_relaxed) + 1;
      if (Done % ProgressStride == 0 || Done == Options.NumRuns)
        Options.Progress(Done, Options.NumRuns);
    }
    return Report;
  };

  RunTally Total(Subj);
  std::mutex TotalMu; // Guards Total and Result.Error.
  std::atomic<bool> Stop{false};
  // Keeps the first spill failure and stops every worker at its next unit.
  auto fail = [&](std::string Error) {
    std::lock_guard<std::mutex> Lock(TotalMu);
    if (Result.Error.empty())
      Result.Error = std::move(Error);
    Stop.store(true, std::memory_order_relaxed);
  };

  auto runUnit = [&](size_t Unit, ReportCollector &Collector,
                     RunTally &Tally) {
    if (!Spill) {
      Collected[Unit] = oneRun(Unit, Collector);
      Tally.add(Collected[Unit]);
      return;
    }
    const size_t Begin = Unit * ShardSize;
    const size_t End = std::min(Options.NumRuns, Begin + ShardSize);
    ScopedSpan ShardSpan("spill_shard", "harness");
    ShardSpan.arg("shard", Unit);
    ShardSpan.arg("reports", End - Begin);
    CorpusWriter Writer;
    std::string Error;
    std::string Path = Options.SpillDir + "/" +
                       corpusShardName(static_cast<uint32_t>(Unit));
    bool Ok = Writer.open(Path, static_cast<uint32_t>(Unit),
                          Result.Sites.numSites(),
                          Result.Sites.numPredicates(), Error);
    for (size_t Run = Begin; Ok && Run < End; ++Run) {
      FeedbackReport Report = oneRun(Run, Collector);
      Tally.add(Report);
      Ok = Writer.append(Report, Error);
    }
    if (Ok && Writer.finalize(Error))
      Tally.Bytes += Writer.bytesWritten();
    else
      fail(format("shard %zu: %s", Unit, Error.c_str()));
  };

  auto worker = [&](size_t T) {
    ScopedSpan WorkerSpan("worker", "harness");
    WorkerSpan.arg("worker", T);
    ReportCollector Collector(Result.Sites, Result.Plan, SiteMask);
    if (Obs)
      Collector.enableReachStats();
    RunTally Tally(Subj);
    for (size_t Unit = T;
         Unit < NumUnits && !Stop.load(std::memory_order_relaxed);
         Unit += Threads)
      runUnit(Unit, Collector, Tally);
    // Realized sampling rates need per-scheme reach counts, which only the
    // collectors see (all zero unless telemetry enabled them).
    Tally.Reaches = Collector.reachStats();
    if (Obs)
      WorkerHist.record(Tally.Runs);
    WorkerSpan.arg("runs", Tally.Runs);
    std::lock_guard<std::mutex> Lock(TotalMu);
    Total.merge(Tally);
  };

  auto RunLoopStart = std::chrono::steady_clock::now();
  {
    ScopedSpan RunLoopSpan("run_loop", "harness");
    std::string DirError;
    if (Spill && !clearCorpusDir(Options.SpillDir, DirError))
      fail(std::move(DirError));
    // Worker 0 is the calling thread; the others join as the block ends,
    // on every path out of it.
    std::vector<std::jthread> Helpers;
    for (size_t T = 1; T < Threads; ++T)
      Helpers.emplace_back(worker, T);
    worker(0);
  }
  double RunLoopSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    RunLoopStart)
          .count();
  if (!Result.Error.empty())
    return Result;

  {
    ScopedSpan LabelSpan("label", "harness");
    Result.Reports =
        ReportSet(Result.Sites.numSites(), Result.Sites.numPredicates());
    for (FeedbackReport &Report : Collected)
      Result.Reports.add(std::move(Report));
    Result.Bugs = std::move(Total.Bugs);
  }

  // --- Campaign summary --------------------------------------------------
  RunsGauge.set(static_cast<double>(Options.NumRuns));
  SamplingLabel.set(Result.Plan.name());
  double WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    WallStart)
          .count();
  WallMsGauge.set(WallSeconds * 1e3);
  if (RunLoopSeconds > 0.0)
    RunsPerSecGauge.set(static_cast<double>(Options.NumRuns) /
                        RunLoopSeconds);
  if (Spill) {
    Result.SpilledShards = NumUnits;
    Result.SpilledReports = Total.Runs;
    Result.SpilledFailing = Total.Failing;
    Result.SpilledBytes = Total.Bytes;
    static Gauge &SpillShardsGauge =
        Metrics.registerGauge("campaign.spill.shards");
    static Gauge &SpillBytesGauge =
        Metrics.registerGauge("campaign.spill.bytes");
    SpillShardsGauge.set(static_cast<double>(Result.SpilledShards));
    SpillBytesGauge.set(static_cast<double>(Result.SpilledBytes));
  }
  FailingGauge.set(static_cast<double>(Result.numFailing()));

  if (Obs) {
    // Planned vs. realized sampling rate per instrumentation scheme.
    // Realized = samples/reaches over the whole campaign; drift from the
    // planned mean is how one validates the fair-coin machinery at scale.
    static const char *SchemeNames[3] = {"branches", "returns",
                                         "scalar_pairs"};
    static Gauge *PlannedGauges[3] = {nullptr, nullptr, nullptr};
    static Gauge *RealizedGauges[3] = {nullptr, nullptr, nullptr};
    const ReportCollector::ReachStats &Reaches = Total.Reaches;
    for (size_t K = 0; K < 3; ++K) {
      if (!PlannedGauges[K]) {
        PlannedGauges[K] = &Metrics.registerGauge(
            format("campaign.sampling.%s.planned_rate", SchemeNames[K]));
        RealizedGauges[K] = &Metrics.registerGauge(
            format("campaign.sampling.%s.realized_rate", SchemeNames[K]));
      }
      if (Reaches.Reaches[K] > 0) {
        // Reach-weighted planned rate: under a fair Bernoulli coin the
        // realized rate converges to it, so any drift is a sampler bug.
        double N = static_cast<double>(Reaches.Reaches[K]);
        PlannedGauges[K]->set(Reaches.ExpectedSamples[K] / N);
        RealizedGauges[K]->set(static_cast<double>(Reaches.Samples[K]) / N);
      } else {
        // Scheme never reached: fall back to the plan's unweighted mean.
        PlannedGauges[K]->set(meanPlannedRate(Result.Sites, Result.Plan,
                                              static_cast<Scheme>(K)));
      }
    }
  }

  return Result;
}
