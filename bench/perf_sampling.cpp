//===- bench/perf_sampling.cpp - Instrumentation overhead (Section 2) -----===//
//
// Section 2's overhead claim: sparse random sampling keeps instrumentation
// cost low ("a sampling rate of 1/100 keeps the performance overhead low,
// often unmeasurable"). This google-benchmark binary executes a pool of
// MOSS inputs under increasing levels of monitoring:
//
//   uninstrumented    no observer at all,
//   uniform 1/1000,
//   uniform 1/100     the paper's default rate,
//   uniform 1/10,
//   adaptive          the nonuniform plan of Section 4,
//   full              complete monitoring (rate 1.0).
//
// Expected shape: cost grows with the effective sampling rate; uniform
// 1/100 sits well below full monitoring. Two honest deviations from the
// paper's absolute numbers: (a) the interpreter pays an observer call per
// dynamic event even when the sample is skipped, while CBI's compiled fast
// path bypasses instrumentation entirely; the VM consumes a skipped reach
// with one decrement of its node's countdown, however many sites the node
// carries, but a reach on which any site is due still costs an observer
// call, so neither floor is "unmeasurable" (EXPERIMENTS.md has the
// figures); (b) the adaptive plan targets ~100 samples per site per run,
// and on subjects this small most sites are reached fewer than 100 times,
// so adaptive deliberately approaches complete monitoring — its overhead
// win materializes on programs whose hot sites execute orders of
// magnitude more often than the target.
//
// Besides the google-benchmark suites, the binary has four study modes:
//
//   --prune-bench[=PATH]     the static-pruning throughput study: full
//                            32k-run MOSS campaigns with and without
//                            --static-prune on both execution engines,
//                            recording wall time, runs/sec, prune stats,
//                            and a retained-predicate ranking check into
//                            BENCH_sampling.json (the committed copy,
//                            bench/baselines/BENCH_sampling.json, is the
//                            reference measurement EXPERIMENTS.md cites);
//   --smoke[=PATH]           the same study at 2048 runs, sized for the
//                            CI bench-sampling-smoke gate;
//   --dispatch-bench[=PATH]  the VM-dispatch study: both engines at the
//                            paper's 1/100 uniform rate, recording
//                            runs/sec, the selected dispatch strategy,
//                            the VM's speedup, and a cross-engine report
//                            bit-identity check into BENCH_dispatch.json;
//   --dispatch-smoke[=PATH]  the dispatch study at 1024 runs, for CI.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "instrument/Collector.h"
#include "runtime/Interp.h"
#include "subjects/Subjects.h"
#include "support/Random.h"
#include "vm/Bytecode.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>

using namespace sbi;

namespace {

/// Shared fixture state: the compiled MOSS program, its sites, and a pool
/// of non-crashing inputs drawn from the study's real input distribution
/// (crashing runs end early and would understate the overhead).
struct MossFixture {
  std::unique_ptr<Program> Prog;
  CompiledProgram Bytecode;
  SiteTable Sites;
  std::vector<std::vector<std::string>> InputPool;

  static const MossFixture &get() {
    static MossFixture Fixture = [] {
      MossFixture F;
      F.Prog = compileSubjectSource(mossSubject().Source, "moss");
      F.Bytecode = compileProgram(*F.Prog);
      F.Sites = SiteTable::build(*F.Prog);
      Rng InputRng(0xfeedbeefULL);
      while (F.InputPool.size() < 16) {
        std::vector<std::string> Args = mossSubject().GenerateInput(InputRng);
        RunConfig Config;
        Config.Args = Args;
        Config.OverrunPad = 4;
        if (!runProgram(*F.Prog, Config).failed())
          F.InputPool.push_back(std::move(Args));
      }
      return F;
    }();
    return Fixture;
  }
};

void runOnce(benchmark::State &State, ReportCollector *Collector,
             uint64_t &RunSeed, bool UseVM = false) {
  const MossFixture &Fixture = MossFixture::get();
  uint64_t Steps = 0;
  size_t Next = 0;
  for (auto _ : State) {
    RunConfig Config;
    Config.Args = Fixture.InputPool[Next];
    Next = (Next + 1) % Fixture.InputPool.size();
    Config.OverrunPad = 4;
    Config.Observer = Collector;
    if (Collector)
      Collector->beginRun(RunSeed++);
    RunOutcome Outcome = UseVM ? runCompiled(Fixture.Bytecode, Config)
                               : runProgram(*Fixture.Prog, Config);
    benchmark::DoNotOptimize(Outcome.ExitCode);
    Steps += Outcome.Steps;
    if (Collector) {
      RawReport Report = Collector->takeReport();
      benchmark::DoNotOptimize(Report.TruePredicates.size());
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
}

void BM_Uninstrumented(benchmark::State &State) {
  uint64_t Seed = 1;
  runOnce(State, nullptr, Seed);
}

void BM_UniformRate(benchmark::State &State) {
  const MossFixture &Fixture = MossFixture::get();
  double Rate = 1.0 / static_cast<double>(State.range(0));
  ReportCollector Collector(
      Fixture.Sites, SamplingPlan::uniform(Fixture.Sites.numSites(), Rate));
  uint64_t Seed = 1;
  runOnce(State, &Collector, Seed);
}

void BM_Adaptive(benchmark::State &State) {
  const MossFixture &Fixture = MossFixture::get();
  // Train the plan on a handful of runs, outside the timed region.
  ReportCollector Trainer(Fixture.Sites,
                          SamplingPlan::full(Fixture.Sites.numSites()));
  std::vector<double> Mean(Fixture.Sites.numSites(), 0.0);
  Rng InputRng(0x1234ULL);
  const int TrainingRuns = 60;
  for (int Run = 0; Run < TrainingRuns; ++Run) {
    RunConfig Config;
    Config.Args = mossSubject().GenerateInput(InputRng);
    Config.OverrunPad = 4;
    Config.Observer = &Trainer;
    Trainer.beginRun(static_cast<uint64_t>(Run));
    runProgram(*Fixture.Prog, Config);
    for (const auto &[Site, Count] : Trainer.takeReport().SiteObservations)
      Mean[Site] += static_cast<double>(Count) / TrainingRuns;
  }
  ReportCollector Collector(Fixture.Sites, SamplingPlan::adaptive(Mean));
  uint64_t Seed = 1;
  runOnce(State, &Collector, Seed);
}

void BM_FullMonitoring(benchmark::State &State) {
  const MossFixture &Fixture = MossFixture::get();
  ReportCollector Collector(Fixture.Sites,
                            SamplingPlan::full(Fixture.Sites.numSites()));
  uint64_t Seed = 1;
  runOnce(State, &Collector, Seed);
}

} // namespace

void BM_UninstrumentedVM(benchmark::State &State) {
  uint64_t Seed = 1;
  runOnce(State, nullptr, Seed, /*UseVM=*/true);
}

void BM_UniformRateVM(benchmark::State &State) {
  const MossFixture &Fixture = MossFixture::get();
  double Rate = 1.0 / static_cast<double>(State.range(0));
  ReportCollector Collector(
      Fixture.Sites, SamplingPlan::uniform(Fixture.Sites.numSites(), Rate));
  uint64_t Seed = 1;
  runOnce(State, &Collector, Seed, /*UseVM=*/true);
}

void BM_FullMonitoringVM(benchmark::State &State) {
  const MossFixture &Fixture = MossFixture::get();
  ReportCollector Collector(Fixture.Sites,
                            SamplingPlan::full(Fixture.Sites.numSites()));
  uint64_t Seed = 1;
  runOnce(State, &Collector, Seed, /*UseVM=*/true);
}

BENCHMARK(BM_Uninstrumented);
BENCHMARK(BM_UninstrumentedVM);
BENCHMARK(BM_FullMonitoringVM);
BENCHMARK(BM_UniformRate)->Arg(1000)->Arg(100)->Arg(10);
BENCHMARK(BM_UniformRateVM)->Arg(1000)->Arg(100)->Arg(10);
BENCHMARK(BM_Adaptive);
BENCHMARK(BM_FullMonitoring);

namespace {

/// The static-pruning throughput study: NumRuns-run MOSS campaigns, pruned
/// and unpruned, one per execution engine, single-threaded so runs/sec is
/// a per-core number (32768 for the reference measurement, 2048 for the CI
/// smoke gate). Also re-checks the pruning contract at benchmark scale:
/// retained-predicate rankings bit-identical under the default analysis,
/// every prune stat recorded alongside the timing.
int runPruneBench(const std::string &OutPath, size_t NumRuns) {
  using Clock = std::chrono::steady_clock;

  struct Row {
    const char *EngineName;
    Engine Exec;
    bool Pruned;
    double WallMs = 0.0;
    double RunsPerSec = 0.0;
    CampaignResult Result = {};
  };
  Row Rows[] = {{"interp", Engine::Interpreter, false},
                {"interp", Engine::Interpreter, true},
                {"vm", Engine::VM, false},
                {"vm", Engine::VM, true}};

  // Open the output up front: an unwritable path should fail before the
  // campaigns, not twenty minutes after.
  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "prune-bench: cannot write %s\n", OutPath.c_str());
    return 1;
  }

  for (Row &R : Rows) {
    CampaignOptions Options;
    Options.NumRuns = NumRuns;
    Options.Threads = 1;
    Options.Exec = R.Exec;
    Options.StaticPrune = R.Pruned;
    Clock::time_point Start = Clock::now();
    R.Result = runCampaign(mossSubject(), Options);
    std::chrono::duration<double, std::milli> Wall = Clock::now() - Start;
    R.WallMs = Wall.count();
    R.RunsPerSec = static_cast<double>(NumRuns) / (R.WallMs / 1000.0);
    std::fprintf(stderr, "prune-bench: %s %s: %.1f ms, %.1f runs/sec\n",
                 R.EngineName, R.Pruned ? "pruned" : "unpruned", R.WallMs,
                 R.RunsPerSec);
  }

  // The contract check at this scale: for each engine, the pruned
  // campaign's retained-predicate ranking must match the unpruned one.
  bool RankingsMatch = true;
  for (size_t E = 0; E < 2; ++E) {
    const Row &Unpruned = Rows[E * 2];
    const Row &Pruned = Rows[E * 2 + 1];
    AnalysisOptions Options;
    AnalysisResult A =
        CauseIsolator(Unpruned.Result.Sites, Unpruned.Result.Reports, Options)
            .run();
    AnalysisResult B =
        CauseIsolator(Pruned.Result.Sites, Pruned.Result.Reports, Options)
            .run();
    RankingsMatch = RankingsMatch && prunedRankingsMatch(A, B);
  }

  const PruneResult &Prune = Rows[1].Result.Prune;
  std::fprintf(Out, "{\n");
  std::fprintf(Out, "  \"bench\": \"perf_sampling.static_prune\",\n");
  std::fprintf(Out, "  \"subject\": \"moss\",\n");
  std::fprintf(Out, "  \"runs\": %zu,\n", NumRuns);
  std::fprintf(Out, "  \"threads\": 1,\n");
  std::fprintf(Out,
               "  \"prune\": {\"sites\": %u, \"pruned\": %u, \"unreachable\": "
               "%u, \"constant_outcome\": %u, \"live\": %u},\n",
               Prune.numSites(), Prune.numPruned(), Prune.numUnreachable(),
               Prune.numConstant(), Prune.numLive());
  std::fprintf(Out, "  \"configs\": [\n");
  for (size_t I = 0; I < 4; ++I) {
    const Row &R = Rows[I];
    std::fprintf(Out,
                 "    {\"engine\": \"%s\", \"static_prune\": %s, \"wall_ms\": "
                 "%.3f, \"runs_per_sec\": %.1f}%s\n",
                 R.EngineName, R.Pruned ? "true" : "false", R.WallMs,
                 R.RunsPerSec, I + 1 < 4 ? "," : "");
  }
  std::fprintf(Out, "  ],\n");
  std::fprintf(Out, "  \"interp_speedup\": %.3f,\n",
               Rows[1].RunsPerSec / Rows[0].RunsPerSec);
  std::fprintf(Out, "  \"vm_speedup\": %.3f,\n",
               Rows[3].RunsPerSec / Rows[2].RunsPerSec);
  std::fprintf(Out, "  \"retained_rankings_identical\": %s\n",
               RankingsMatch ? "true" : "false");
  std::fprintf(Out, "}\n");
  std::fclose(Out);
  std::fprintf(stderr, "prune-bench: wrote %s\n", OutPath.c_str());
  return RankingsMatch ? 0 : 1;
}

/// The VM-dispatch throughput study: same-seed MOSS campaigns at the
/// paper's 1/100 uniform rate on both execution engines, single-threaded.
/// Records runs/sec per engine, the VM's speedup over the interpreter, the
/// dispatch strategy the build selected (computed goto vs. portable
/// switch), and whether the two engines' feedback reports stayed
/// bit-identical — the determinism half of the dispatch contract, measured
/// at benchmark scale rather than test scale.
int runDispatchBench(const std::string &OutPath, size_t NumRuns) {
  using Clock = std::chrono::steady_clock;

  struct Row {
    const char *EngineName;
    Engine Exec;
    double WallMs = 0.0;
    double RunsPerSec = 0.0;
    CampaignResult Result = {};
  };
  Row Rows[] = {{"interp", Engine::Interpreter}, {"vm", Engine::VM}};

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "dispatch-bench: cannot write %s\n",
                 OutPath.c_str());
    return 1;
  }

  for (Row &R : Rows) {
    CampaignOptions Options;
    Options.NumRuns = NumRuns;
    Options.Threads = 1;
    Options.Mode = SamplingMode::Uniform;
    Options.UniformRate = 0.01;
    Options.Exec = R.Exec;
    Clock::time_point Start = Clock::now();
    R.Result = runCampaign(mossSubject(), Options);
    std::chrono::duration<double, std::milli> Wall = Clock::now() - Start;
    R.WallMs = Wall.count();
    R.RunsPerSec = static_cast<double>(NumRuns) / (R.WallMs / 1000.0);
    std::fprintf(stderr, "dispatch-bench: %s: %.1f ms, %.1f runs/sec\n",
                 R.EngineName, R.WallMs, R.RunsPerSec);
  }

  // The determinism contract: same seed, same sampling plan, same
  // per-site RNG streams => same reports, engine notwithstanding. (Stack
  // signatures are excluded: line attribution differs between engines by
  // documented convention.)
  bool Identical =
      Rows[0].Result.Reports.size() == Rows[1].Result.Reports.size();
  for (size_t Run = 0; Identical && Run < Rows[0].Result.Reports.size();
       ++Run) {
    const FeedbackReport &A = Rows[0].Result.Reports[Run];
    const FeedbackReport &B = Rows[1].Result.Reports[Run];
    Identical = A.Failed == B.Failed && A.Trap == B.Trap &&
                A.ExitCode == B.ExitCode && A.BugMask == B.BugMask &&
                A.Counts.SiteObservations == B.Counts.SiteObservations &&
                A.Counts.TruePredicates == B.Counts.TruePredicates;
  }

  std::fprintf(Out, "{\n");
  std::fprintf(Out, "  \"bench\": \"perf_sampling.dispatch\",\n");
  std::fprintf(Out, "  \"subject\": \"moss\",\n");
  std::fprintf(Out, "  \"runs\": %zu,\n", NumRuns);
  std::fprintf(Out, "  \"threads\": 1,\n");
  std::fprintf(Out, "  \"sampling\": \"uniform-1/100\",\n");
  std::fprintf(Out, "  \"vm_dispatch\": \"%s\",\n", vmDispatchKind());
  std::fprintf(Out, "  \"configs\": [\n");
  for (size_t I = 0; I < 2; ++I) {
    const Row &R = Rows[I];
    std::fprintf(Out,
                 "    {\"engine\": \"%s\", \"wall_ms\": %.3f, "
                 "\"runs_per_sec\": %.1f}%s\n",
                 R.EngineName, R.WallMs, R.RunsPerSec, I + 1 < 2 ? "," : "");
  }
  std::fprintf(Out, "  ],\n");
  std::fprintf(Out, "  \"vm_dispatch_speedup\": %.3f,\n",
               Rows[1].RunsPerSec / Rows[0].RunsPerSec);
  std::fprintf(Out, "  \"reports_identical\": %s\n",
               Identical ? "true" : "false");
  std::fprintf(Out, "}\n");
  std::fclose(Out);
  std::fprintf(stderr, "dispatch-bench: wrote %s\n", OutPath.c_str());
  return Identical ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "--prune-bench")
      return runPruneBench("BENCH_sampling.json", 32768);
    if (Arg.rfind("--prune-bench=", 0) == 0)
      return runPruneBench(std::string(Arg.substr(14)), 32768);
    if (Arg == "--smoke")
      return runPruneBench("BENCH_sampling_smoke.json", 2048);
    if (Arg.rfind("--smoke=", 0) == 0)
      return runPruneBench(std::string(Arg.substr(8)), 2048);
    if (Arg == "--dispatch-bench")
      return runDispatchBench("BENCH_dispatch.json", 8192);
    if (Arg.rfind("--dispatch-bench=", 0) == 0)
      return runDispatchBench(std::string(Arg.substr(17)), 8192);
    if (Arg == "--dispatch-smoke")
      return runDispatchBench("BENCH_dispatch_smoke.json", 1024);
    if (Arg.rfind("--dispatch-smoke=", 0) == 0)
      return runDispatchBench(std::string(Arg.substr(17)), 1024);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
