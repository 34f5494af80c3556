//===- bench/perf_analysis.cpp - Analysis scalability ----------------------===//
//
// The paper's title claim is scalability: the Increase test plus iterative
// elimination must digest feedback from hundreds of thousands of
// predicates over tens of thousands of runs. This binary does three
// things:
//
//   1. An engine comparison at the paper's 32,000-run scale and at one
//      million runs: the full elimination + affinity phase under all three
//      Section 5 discard policies, with the reference rescan engine, the
//      inverted-index/delta engine, and the dense bit-matrix engine,
//      verifying bit-identical results and writing machine-readable
//      timings to BENCH_analysis.json. The million-run population is
//      generated straight into RunProfiles — no ReportSet is ever
//      materialized at that scale.
//
//   2. google-benchmark micro-benches of the analysis stages (aggregation,
//      index/bitset build, pruning, elimination) on synthetic report sets
//      of varying size, covering all engines.
//
//   3. `--smoke`: a fast three-engine agreement check (no JSON, no micro
//      benches) for CI — exits non-zero if any engine pair diverges.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "core/BitMatrix.h"
#include "core/InvertedIndex.h"
#include "feedback/Corpus.h"
#include "feedback/Report.h"
#include "instrument/Sites.h"
#include "lang/Sema.h"
#include "obs/Telemetry.h"
#include "obs/Tracer.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string_view>
#include <thread>

using namespace sbi;

namespace {

/// Builds a synthetic world: a trivial program whose site table is
/// irrelevant except for predicate->site structure, plus reports drawn
/// from a planted multi-bug model.
struct SyntheticWorld {
  std::unique_ptr<Program> Prog;
  SiteTable Sites;
  ReportSet Reports;
};

/// A tiny MicroC program with enough assignments to mint the requested
/// number of six-way sites.
std::unique_ptr<Program> syntheticProgram(size_t NumSites) {
  std::string Source = "fn main() {\n  int a = 1;\n";
  // Each additional assignment pairs with all previously declared ints and
  // the function's constants, so sites grow quadratically; generate until
  // the estimate is met.
  size_t Vars = 1;
  size_t SitesMinted = 0;
  while (SitesMinted < NumSites && Vars < 2000) {
    Source += "  int v" + std::to_string(Vars) + " = " +
              std::to_string(Vars % 7) + ";\n";
    SitesMinted += Vars + 6; // pair vars + capped constants, approximate
    ++Vars;
  }
  Source += "  println(a);\n}\n";
  std::vector<Diagnostic> Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  assert(Prog && "synthetic program must compile");
  return Prog;
}

SyntheticWorld buildWorld(size_t NumSitesTarget, size_t NumRuns,
                          size_t TruePredsPerRun, size_t NumBugs = 2) {
  SyntheticWorld World;
  World.Prog = syntheticProgram(NumSitesTarget);
  World.Sites = SiteTable::build(*World.Prog);

  uint32_t NumSites = World.Sites.numSites();
  uint32_t NumPreds = World.Sites.numPredicates();
  World.Reports = ReportSet(NumSites, NumPreds);

  Rng R(0xabcdefULL);
  // NumBugs planted bugs, each predicted by one dedicated site, with
  // trigger rates and failure probabilities cycling over an order of
  // magnitude so the elimination loop has a long tail of selections.
  const double TriggerRates[] = {0.02, 0.012, 0.008, 0.005, 0.003};
  const double FailProbs[] = {0.9, 0.8, 0.7};
  std::vector<uint32_t> BugSites(NumBugs);
  for (size_t Bug = 0; Bug < NumBugs; ++Bug)
    BugSites[Bug] = static_cast<uint32_t>(
        (Bug * static_cast<size_t>(NumSites)) / NumBugs);

  for (size_t Run = 0; Run < NumRuns; ++Run) {
    FeedbackReport Report;
    std::vector<std::pair<uint32_t, uint32_t>> SitesSeen;
    std::vector<std::pair<uint32_t, uint32_t>> PredsTrue;
    for (size_t K = 0; K < TruePredsPerRun; ++K) {
      uint32_t Site = static_cast<uint32_t>(R.nextBelow(NumSites));
      SitesSeen.emplace_back(Site, 1);
      const SiteInfo &Info = World.Sites.site(Site);
      uint32_t Pred =
          Info.FirstPredicate +
          static_cast<uint32_t>(R.nextBelow(Info.NumPredicates));
      PredsTrue.emplace_back(Pred, 1);
    }
    for (size_t Bug = 0; Bug < NumBugs; ++Bug) {
      if (!R.nextBernoulli(TriggerRates[Bug % 5]))
        continue;
      SitesSeen.emplace_back(BugSites[Bug], 1);
      PredsTrue.emplace_back(World.Sites.site(BugSites[Bug]).FirstPredicate,
                             1);
      if (R.nextBernoulli(FailProbs[Bug % 3]))
        Report.Failed = true;
    }

    auto normalize = [](std::vector<std::pair<uint32_t, uint32_t>> &V) {
      std::sort(V.begin(), V.end());
      V.erase(std::unique(V.begin(), V.end(),
                          [](const auto &A, const auto &B) {
                            return A.first == B.first;
                          }),
              V.end());
    };
    normalize(SitesSeen);
    normalize(PredsTrue);
    Report.Counts.SiteObservations = std::move(SitesSeen);
    Report.Counts.TruePredicates = std::move(PredsTrue);
    World.Reports.add(std::move(Report));
  }
  return World;
}

/// The same planted-bug model streamed straight into the compact CSR
/// store: at a million runs a ReportSet would cost gigabytes of per-report
/// vector overhead that the analysis never looks at. \p TriggerScale
/// scales the bug trigger rates down so the failing fraction (and with it
/// the bitset engine's failing-column matrix) stays realistic as the run
/// count grows.
RunProfiles buildProfilesWorld(const SiteTable &Sites, size_t NumRuns,
                               size_t TruePredsPerRun, size_t NumBugs,
                               double TriggerScale) {
  uint32_t NumSites = Sites.numSites();
  RunProfiles Runs(NumSites, Sites.numPredicates());
  Runs.reserve(NumRuns);

  Rng R(0xabcdefULL);
  const double TriggerRates[] = {0.02, 0.012, 0.008, 0.005, 0.003};
  const double FailProbs[] = {0.9, 0.8, 0.7};
  std::vector<uint32_t> BugSites(NumBugs);
  for (size_t Bug = 0; Bug < NumBugs; ++Bug)
    BugSites[Bug] = static_cast<uint32_t>(
        (Bug * static_cast<size_t>(NumSites)) / NumBugs);

  std::vector<uint32_t> SitesSeen, PredsTrue;
  for (size_t Run = 0; Run < NumRuns; ++Run) {
    SitesSeen.clear();
    PredsTrue.clear();
    bool Failed = false;
    for (size_t K = 0; K < TruePredsPerRun; ++K) {
      uint32_t Site = static_cast<uint32_t>(R.nextBelow(NumSites));
      SitesSeen.push_back(Site);
      const SiteInfo &Info = Sites.site(Site);
      PredsTrue.push_back(Info.FirstPredicate +
                          static_cast<uint32_t>(
                              R.nextBelow(Info.NumPredicates)));
    }
    for (size_t Bug = 0; Bug < NumBugs; ++Bug) {
      if (!R.nextBernoulli(TriggerRates[Bug % 5] * TriggerScale))
        continue;
      SitesSeen.push_back(BugSites[Bug]);
      PredsTrue.push_back(Sites.site(BugSites[Bug]).FirstPredicate);
      if (R.nextBernoulli(FailProbs[Bug % 3]))
        Failed = true;
    }
    auto normalize = [](std::vector<uint32_t> &V) {
      std::sort(V.begin(), V.end());
      V.erase(std::unique(V.begin(), V.end()), V.end());
    };
    normalize(SitesSeen);
    normalize(PredsTrue);
    Runs.beginRun(Failed);
    for (uint32_t Site : SitesSeen)
      Runs.addSite(Site);
    for (uint32_t Pred : PredsTrue)
      Runs.addPred(Pred);
  }
  return Runs;
}

const SyntheticWorld &worldFor(int64_t Scale) {
  static std::map<int64_t, SyntheticWorld> Cache;
  auto It = Cache.find(Scale);
  if (It == Cache.end())
    It = Cache
             .emplace(Scale,
                      buildWorld(static_cast<size_t>(Scale) * 1000,
                                 static_cast<size_t>(Scale) * 500, 200))
             .first;
  return It->second;
}

// --- Engine comparison ------------------------------------------------------

double engineMs(const SiteTable &Sites, const RunProfiles &Runs,
                DiscardPolicy Policy, AnalysisEngine Engine,
                const InvertedIndex *SharedIndex,
                const BitsetIndex *SharedBitset, AnalysisResult &Result) {
  AnalysisOptions Options;
  Options.Policy = Policy;
  Options.Engine = Engine;
  Options.SharedIndex = SharedIndex;
  Options.SharedBitset = SharedBitset;
  CauseIsolator Isolator(Sites, Runs, Options);
  auto Start = std::chrono::steady_clock::now();
  Result = Isolator.run();
  auto End = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(End - Start).count();
}

struct PolicyRow {
  const char *Policy = "";
  double RescanMs = 0.0;
  double IncrementalMs = 0.0;
  double BitsetMs = 0.0;
  size_t Selections = 0;
  bool Identical = true;
};

struct ScaleResult {
  const char *Name = "";
  size_t Runs = 0;
  uint32_t Sites = 0;
  uint32_t Preds = 0;
  size_t Failing = 0;
  size_t Postings = 0;
  double IndexBuildMs = 0.0;
  double BitsetBuildMs = 0.0;
  size_t BitsetBytes = 0;
  std::vector<PolicyRow> Rows;
  double TotalRescan = 0.0;
  double TotalIncremental = 0.0;
  double TotalBitset = 0.0;
  bool AllIdentical = true;

  /// Elimination + per-policy aggregation only (the builds are shared
  /// across policies and reported separately).
  double speedup() const { return TotalIncremental / TotalBitset; }
  /// One-shot cost including each engine's one-time build.
  double speedupInclBuild() const {
    return (TotalIncremental + IndexBuildMs) / (TotalBitset + BitsetBuildMs);
  }
};

/// Times elimination + affinity under all three engines for every policy
/// over one run population, checking that every engine pair is
/// bit-identical. Both shared build products are timed separately — a tool
/// comparing policies (or re-analyzing as reports stream in) pays each
/// build once.
ScaleResult compareEngines(const char *Name, const SiteTable &Sites,
                           const RunProfiles &Runs) {
  ScaleResult R;
  R.Name = Name;
  R.Runs = Runs.size();
  R.Sites = Sites.numSites();
  R.Preds = Sites.numPredicates();
  R.Failing = Runs.numFailing();
  R.Postings = Runs.numPostings();
  std::printf("# scale %s: %zu runs, %u sites, %u predicates, %zu failing, "
              "%zu postings\n",
              Name, R.Runs, R.Sites, R.Preds, R.Failing, R.Postings);

  auto Start = std::chrono::steady_clock::now();
  InvertedIndex Index = InvertedIndex::build(Runs);
  auto End = std::chrono::steady_clock::now();
  R.IndexBuildMs =
      std::chrono::duration<double, std::milli>(End - Start).count();

  Start = std::chrono::steady_clock::now();
  BitsetIndex Bitset = BitsetIndex::build(Runs, Sites);
  End = std::chrono::steady_clock::now();
  R.BitsetBuildMs =
      std::chrono::duration<double, std::milli>(End - Start).count();
  R.BitsetBytes = Bitset.matrixBytes();
  std::printf("# one-time builds: inverted index %.1f ms, bit-matrices "
              "%.1f ms (%.1f MB)\n",
              R.IndexBuildMs, R.BitsetBuildMs,
              static_cast<double>(R.BitsetBytes) / 1e6);
  std::fflush(stdout);

  const DiscardPolicy Policies[] = {DiscardPolicy::DiscardAllRuns,
                                    DiscardPolicy::DiscardFailingRuns,
                                    DiscardPolicy::RelabelFailingRuns};
  for (DiscardPolicy Policy : Policies) {
    PolicyRow Row;
    Row.Policy = discardPolicyName(Policy);
    AnalysisResult Rescan, Incremental, BitsetResult;
    Row.RescanMs = engineMs(Sites, Runs, Policy, AnalysisEngine::Rescan,
                            nullptr, nullptr, Rescan);
    Row.IncrementalMs =
        engineMs(Sites, Runs, Policy, AnalysisEngine::Incremental, &Index,
                 nullptr, Incremental);
    Row.BitsetMs = engineMs(Sites, Runs, Policy, AnalysisEngine::Bitset,
                            nullptr, &Bitset, BitsetResult);
    Row.Selections = Rescan.Selected.size();
    Row.Identical = bitIdentical(Rescan, Incremental) &&
                    bitIdentical(Rescan, BitsetResult);
    R.AllIdentical = R.AllIdentical && Row.Identical;
    R.TotalRescan += Row.RescanMs;
    R.TotalIncremental += Row.IncrementalMs;
    R.TotalBitset += Row.BitsetMs;
    std::printf("%-22s rescan %9.1f ms   incremental %8.1f ms   bitset "
                "%8.1f ms   %5.1fx   %zu selected   results %s\n",
                Row.Policy, Row.RescanMs, Row.IncrementalMs, Row.BitsetMs,
                Row.IncrementalMs / Row.BitsetMs, Row.Selections,
                Row.Identical ? "identical" : "DIVERGED");
    std::fflush(stdout);
    R.Rows.push_back(Row);
  }
  std::printf("%-22s rescan %9.1f ms   incremental %8.1f ms   bitset "
              "%8.1f ms   %5.1fx  (incremental/bitset)\n",
              "total", R.TotalRescan, R.TotalIncremental, R.TotalBitset,
              R.speedup());
  std::printf("%-22s                    incremental %8.1f ms   bitset "
              "%8.1f ms   %5.1fx  (incremental/bitset)\n",
              "total incl. build", R.TotalIncremental + R.IndexBuildMs,
              R.TotalBitset + R.BitsetBuildMs, R.speedupInclBuild());
  std::printf("\n");
  return R;
}

void emitScaleJson(FILE *Json, const ScaleResult &R, bool Last) {
  std::fprintf(Json,
               "    {\n"
               "      \"name\": \"%s\",\n"
               "      \"runs\": %zu,\n"
               "      \"sites\": %u,\n"
               "      \"predicates\": %u,\n"
               "      \"failing_runs\": %zu,\n"
               "      \"postings\": %zu,\n"
               "      \"index_build_ms\": %.3f,\n"
               "      \"bitset_build_ms\": %.3f,\n"
               "      \"bitset_matrix_bytes\": %zu,\n"
               "      \"policies\": [\n",
               R.Name, R.Runs, R.Sites, R.Preds, R.Failing, R.Postings,
               R.IndexBuildMs, R.BitsetBuildMs, R.BitsetBytes);
  for (size_t I = 0; I < R.Rows.size(); ++I) {
    const PolicyRow &Row = R.Rows[I];
    std::fprintf(Json,
                 "        {\"policy\": \"%s\", \"rescan_ms\": %.3f, "
                 "\"incremental_ms\": %.3f, \"bitset_ms\": %.3f, "
                 "\"selections\": %zu, \"bit_identical\": %s}%s\n",
                 Row.Policy, Row.RescanMs, Row.IncrementalMs, Row.BitsetMs,
                 Row.Selections, Row.Identical ? "true" : "false",
                 I + 1 < R.Rows.size() ? "," : "");
  }
  std::fprintf(Json,
               "      ],\n"
               "      \"total_rescan_ms\": %.3f,\n"
               "      \"total_incremental_ms\": %.3f,\n"
               "      \"total_bitset_ms\": %.3f,\n"
               "      \"speedup\": %.3f,\n"
               "      \"speedup_incl_build\": %.3f\n"
               "    }%s\n",
               R.TotalRescan, R.TotalIncremental, R.TotalBitset, R.speedup(),
               R.speedupInclBuild(), Last ? "" : ",");
}

// --- SBI-CORPUS v2 size and ingestion throughput ---------------------------

struct CorpusBenchResult {
  uint64_t V2Bytes = 0;
  size_t Shards = 0;
  double V2Ingest1Ms = 0.0; // single ingestion thread
  double V2IngestNMs = 0.0; // one thread per core
  size_t IngestThreads = 1;
  bool Ok = false;
};

/// Writes \p World's reports as an SBI-CORPUS v2 shard directory and
/// measures its size plus the throughput of streaming it back with
/// ingestCorpus, on one thread and on one per core. The corpus lands in a
/// scratch directory that is removed afterwards.
CorpusBenchResult corpusComparison(const SyntheticWorld &World) {
  CorpusBenchResult R;

  std::string Dir = (std::filesystem::temp_directory_path() /
                     "sbi-perf-analysis-corpus")
                        .string();
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  std::string Error;
  if (!writeCorpus(World.Reports, Dir, /*ReportsPerShard=*/4096, Error)) {
    std::fprintf(stderr, "perf_analysis: writeCorpus: %s\n", Error.c_str());
    return R;
  }
  for (const std::string &Shard : listCorpusShards(Dir)) {
    R.V2Bytes += std::filesystem::file_size(Shard, Ec);
    ++R.Shards;
  }

  R.IngestThreads = std::max<size_t>(1, std::thread::hardware_concurrency());
  auto ingestMs = [&](size_t Threads, double &OutMs) {
    RunProfiles Runs;
    CorpusIngestStats Stats;
    if (!ingestCorpus(Dir, Runs, Threads, Error, &Stats)) {
      std::fprintf(stderr, "perf_analysis: ingestCorpus: %s\n",
                   Error.c_str());
      return false;
    }
    OutMs = Stats.Seconds * 1000.0;
    return Runs.size() == World.Reports.size();
  };
  R.Ok = ingestMs(1, R.V2Ingest1Ms) && ingestMs(R.IngestThreads, R.V2IngestNMs);
  std::filesystem::remove_all(Dir, Ec);

  auto MBps = [](uint64_t Bytes, double Ms) {
    return Ms > 0.0 ? (static_cast<double>(Bytes) / 1e6) / (Ms / 1000.0) : 0.0;
  };
  std::printf("# corpus ingestion, %zu reports\n", World.Reports.size());
  std::printf("v2 corpus  %9.1f MB   ingest %8.1f ms   %7.1f MB/s   "
              "(1 thread, %zu shards)\n",
              static_cast<double>(R.V2Bytes) / 1e6, R.V2Ingest1Ms,
              MBps(R.V2Bytes, R.V2Ingest1Ms), R.Shards);
  std::printf("v2 corpus  %9.1f MB   ingest %8.1f ms   %7.1f MB/s   "
              "(%zu threads)\n",
              static_cast<double>(R.V2Bytes) / 1e6, R.V2IngestNMs,
              MBps(R.V2Bytes, R.V2IngestNMs), R.IngestThreads);
  return R;
}

// --- Tracing overhead ------------------------------------------------------

struct TracingBenchResult {
  double OffMs = 0.0;
  double OnMs = 0.0;
  double OverheadPct = 0.0;
  uint64_t Events = 0;
};

/// The flight recorder's cost contract: zero when disabled (the spans
/// compile to one relaxed load and branch), under 2% when enabled at the
/// analysis layer's span rate. Runs the bitset elimination over the 32k
/// world with tracing off, then on, and reports the relative delta.
TracingBenchResult tracingOverhead(const SiteTable &Sites,
                                   const RunProfiles &Runs) {
  TracingBenchResult R;
  const int Reps = 5;
  auto oneMs = [&] {
    AnalysisResult Result;
    return engineMs(Sites, Runs, DiscardPolicy::DiscardAllRuns,
                    AnalysisEngine::Bitset, nullptr, nullptr, Result);
  };
  oneMs(); // Warm caches so off/on see the same machine state.
  // Interleave off/on reps (a monotone warm-up drift would otherwise
  // bias whichever mode runs second) and keep the minimum of each —
  // the least-disturbed observation — rather than a noise-averaged mean.
  double OffMin = 0.0, OnMin = 0.0;
  for (int I = 0; I < Reps; ++I) {
    double Off = oneMs();
    Tracer::setEnabled(true);
    double On = oneMs();
    Tracer::setEnabled(false);
    if (I == 0 || Off < OffMin)
      OffMin = Off;
    if (I == 0 || On < OnMin)
      OnMin = On;
  }
  R.OffMs = OffMin;
  R.OnMs = OnMin;
  R.Events = Tracer::instance().recordedTotal();
  Tracer::instance().reset();
  R.OverheadPct =
      R.OffMs > 0.0 ? 100.0 * (R.OnMs - R.OffMs) / R.OffMs : 0.0;
  std::printf("# tracing overhead (bitset elimination, 32k runs): "
              "off %.1f ms, on %.1f ms, %+.2f%% (%llu events)\n\n",
              R.OffMs, R.OnMs, R.OverheadPct,
              static_cast<unsigned long long>(R.Events));
  return R;
}

/// The full comparison: both scales, corpus ingestion, one instrumented
/// pass for the phase breakdown, then BENCH_analysis.json. Returns false
/// if any engine pair diverged at any scale.
bool engineComparison() {
  // --- The paper's 32,000-run scale (in-memory ReportSet world). --------
  std::printf("# engine comparison: elimination + affinity\n");
  CorpusBenchResult Corpus;
  TracingBenchResult Tracing;
  std::string TelemetryJson;
  ScaleResult Scale32k;
  {
    SyntheticWorld World = buildWorld(/*NumSitesTarget=*/4000,
                                      /*NumRuns=*/32000,
                                      /*TruePredsPerRun=*/200,
                                      /*NumBugs=*/32);
    RunProfiles Runs = RunProfiles::fromReports(World.Reports);
    Scale32k = compareEngines("32k", World.Sites, Runs);

    Corpus = corpusComparison(World);

    Tracing = tracingOverhead(World.Sites, Runs);

    // One extra pass with telemetry on — outside every timed loop, so the
    // numbers above measure the untouched (telemetry-off) hot path — to
    // collect the analysis phase breakdown embedded in the JSON artifact.
    Telemetry::setEnabled(true);
    {
      AnalysisResult Instrumented;
      engineMs(World.Sites, Runs, DiscardPolicy::DiscardAllRuns,
               AnalysisEngine::Bitset, nullptr, nullptr, Instrumented);
    }
    Telemetry::setEnabled(false);
    TelemetryJson = Telemetry::toJson();
  } // The 32k ReportSet world frees here, before the million-run build.

  // --- One million runs, streamed straight into RunProfiles. ------------
  // Fewer sites than the 32k world (floods of runs, not floods of
  // predicates, are what this scale stresses) at the same ~200
  // observations-per-run feedback density, trigger rates scaled down so
  // ~3-4% of runs fail.
  ScaleResult Scale1M;
  {
    std::unique_ptr<Program> Prog = syntheticProgram(600);
    SiteTable Sites = SiteTable::build(*Prog);
    RunProfiles Runs = buildProfilesWorld(Sites, /*NumRuns=*/1000000,
                                          /*TruePredsPerRun=*/200,
                                          /*NumBugs=*/16,
                                          /*TriggerScale=*/0.25);
    Scale1M = compareEngines("1M", Sites, Runs);
  }

  bool AllIdentical =
      Scale32k.AllIdentical && Scale1M.AllIdentical && Corpus.Ok;

  FILE *Json = std::fopen("BENCH_analysis.json", "w");
  if (!Json) {
    std::fprintf(stderr, "perf_analysis: cannot write BENCH_analysis.json\n");
    return false;
  }
  std::fprintf(Json, "{\n  \"bench\": \"perf_analysis.engine_comparison\",\n");
  std::fprintf(Json, "  \"scales\": [\n");
  emitScaleJson(Json, Scale32k, /*Last=*/false);
  emitScaleJson(Json, Scale1M, /*Last=*/true);
  std::fprintf(Json, "  ],\n");
  std::fprintf(Json,
               "  \"corpus\": {\"reports\": %zu, "
               "\"v2_bytes\": %llu, \"v2_shards\": %zu, "
               "\"v2_ingest_1t_ms\": %.3f, "
               "\"v2_ingest_ms\": %.3f, \"ingest_threads\": %zu},\n",
               static_cast<size_t>(Scale32k.Runs),
               static_cast<unsigned long long>(Corpus.V2Bytes), Corpus.Shards,
               Corpus.V2Ingest1Ms, Corpus.V2IngestNMs, Corpus.IngestThreads);
  std::fprintf(Json,
               "  \"tracing\": {\"off_ms\": %.3f, \"on_ms\": %.3f, "
               "\"overhead_pct\": %.3f, \"events\": %llu},\n",
               Tracing.OffMs, Tracing.OnMs, Tracing.OverheadPct,
               static_cast<unsigned long long>(Tracing.Events));
  std::fprintf(Json, "  \"telemetry\": ");
  std::fwrite(TelemetryJson.data(), 1, TelemetryJson.size(), Json);
  std::fprintf(Json, "\n}\n");
  std::fclose(Json);
  std::printf("# wrote BENCH_analysis.json\n\n");
  return AllIdentical;
}

/// `--smoke`: a minutes-not-hours CI gate — small population, all three
/// engines, all three policies, exit status reflects agreement.
bool smokeCheck() {
  std::printf("# smoke: three-engine agreement check\n");
  SyntheticWorld World = buildWorld(/*NumSitesTarget=*/800, /*NumRuns=*/4000,
                                    /*TruePredsPerRun=*/64, /*NumBugs=*/8);
  RunProfiles Runs = RunProfiles::fromReports(World.Reports);
  ScaleResult R = compareEngines("smoke", World.Sites, Runs);

  // The smoke artifact is what CI's benchdiff gate compares against
  // bench/baselines/BENCH_smoke.json; exact metrics (selections,
  // bit_identical) must not move, wall-clock ones get loose thresholds.
  FILE *Json = std::fopen("BENCH_smoke.json", "w");
  if (Json) {
    std::fprintf(Json, "{\n  \"bench\": \"perf_analysis.smoke\",\n");
    std::fprintf(Json, "  \"scales\": [\n");
    emitScaleJson(Json, R, /*Last=*/true);
    std::fprintf(Json, "  ],\n  \"all_identical\": %s\n}\n",
                 R.AllIdentical ? "true" : "false");
    std::fclose(Json);
    std::printf("# wrote BENCH_smoke.json\n");
  } else {
    std::fprintf(stderr, "perf_analysis: cannot write BENCH_smoke.json\n");
  }

  std::printf(R.AllIdentical ? "# smoke OK: all engines bit-identical\n"
                             : "# smoke FAILED: engines diverged\n");
  return R.AllIdentical;
}

// --- google-benchmark micro-benches ---------------------------------------

void BM_Aggregation(benchmark::State &State) {
  const SyntheticWorld &World = worldFor(State.range(0));
  RunProfiles Runs = RunProfiles::fromReports(World.Reports);
  RunView View = RunView::allOf(Runs);
  for (auto _ : State) {
    Aggregates Agg = Aggregates::compute(Runs, View);
    benchmark::DoNotOptimize(Agg.numFailing());
  }
  State.counters["preds"] =
      static_cast<double>(World.Sites.numPredicates());
  State.counters["runs"] = static_cast<double>(Runs.size());
}

void BM_IndexBuild(benchmark::State &State) {
  const SyntheticWorld &World = worldFor(State.range(0));
  RunProfiles Runs = RunProfiles::fromReports(World.Reports);
  for (auto _ : State) {
    InvertedIndex Index = InvertedIndex::build(Runs);
    benchmark::DoNotOptimize(Index.numPostings());
  }
  State.counters["runs"] = static_cast<double>(Runs.size());
}

void BM_BitsetBuild(benchmark::State &State) {
  const SyntheticWorld &World = worldFor(State.range(0));
  RunProfiles Runs = RunProfiles::fromReports(World.Reports);
  for (auto _ : State) {
    BitsetIndex Index = BitsetIndex::build(Runs, World.Sites);
    benchmark::DoNotOptimize(Index.matrixBytes());
  }
  State.counters["runs"] = static_cast<double>(Runs.size());
}

void BM_Pruning(benchmark::State &State) {
  const SyntheticWorld &World = worldFor(State.range(0));
  CauseIsolator Isolator(World.Sites, World.Reports);
  for (auto _ : State) {
    auto Survivors = Isolator.prune();
    benchmark::DoNotOptimize(Survivors.size());
  }
}

void eliminationBench(benchmark::State &State, AnalysisEngine Engine) {
  const SyntheticWorld &World = worldFor(State.range(0));
  AnalysisOptions Options;
  Options.AffinityTopK = 0;
  Options.Engine = Engine;
  CauseIsolator Isolator(World.Sites, World.Reports, Options);
  for (auto _ : State) {
    AnalysisResult Result = Isolator.run();
    benchmark::DoNotOptimize(Result.Selected.size());
  }
}

void BM_FullEliminationRescan(benchmark::State &State) {
  eliminationBench(State, AnalysisEngine::Rescan);
}

void BM_FullEliminationIncremental(benchmark::State &State) {
  eliminationBench(State, AnalysisEngine::Incremental);
}

void BM_FullEliminationBitset(benchmark::State &State) {
  eliminationBench(State, AnalysisEngine::Bitset);
}

} // namespace

BENCHMARK(BM_Aggregation)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_IndexBuild)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_BitsetBuild)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_Pruning)->Arg(1)->Arg(4)->Arg(16);
BENCHMARK(BM_FullEliminationRescan)->Arg(1)->Arg(4);
BENCHMARK(BM_FullEliminationIncremental)->Arg(1)->Arg(4);
BENCHMARK(BM_FullEliminationBitset)->Arg(1)->Arg(4);

int main(int argc, char **argv) {
  // --smoke is ours, not google-benchmark's; strip it before Initialize.
  for (int I = 1; I < argc; ++I)
    if (std::string_view(argv[I]) == "--smoke")
      return smokeCheck() ? 0 : 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  bool Identical = engineComparison();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return Identical ? 0 : 1;
}
