//===- tools/sbi.cpp - Command-line statistical debugger ------------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
// The command-line face of the library:
//
//   sbi subjects
//       List the bundled study subjects and their seeded bugs.
//
//   sbi run --subject=NAME [--runs=N] [--seed=S]
//           [--sampling=adaptive|none|uniform:RATE] [--out=DIR]
//       Run a feedback-collection campaign; its workers write the labeled
//       reports straight into an SBI-CORPUS v2 corpus (feedback/Corpus.h)
//       at DIR (default: <subject>.corpus), replacing any corpus there.
//
//   sbi analyze --subject=NAME [--in=DIR] [--runs=N] [--seed=S]
//               [--policy=all|failing|relabel] [--top=K] [--affinity]
//               [--bugs]
//       Isolate causes. Reads the corpus at DIR if given, otherwise runs
//       a fresh campaign in memory; both give the same output. --bugs
//       appends ground-truth columns (the seeded subjects record which bug
//       actually occurred per run).
//
//   sbi logreg --subject=NAME [--in=DIR] [--runs=N] [--top=K]
//       The Section 4.4 baseline: l1-regularized logistic regression.
//
//   sbi report --subject=NAME [--in=DIR] [--runs=N] [--seed=S]
//              [--policy=all|failing|relabel] [--out=FILE] [--top=K]
//              [--bugs]
//       Write the analysis as a self-contained HTML page (the paper's
//       "interactive version of our analysis tools").
//
//   sbi corpus <info|merge|validate> ...
//       Summarize, concatenate and fully decode corpora.
//
//   sbi lint [--subject=NAME] [--json]
//       Static findings (src/sa) over one subject or all of them: dead
//       code, constant branches, unreachable returns, use-before-init.
//
//   sbi trace summarize --in=FILE [--top=K] [--json]
//       Top spans by self-time from a --trace-out Perfetto trace.
//
//   `run`/`analyze --static-prune` classifies sites with the same analysis
//   and instruments only the Live ones; retained-predicate rankings are
//   bit-identical to the unpruned pipeline at the same seed.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "feedback/Corpus.h"
#include "harness/Campaign.h"
#include "harness/HtmlReport.h"
#include "harness/Tables.h"
#include "logreg/LogReg.h"
#include "obs/Telemetry.h"
#include "obs/TraceSink.h"
#include "obs/TraceSummary.h"
#include "obs/Tracer.h"
#include "sa/Lint.h"
#include "sa/Prune.h"
#include "sa/Verify.h"
#include "support/StringUtils.h"
#include "support/Thermometer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace sbi;

namespace {

struct CliArgs {
  std::string Command;
  std::string SubCommand; // corpus verb: info|merge|validate.
  std::string SubjectName;
  std::string InFile;
  std::string OutFile;
  std::string Sampling = "adaptive";
  double UniformRate = 0.01; // RATE of --sampling=uniform:RATE.
  std::string Policy = "all";
  std::string Engine = "incremental";
  std::string ExecEngine = "interp";
  std::string MetricsOut;
  std::string TraceOut;
  std::vector<std::string> Inputs; // Positional args (corpus merge dirs).
  /// Every flag given, by name: "--runs=40" is "runs".
  std::vector<std::string> Given;
  size_t Runs = 4000;
  uint64_t Seed = 20050612;
  size_t Top = 20;
  size_t Threads = 0;            // 0 = one per hardware thread.
  size_t ShardReports = 128;     // Reports per shard for corpus writers.
  bool ShowAffinity = false;
  bool ShowBugs = false;
  bool Trace = false;
  bool ShowProgress = false;
  bool StaticPrune = false;
  bool Json = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sbi <command> [options]\n"
      "  subjects\n"
      "  run     --subject=NAME [--runs=N] [--seed=S]\n"
      "          [--sampling=adaptive|none|uniform:RATE] [--out=DIR]\n"
      "          [--shard-reports=N] [--static-prune] [--engine=interp|vm]\n"
      "  analyze --subject=NAME [--in=DIR] [--runs=N] [--seed=S]\n"
      "          [--policy=all|failing|relabel] [--top=K] [--affinity] "
      "[--bugs]\n"
      "          [--analysis-engine=rescan|incremental|bitset] "
      "[--static-prune]\n"
      "          [--trace] [--engine=interp|vm]\n"
      "  logreg  --subject=NAME [--in=DIR] [--runs=N] [--top=K]\n"
      "  report  --subject=NAME [--in=DIR] [--out=FILE] [--top=K] "
      "[--bugs]\n"
      "          [--policy=all|failing|relabel]\n"
      "  lint    [--subject=NAME] [--json]\n"
      "  trace   summarize --in=FILE [--top=K] [--json]\n"
      "  corpus  info     DIR\n"
      "          merge    --out=DIR DIR... [--shard-reports=N]\n"
      "          validate DIR\n"
      "corpus options (reports live in SBI-CORPUS v2 shard directories):\n"
      "  --out=DIR          (run, corpus merge) the corpus to write; any\n"
      "                     corpus already there is replaced (run default:\n"
      "                     <subject>.corpus)\n"
      "  --in=DIR           (analyze, logreg, report) read the runs from a\n"
      "                     corpus instead of running a campaign\n"
      "  --shard-reports=N  reports per shard when writing (default 128);\n"
      "                     each run-loop worker writes whole shards\n"
      "common options (any command that runs a campaign):\n"
      "  --threads=N        worker threads for the run loop; 0 = one per\n"
      "                     hardware thread (default; results are\n"
      "                     bit-identical for any N)\n"
      "  --engine=E         execution engine for the subject's runs:\n"
      "                     'interp' (tree-walking reference, default) or\n"
      "                     'vm' (bytecode VM); outcomes, predicate\n"
      "                     counts, and analysis results are identical\n"
      "                     either way (crash backtrace frame labels may\n"
      "                     name different AST nodes)\n"
      "  --metrics-out=FILE enable telemetry and write the metrics\n"
      "                     registry as JSON on exit\n"
      "  --trace            (analyze) print the iteration-by-iteration\n"
      "                     elimination audit trail as text; unrelated to\n"
      "                     --trace-out\n"
      "  --trace-out=FILE   (run/analyze) record timing spans and write\n"
      "                     them as Chrome trace_event JSON on exit; load\n"
      "                     in Perfetto / chrome://tracing, or summarize\n"
      "                     with 'sbi trace summarize --in=FILE'\n"
      "  --static-prune     (run/analyze) statically classify sites and\n"
      "                     instrument only the Live ones; site ids are\n"
      "                     not renumbered, so reports and rankings stay\n"
      "                     comparable with unpruned campaigns\n"
      "  --json             (lint) machine-readable findings\n"
      "  --progress         live progress bar on stderr during the run\n"
      "                     loop\n");
  return 2;
}

bool parseArgs(int Argc, char **Argv, CliArgs &Args) {
  if (Argc < 2)
    return false;
  Args.Command = Argv[1];
  for (int I = 2; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (startsWith(Arg, "--"))
      Args.Given.emplace_back(Arg.substr(2, Arg.find('=') - 2));
    auto valueOf = [&](std::string_view Prefix,
                       std::string &Out) {
      if (Arg.substr(0, Prefix.size()) != Prefix)
        return false;
      Out = std::string(Arg.substr(Prefix.size()));
      return true;
    };
    // Strict full-consumption parse: "--runs=abc" and "--runs=40x" are
    // errors, not silent zeros (the strtoull they replace accepted both).
    auto numberOf = [&](std::string_view Prefix, uint64_t &Out,
                        bool &Failed) {
      std::string Value;
      if (!valueOf(Prefix, Value))
        return false;
      if (!parseUnsigned(Value, Out)) {
        std::fprintf(stderr,
                     "sbi: bad value '%s' for %.*s: expected an unsigned "
                     "decimal integer\n",
                     Value.c_str(), static_cast<int>(Prefix.size() - 1),
                     Prefix.data());
        Failed = true;
      }
      return true;
    };
    if (valueOf("--subject=", Args.SubjectName) ||
        valueOf("--in=", Args.InFile) || valueOf("--out=", Args.OutFile) ||
        valueOf("--policy=", Args.Policy) ||
        valueOf("--analysis-engine=", Args.Engine) ||
        valueOf("--engine=", Args.ExecEngine) ||
        valueOf("--metrics-out=", Args.MetricsOut) ||
        valueOf("--trace-out=", Args.TraceOut))
      continue;
    if (valueOf("--sampling=", Args.Sampling)) {
      if (startsWith(Args.Sampling, "uniform:") &&
          !parseRate(std::string_view(Args.Sampling).substr(8),
                     Args.UniformRate)) {
        std::fprintf(stderr,
                     "sbi: bad rate '%s' for --sampling=uniform:RATE: "
                     "expected a number with 0 < RATE <= 1\n",
                     Args.Sampling.c_str() + 8);
        return false;
      }
      continue;
    }
    bool BadNumber = false;
    uint64_t Number = 0;
    if (numberOf("--runs=", Number, BadNumber)) {
      if (BadNumber)
        return false;
      Args.Runs = static_cast<size_t>(Number);
    } else if (numberOf("--seed=", Number, BadNumber)) {
      if (BadNumber)
        return false;
      Args.Seed = Number;
    } else if (numberOf("--top=", Number, BadNumber)) {
      if (BadNumber)
        return false;
      Args.Top = static_cast<size_t>(Number);
    } else if (numberOf("--threads=", Number, BadNumber)) {
      if (BadNumber)
        return false;
      Args.Threads = static_cast<size_t>(Number);
    } else if (numberOf("--shard-reports=", Number, BadNumber)) {
      if (BadNumber)
        return false;
      if (Number == 0 || Number > UINT32_MAX) {
        std::fprintf(stderr,
                     "sbi: --shard-reports must be between 1 and 2^32-1\n");
        return false;
      }
      Args.ShardReports = static_cast<size_t>(Number);
    } else if (!startsWith(Arg, "--")) {
      // Positional operands: the corpus/trace verb and its operands.
      if (Args.Command == "corpus" || Args.Command == "trace") {
        if (Args.SubCommand.empty())
          Args.SubCommand = std::string(Arg);
        else
          Args.Inputs.emplace_back(Arg);
        continue;
      }
      std::fprintf(stderr, "sbi: unexpected argument '%s'\n", Argv[I]);
      return false;
    } else if (Arg == "--affinity") {
      Args.ShowAffinity = true;
    } else if (Arg == "--bugs") {
      Args.ShowBugs = true;
    } else if (Arg == "--trace") {
      Args.Trace = true;
    } else if (Arg == "--static-prune") {
      Args.StaticPrune = true;
    } else if (Arg == "--json") {
      Args.Json = true;
    } else if (Arg == "--progress") {
      Args.ShowProgress = true;
    } else {
      std::fprintf(stderr, "sbi: unknown option '%s'\n", Argv[I]);
      // The two tracing flags are easy to cross: --trace is the textual
      // elimination audit trail, --trace-out=FILE records Perfetto spans.
      if (startsWith(Arg, "--trace"))
        std::fprintf(stderr,
                     "sbi: did you mean --trace (print the elimination "
                     "audit trail) or --trace-out=FILE (write Perfetto "
                     "spans)?\n");
      return false;
    }
  }
  return true;
}

/// The flags a campaign reads (configureCampaign). A verb given --in=DIR
/// reads its runs from the corpus there and runs no campaign.
constexpr std::string_view CampaignFlags[] = {
    "runs", "seed", "sampling", "engine", "progress", "static-prune"};

/// Whether \p Verb reads every flag given: those in \p Reads, main()'s
/// --metrics-out and --trace-out, and the campaign's when \p Campaign.
/// Otherwise says which flags it does not take.
bool takesOnly(const CliArgs &Args, const std::string &Verb,
               std::initializer_list<std::string_view> Reads,
               bool Campaign = false) {
  auto reads = [&](std::string_view Flag) {
    auto In = [&](const auto &Names) {
      return std::find(std::begin(Names), std::end(Names), Flag) !=
             std::end(Names);
    };
    return Flag == "metrics-out" || Flag == "trace-out" || In(Reads) ||
           (Campaign && In(CampaignFlags));
  };
  bool Ok = true;
  for (const std::string &Flag : Args.Given) {
    if (reads(Flag))
      continue;
    std::fprintf(stderr, "sbi: %s does not take --%s\n", Verb.c_str(),
                 Flag.c_str());
    Ok = false;
  }
  if (!Ok && !Args.InFile.empty())
    std::fprintf(stderr, "sbi: with --in, %s reads the runs from the corpus "
                         "and runs no campaign\n",
                 Verb.c_str());
  return Ok;
}

/// The subject --subject names, or null after saying it does not exist.
const Subject *subjectOf(const CliArgs &Args) {
  const Subject *Subj = findSubject(Args.SubjectName);
  if (!Subj)
    std::fprintf(stderr, "sbi: unknown subject '%s' (try 'sbi subjects')\n",
                 Args.SubjectName.c_str());
  return Subj;
}

/// One-line summary of a static prune.
void printPruneSummary(const PruneResult &Prune) {
  std::fprintf(stderr,
               "sbi: static prune: %u/%u sites pruned "
               "(%u unreachable, %u constant-outcome, %u live)\n",
               Prune.numPruned(), Prune.numSites(), Prune.numUnreachable(),
               Prune.numConstant(), Prune.numLive());
}

int cmdSubjects() {
  for (const Subject *Subj : allSubjects()) {
    std::printf("%s  (%s-labeled)\n", Subj->Name.c_str(),
                Subj->UseOutputOracle ? "oracle" : "crash");
    for (const BugSpec &Bug : Subj->Bugs)
      std::printf("  #%d  %-26s  %s\n", Bug.Id, Bug.Kind.c_str(),
                  Bug.Description.c_str());
  }
  return 0;
}

bool configureCampaign(const CliArgs &Args, CampaignOptions &Options) {
  Options.NumRuns = Args.Runs;
  Options.Seed = Args.Seed;
  Options.Threads = Args.Threads;
  Options.StaticPrune = Args.StaticPrune;
  if (Args.ExecEngine == "interp") {
    Options.Exec = Engine::Interpreter;
  } else if (Args.ExecEngine == "vm") {
    Options.Exec = Engine::VM;
  } else {
    std::fprintf(stderr, "sbi: bad --engine value '%s' (want interp|vm)\n",
                 Args.ExecEngine.c_str());
    return false;
  }
  if (Args.ShowProgress) {
    // Reuses the bug-thermometer renderer as a progress bar: the '#' band
    // is the completed fraction of a full-length bar. Called from worker
    // threads; one fprintf per call keeps the line updates atomic enough.
    Options.Progress = [](size_t Done, size_t Total) {
      ThermometerSpec Spec;
      Spec.Context = static_cast<double>(Done) / static_cast<double>(Total);
      Spec.RunsObservedTrue = Total;
      std::fprintf(stderr, "\r%s %zu/%zu%s",
                   renderThermometer(Spec, 40, Total).c_str(), Done, Total,
                   Done == Total ? "\n" : "");
    };
  }
  if (Args.Sampling == "adaptive") {
    Options.Mode = SamplingMode::Adaptive;
  } else if (Args.Sampling == "none") {
    Options.Mode = SamplingMode::None;
  } else if (startsWith(Args.Sampling, "uniform:")) {
    Options.Mode = SamplingMode::Uniform;
    Options.UniformRate = Args.UniformRate;
  } else {
    std::fprintf(stderr, "sbi: bad --sampling value '%s'\n",
                 Args.Sampling.c_str());
    return false;
  }
  return true;
}

/// What analyze, logreg and report read: the subject, the site table that
/// names its predicates, and one run population.
struct Population {
  const Subject *Subj = nullptr;
  std::unique_ptr<Program> Prog;
  SiteTable Sites;
  RunProfiles Runs;
};

/// The one read path. With --in=DIR it ingests the corpus at DIR and checks
/// it against the subject; otherwise it runs the campaign in memory and
/// converts the reports once. \p Counts, if given, also receives the runs'
/// recorded counts (the campaign's reports, or the corpus read in full),
/// which prune verification checks against.
bool loadPopulation(const CliArgs &Args, Population &Out,
                    ReportSet *Counts = nullptr) {
  Out.Subj = subjectOf(Args);
  if (!Out.Subj)
    return false;
  if (Args.InFile.empty()) {
    CampaignOptions Options;
    if (!configureCampaign(Args, Options))
      return false;
    std::fprintf(stderr, "sbi: running %zu '%s' inputs...\n", Args.Runs,
                 Out.Subj->Name.c_str());
    CampaignResult Result = runCampaign(*Out.Subj, Options);
    if (Result.StaticPruned)
      printPruneSummary(Result.Prune);
    Out.Prog = std::move(Result.Prog);
    Out.Sites = std::move(Result.Sites);
    Out.Runs = RunProfiles::fromReports(Result.Reports);
    if (Counts)
      *Counts = std::move(Result.Reports);
    return true;
  }
  // Only the static site table is rebuilt; it comes from the subject's
  // source, which is deterministic.
  Out.Prog = compileSubjectSource(Out.Subj->Source, Out.Subj->Name);
  Out.Sites = SiteTable::build(*Out.Prog);
  CorpusIngestStats Stats;
  std::string Error;
  if (!ingestCorpus(Args.InFile, Out.Runs, Args.Threads, Error, &Stats)) {
    std::fprintf(stderr, "sbi: cannot read corpus '%s': %s\n",
                 Args.InFile.c_str(), Error.c_str());
    return false;
  }
  if (Out.Runs.numSites() != Out.Sites.numSites() ||
      Out.Runs.numPredicates() != Out.Sites.numPredicates()) {
    std::fprintf(stderr,
                 "sbi: corpus does not match subject '%s' (%u vs %u "
                 "sites, %u vs %u predicates)\n",
                 Out.Subj->Name.c_str(), Out.Runs.numSites(),
                 Out.Sites.numSites(), Out.Runs.numPredicates(),
                 Out.Sites.numPredicates());
    return false;
  }
  std::fprintf(stderr,
               "sbi: ingested %llu reports from %llu shards "
               "(%.2f MB in %.3fs, %.1f MB/s)\n",
               static_cast<unsigned long long>(Stats.Reports),
               static_cast<unsigned long long>(Stats.Shards),
               static_cast<double>(Stats.Bytes) / 1e6, Stats.Seconds,
               Stats.Seconds > 0.0
                   ? static_cast<double>(Stats.Bytes) / 1e6 / Stats.Seconds
                   : 0.0);
  if (Counts && !readCorpus(Args.InFile, *Counts, Error)) {
    std::fprintf(stderr, "sbi: cannot read corpus '%s': %s\n",
                 Args.InFile.c_str(), Error.c_str());
    return false;
  }
  return true;
}

/// The one write path: the campaign's workers spill their reports straight
/// into the corpus at --out; no ReportSet is ever materialized.
int cmdRun(const CliArgs &Args) {
  if (!takesOnly(Args, "run", {"subject", "out", "shard-reports", "threads"},
                 /*Campaign=*/true))
    return usage();
  const Subject *Subj = subjectOf(Args);
  if (!Subj)
    return 1;
  CampaignOptions Options;
  if (!configureCampaign(Args, Options))
    return 1;
  Options.SpillDir =
      Args.OutFile.empty() ? Subj->Name + ".corpus" : Args.OutFile;
  Options.SpillShardReports = Args.ShardReports;
  std::fprintf(stderr, "sbi: running %zu '%s' inputs...\n", Args.Runs,
               Subj->Name.c_str());
  CampaignResult Result = runCampaign(*Subj, Options);
  if (!Result.Error.empty()) {
    std::fprintf(stderr, "sbi: cannot write corpus: %s\n",
                 Result.Error.c_str());
    return 1;
  }
  if (Result.StaticPruned)
    printPruneSummary(Result.Prune);
  std::printf("wrote %zu reports (%zu failing, %zu successful) into %zu "
              "shards (%llu bytes) under %s\n",
              Result.SpilledReports, Result.numFailing(),
              Result.numSuccessful(), Result.SpilledShards,
              static_cast<unsigned long long>(Result.SpilledBytes),
              Options.SpillDir.c_str());
  return 0;
}

/// Resolves the analysis flags analyze and report share:
/// --analysis-engine, --policy and --threads (the index build's workers).
/// Returns false (after complaining) on a bad value.
bool configureAnalysis(const CliArgs &Args, AnalysisOptions &Options) {
  Options.IndexThreads = Args.Threads;
  if (Args.Engine == "incremental")
    Options.Engine = AnalysisEngine::Incremental;
  else if (Args.Engine == "rescan")
    Options.Engine = AnalysisEngine::Rescan;
  else if (Args.Engine == "bitset")
    Options.Engine = AnalysisEngine::Bitset;
  else {
    std::fprintf(stderr, "sbi: bad --analysis-engine value '%s'\n",
                 Args.Engine.c_str());
    return false;
  }
  if (Args.Policy == "all")
    Options.Policy = DiscardPolicy::DiscardAllRuns;
  else if (Args.Policy == "failing")
    Options.Policy = DiscardPolicy::DiscardFailingRuns;
  else if (Args.Policy == "relabel")
    Options.Policy = DiscardPolicy::RelabelFailingRuns;
  else {
    std::fprintf(stderr, "sbi: bad --policy value '%s'\n",
                 Args.Policy.c_str());
    return false;
  }
  return true;
}

int cmdAnalyze(const CliArgs &Args) {
  if (!takesOnly(Args, "analyze",
                 {"subject", "in", "threads", "static-prune", "policy",
                  "analysis-engine", "top", "affinity", "bugs", "trace"},
                 Args.InFile.empty()))
    return usage();
  AnalysisOptions Options;
  if (!configureAnalysis(Args, Options))
    return usage();
  // Only --affinity prints the lists; `report` always renders them.
  Options.ComputeAffinity = Args.ShowAffinity;
  Population Pop;
  ReportSet Counts;
  if (!loadPopulation(Args, Pop, Args.StaticPrune ? &Counts : nullptr))
    return 1;

  if (Args.StaticPrune) {
    // Check the static claims against the recorded counts. With --in=DIR
    // the runs typically come from an unpruned reference campaign, which is
    // the strong direction: every pruned site must show zero (or
    // exactly-constant) counts even though it was fully instrumented.
    const PruneResult Prune = computePrune(*Pop.Prog, Pop.Sites);
    if (!Args.InFile.empty())
      printPruneSummary(Prune);
    PruneVerification Verified =
        verifyPruneAgainstReports(Prune, Pop.Sites, Counts);
    if (!Verified.Ok) {
      std::fprintf(stderr, "sbi: prune verification FAILED: %s\n",
                   Verified.FirstError.c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "sbi: prune verification ok: %llu runs, %llu constant-site "
                 "observations matched the static masks\n",
                 static_cast<unsigned long long>(Verified.RunsChecked),
                 static_cast<unsigned long long>(
                     Verified.ConstantObservationsChecked));
  }

  CauseIsolator Isolator(Pop.Sites, Pop.Runs, Options);
  AnalysisResult Analysis = Isolator.run();
  std::printf("%zu reports (%zu failing); %u predicates -> %zu survive "
              "Increase>0 -> %zu selected\n\n",
              Pop.Runs.size(), Pop.Runs.numFailing(),
              Pop.Sites.numPredicates(), Analysis.PrunedSurvivors.size(),
              Analysis.Selected.size());

  if (Args.Trace)
    std::printf("%s\n", renderAuditTrail(Pop.Sites, Analysis).c_str());

  std::vector<int> BugIds;
  if (Args.ShowBugs)
    for (const BugSpec &Bug : Pop.Subj->Bugs)
      BugIds.push_back(Bug.Id);
  std::printf("%s\n", renderSelectedList(Pop.Sites, Pop.Runs,
                                         Analysis.Selected, BugIds, Args.Top)
                          .c_str());

  if (Args.ShowAffinity)
    for (size_t I = 0; I < Analysis.Selected.size() && I < Args.Top; ++I)
      std::printf("%s",
                  renderAffinity(Pop.Sites, Analysis.Selected[I]).c_str());
  return 0;
}

int cmdLogReg(const CliArgs &Args) {
  if (!takesOnly(Args, "logreg", {"subject", "in", "threads", "top"},
                 Args.InFile.empty()))
    return usage();
  Population Pop;
  if (!loadPopulation(Args, Pop))
    return 1;
  LogRegModel Model = trainForSparsity(
      Pop.Runs, /*MaxActive=*/static_cast<int>(Args.Top) * 3,
      {0.05, 0.02, 0.01, 0.005, 0.002});
  std::printf("trained: %d nonzero weights (%d iterations)\n\n",
              Model.numNonzero(), Model.Iterations);
  std::printf("%-12s %s\n", "Coefficient", "Predicate");
  for (const auto &[Pred, Weight] : Model.topByMagnitude(Args.Top))
    std::printf("%12.6f %s\n", Weight,
                predicateLabel(Pop.Sites, Pred).c_str());
  return 0;
}

int cmdReport(const CliArgs &Args) {
  if (!takesOnly(Args, "report",
                 {"subject", "in", "threads", "policy", "analysis-engine",
                  "out", "top", "bugs"},
                 Args.InFile.empty()))
    return usage();
  AnalysisOptions AnalyzeOptions;
  if (!configureAnalysis(Args, AnalyzeOptions))
    return usage();
  Population Pop;
  if (!loadPopulation(Args, Pop))
    return 1;
  CauseIsolator Isolator(Pop.Sites, Pop.Runs, AnalyzeOptions);
  AnalysisResult Analysis = Isolator.run();

  HtmlReportOptions Options;
  Options.TopK = Args.Top;
  Options.ShowGroundTruth = Args.ShowBugs;
  std::string Html =
      renderHtmlReport(*Pop.Subj, Pop.Sites, Pop.Runs, Analysis, Options);

  std::string OutFile = Args.OutFile.empty()
                            ? Pop.Subj->Name + ".report.html"
                            : Args.OutFile;
  std::ofstream Out(OutFile);
  if (!Out) {
    std::fprintf(stderr, "sbi: cannot write '%s'\n", OutFile.c_str());
    return 1;
  }
  Out << Html;
  std::printf("wrote %zu selected predictors to %s\n",
              Analysis.Selected.size(), OutFile.c_str());
  return 0;
}

/// `sbi corpus info DIR`: per-shard and whole-corpus summary.
int cmdCorpusInfo(const CliArgs &Args) {
  if (!takesOnly(Args, "corpus info", {}))
    return usage();
  if (Args.Inputs.empty()) {
    std::fprintf(stderr, "sbi: corpus info needs a corpus directory\n");
    return usage();
  }
  const std::string &Dir = Args.Inputs.front();
  std::vector<std::string> Shards = listCorpusShards(Dir);
  if (Shards.empty()) {
    std::fprintf(stderr, "sbi: no shard files in '%s'\n", Dir.c_str());
    return 1;
  }
  uint64_t Reports = 0, Bytes = 0;
  uint32_t NumSites = 0, NumPredicates = 0;
  for (const std::string &Path : Shards) {
    CorpusReader Reader;
    std::string Error;
    if (!Reader.open(Path, Error)) {
      // The reader's error names the shard.
      std::fprintf(stderr, "sbi: %s\n", Error.c_str());
      return 1;
    }
    const CorpusShardHeader &Header = Reader.header();
    std::printf("%s  shard %u  %u reports  %llu bytes\n", Path.c_str(),
                Header.ShardId, Header.NumReports,
                static_cast<unsigned long long>(Reader.shardBytes()));
    Reports += Header.NumReports;
    Bytes += Reader.shardBytes();
    NumSites = Header.NumSites;
    NumPredicates = Header.NumPredicates;
  }
  std::printf("total: %zu shards, %llu reports, %llu bytes "
              "(%u sites, %u predicates)\n",
              Shards.size(), static_cast<unsigned long long>(Reports),
              static_cast<unsigned long long>(Bytes), NumSites,
              NumPredicates);
  return 0;
}

/// `sbi corpus merge --out=DIR DIR...`: streams every input corpus, in
/// argument then shard order, into a freshly numbered output corpus that
/// replaces any corpus already at DIR. Memory stays bounded by one shard;
/// dimensions must agree throughout.
int cmdCorpusMerge(const CliArgs &Args) {
  if (!takesOnly(Args, "corpus merge", {"out", "shard-reports"}))
    return usage();
  if (Args.OutFile.empty() || Args.Inputs.empty()) {
    std::fprintf(stderr,
                 "sbi: corpus merge needs --out=DIR and at least one input "
                 "corpus directory\n");
    return usage();
  }
  // Replacing the output corpus would delete an input that is the same
  // directory before it is read; refuse before writing anything.
  for (const std::string &Dir : Args.Inputs) {
    std::error_code Ec;
    if (std::filesystem::equivalent(Args.OutFile, Dir, Ec)) {
      std::fprintf(stderr,
                   "sbi: corpus merge --out='%s' is also an input; merge "
                   "into another directory\n",
                   Args.OutFile.c_str());
      return 2;
    }
  }
  std::string Error;
  if (!clearCorpusDir(Args.OutFile, Error)) {
    std::fprintf(stderr, "sbi: %s\n", Error.c_str());
    return 1;
  }

  CorpusWriter Writer;
  uint32_t OutShard = 0;
  uint64_t Written = 0;
  uint32_t NumSites = 0, NumPredicates = 0;
  bool HaveDims = false;
  auto openNext = [&] {
    return Writer.open(Args.OutFile + "/" + corpusShardName(OutShard),
                       OutShard, NumSites, NumPredicates, Error);
  };

  for (const std::string &Dir : Args.Inputs) {
    std::vector<std::string> Shards = listCorpusShards(Dir);
    if (Shards.empty()) {
      std::fprintf(stderr, "sbi: no shard files in '%s'\n", Dir.c_str());
      return 1;
    }
    for (const std::string &Path : Shards) {
      CorpusReader Reader;
      if (!Reader.open(Path, Error)) {
        std::fprintf(stderr, "sbi: %s\n", Error.c_str());
        return 1;
      }
      const CorpusShardHeader &Header = Reader.header();
      if (!HaveDims) {
        NumSites = Header.NumSites;
        NumPredicates = Header.NumPredicates;
        HaveDims = true;
      } else if (Header.NumSites != NumSites ||
                 Header.NumPredicates != NumPredicates) {
        std::fprintf(stderr,
                     "sbi: %s: dimension mismatch (%u sites / %u "
                     "predicates, expected %u / %u)\n",
                     Path.c_str(), Header.NumSites, Header.NumPredicates,
                     NumSites, NumPredicates);
        return 1;
      }
      FeedbackReport Report;
      while (Reader.next(Report, Error)) {
        // Roll to a new output shard only once another record exists, so
        // an exact multiple of --shard-reports never leaves a trailing
        // empty shard.
        if (Writer.isOpen() &&
            Writer.reportsWritten() >= Args.ShardReports) {
          if (!Writer.finalize(Error))
            break;
          ++OutShard;
        }
        if (!Writer.isOpen() && !openNext())
          break;
        if (!Writer.append(Report, Error))
          break;
        ++Written;
      }
      if (!Error.empty()) {
        std::fprintf(stderr, "sbi: merge failed at %s: %s\n", Path.c_str(),
                     Error.c_str());
        return 1;
      }
    }
  }
  // An all-empty input set still yields one (empty) shard, keeping the
  // output a well-formed corpus.
  if (!Writer.isOpen() && !openNext()) {
    std::fprintf(stderr, "sbi: merge failed: %s\n", Error.c_str());
    return 1;
  }
  if (!Writer.finalize(Error)) {
    std::fprintf(stderr, "sbi: merge failed: %s\n", Error.c_str());
    return 1;
  }
  std::printf("merged %llu reports from %zu corpora into %u shards under "
              "%s\n",
              static_cast<unsigned long long>(Written), Args.Inputs.size(),
              OutShard + 1, Args.OutFile.c_str());
  return 0;
}

/// `sbi corpus validate DIR`: full decode of every record of every shard;
/// malformed input is reported, never crashes.
int cmdCorpusValidate(const CliArgs &Args) {
  if (!takesOnly(Args, "corpus validate", {}))
    return usage();
  if (Args.Inputs.empty()) {
    std::fprintf(stderr, "sbi: corpus validate needs a corpus directory\n");
    return usage();
  }
  const std::string &Dir = Args.Inputs.front();
  std::vector<std::string> Shards = listCorpusShards(Dir);
  if (Shards.empty()) {
    std::fprintf(stderr, "sbi: no shard files in '%s'\n", Dir.c_str());
    return 1;
  }
  uint64_t Reports = 0;
  for (const std::string &Path : Shards) {
    CorpusReader Reader;
    std::string Error;
    if (!Reader.open(Path, Error)) {
      // The reader's error names the shard; a record error below does not.
      std::fprintf(stderr, "sbi: INVALID: %s\n", Error.c_str());
      return 1;
    }
    FeedbackReport Report;
    uint64_t Decoded = 0;
    while (Reader.next(Report, Error))
      ++Decoded;
    if (!Error.empty()) {
      std::fprintf(stderr, "sbi: %s: INVALID after %llu records: %s\n",
                   Path.c_str(), static_cast<unsigned long long>(Decoded),
                   Error.c_str());
      return 1;
    }
    Reports += Decoded;
  }
  std::printf("ok: %zu shards, %llu reports\n", Shards.size(),
              static_cast<unsigned long long>(Reports));
  return 0;
}

/// `sbi lint [--subject=NAME] [--json]`: static findings over one subject
/// or (default) every subject. Output is deterministic, so CI pins golden
/// per-subject finding counts against the trailing summary lines.
int cmdLint(const CliArgs &Args) {
  if (!takesOnly(Args, "lint", {"subject", "json"}))
    return usage();
  std::vector<const Subject *> Subjects;
  if (!Args.SubjectName.empty()) {
    const Subject *Subj = subjectOf(Args);
    if (!Subj)
      return 1;
    Subjects.push_back(Subj);
  } else {
    Subjects = allSubjects();
  }

  if (Args.Json)
    std::printf("[");
  bool First = true;
  for (const Subject *Subj : Subjects) {
    std::unique_ptr<Program> Prog =
        compileSubjectSource(Subj->Source, Subj->Name);
    LintReport Report = runLint(*Prog);
    if (Args.Json) {
      std::printf("%s\n%s", First ? "" : ",",
                  renderLintJson(Subj->Name, Report).c_str());
    } else {
      if (!First)
        std::printf("\n");
      std::printf("%s", renderLintHuman(Subj->Name, Report).c_str());
    }
    First = false;
  }
  if (Args.Json)
    std::printf("\n]\n");
  return 0;
}

/// `sbi trace summarize --in=FILE [--top=K] [--json]`: self-time summary
/// of a Chrome trace_event file produced by --trace-out.
int cmdTraceSummarize(const CliArgs &Args) {
  if (!takesOnly(Args, "trace summarize", {"in", "top", "json"}))
    return usage();
  if (Args.InFile.empty()) {
    std::fprintf(stderr, "sbi: trace summarize needs --in=FILE\n");
    return usage();
  }
  std::ifstream In(Args.InFile);
  if (!In) {
    std::fprintf(stderr, "sbi: cannot open '%s'\n", Args.InFile.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  TraceSummary Summary;
  std::string Error;
  if (!summarizeTrace(Buffer.str(), Summary, Error)) {
    std::fprintf(stderr, "sbi: '%s' is not a valid trace file: %s\n",
                 Args.InFile.c_str(), Error.c_str());
    return 1;
  }
  if (Args.Json)
    std::printf("%s", renderTraceSummaryJson(Summary, Args.Top).c_str());
  else
    std::printf("%s", renderTraceSummary(Summary, Args.Top).c_str());
  return 0;
}

int cmdTrace(const CliArgs &Args) {
  if (Args.SubCommand == "summarize")
    return cmdTraceSummarize(Args);
  std::fprintf(stderr, "sbi: unknown trace verb '%s'\n",
               Args.SubCommand.c_str());
  return usage();
}

int cmdCorpus(const CliArgs &Args) {
  if (Args.SubCommand == "info")
    return cmdCorpusInfo(Args);
  if (Args.SubCommand == "merge")
    return cmdCorpusMerge(Args);
  if (Args.SubCommand == "validate")
    return cmdCorpusValidate(Args);
  std::fprintf(stderr, "sbi: unknown corpus verb '%s'\n",
               Args.SubCommand.c_str());
  return usage();
}

int dispatch(const CliArgs &Args) {
  if (Args.Command == "subjects")
    return takesOnly(Args, "subjects", {}) ? cmdSubjects() : usage();
  if (Args.Command == "run")
    return cmdRun(Args);
  if (Args.Command == "analyze")
    return cmdAnalyze(Args);
  if (Args.Command == "logreg")
    return cmdLogReg(Args);
  if (Args.Command == "report")
    return cmdReport(Args);
  if (Args.Command == "corpus")
    return cmdCorpus(Args);
  if (Args.Command == "lint")
    return cmdLint(Args);
  if (Args.Command == "trace")
    return cmdTrace(Args);
  std::fprintf(stderr, "sbi: unknown command '%s'\n", Args.Command.c_str());
  return usage();
}

} // namespace

int main(int Argc, char **Argv) {
  CliArgs Args;
  if (!parseArgs(Argc, Argv, Args))
    return usage();
  if (!Args.MetricsOut.empty())
    Telemetry::setEnabled(true);
  if (!Args.TraceOut.empty())
    Tracer::setEnabled(true);
  int Code = dispatch(Args);
  if (!Args.TraceOut.empty()) {
    if (writeTraceFile(Tracer::instance(), Args.TraceOut)) {
      std::fprintf(stderr,
                   "sbi: wrote %llu trace event(s) (%llu dropped) to %s\n",
                   static_cast<unsigned long long>(
                       Tracer::instance().recordedTotal()),
                   static_cast<unsigned long long>(
                       Tracer::instance().droppedTotal()),
                   Args.TraceOut.c_str());
    } else {
      std::fprintf(stderr, "sbi: cannot write trace to '%s'\n",
                   Args.TraceOut.c_str());
      if (Code == 0)
        Code = 1;
    }
  }
  if (!Args.MetricsOut.empty() &&
      !Telemetry::writeJson(Args.MetricsOut)) {
    std::fprintf(stderr, "sbi: cannot write metrics to '%s'\n",
                 Args.MetricsOut.c_str());
    if (Code == 0)
      Code = 1;
  }
  return Code;
}
