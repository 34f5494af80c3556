//===- tools/sbi.cpp - Command-line statistical debugger ------------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
// The command-line face of the library. Its verbs and flags are declared
// once, in SbiFlags.h; `sbi` with no arguments lists them.
//
//===----------------------------------------------------------------------===//

#include "SbiFlags.h"

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
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace sbi;
using namespace sbi::cli;

namespace {

/// A flag named by a constant: a name that is no flag's fails to compile.
struct FlagName {
  size_t Index;
  consteval FlagName(const char *Name) : Index(flagIndex(Name)) {}
};

struct CliArgs {
  const VerbSpec *Verb = nullptr;
  std::vector<std::string> Operands; ///< After the verb's name.
  /// One per row of Flags: the text given, or the default, and what it
  /// converts to (a Count's value, a Choice's position).
  struct Value {
    std::string Text;
    uint64_t Number = 0;
    bool Given = false;
  } Values[std::size(Flags)];
  double Rate = 0; ///< The RATE of a "NAME:RATE" choice.

  const std::string &text(FlagName F) const { return Values[F.Index].Text; }
  uint64_t count(FlagName F) const { return Values[F.Index].Number; }
  bool on(FlagName F) const { return Values[F.Index].Given; }
  template <typename Enum> Enum choice(FlagName F) const {
    return static_cast<Enum>(Values[F.Index].Number);
  }
};

/// Appends \p Head, then the words of \p Body from column 22 on, wrapped
/// to fit 79 columns.
void appendWrapped(std::string &Text, std::string Line, std::string_view Body) {
  constexpr size_t Indent = 22, Width = 79;
  std::istringstream Words{std::string(Body)};
  for (std::string Word; Words >> Word;) {
    if (Line.size() > Indent && Line.size() + 1 + Word.size() > Width) {
      Text += Line + "\n";
      Line.clear();
    }
    Line = (Line.size() < Indent ? padRight(Line, Indent) : Line + " ") + Word;
  }
  Text += Line + "\n";
}

int usage() {
  std::string Text = "usage: sbi <verb> [operands] [flags]\n"
                     "verbs, and the flags each reads (campaign only: read "
                     "while the verb runs a\ncampaign, which analyze, "
                     "logreg and report do unless given --in):\n";
  for (const VerbSpec &Verb : Verbs) {
    std::string Always, CampaignOnly;
    for (const FlagSpec &Flag : Flags) {
      if (takes(Verb, Flag, /*WithIn=*/true))
        Always += std::string(" --") + Flag.Name;
      else if (takes(Verb, Flag, /*WithIn=*/false))
        CampaignOnly += std::string(" --") + Flag.Name;
    }
    appendWrapped(Text, format("  %s %s", Verb.Name, Verb.Synopsis), Always);
    if (!CampaignOnly.empty())
      appendWrapped(Text, "", "campaign only:" + CampaignOnly);
  }
  Text += "flags:\n";
  for (const FlagSpec &Flag : Flags) {
    std::string Body = Flag.Usage;
    if (Flag.Kind == FlagKind::Count)
      Body += format(" (default %s; %llu to %llu)", Flag.Default, Flag.Min,
                     Flag.Max);
    else if (*Flag.Default)
      Body += format(" (default %s)", Flag.Default);
    std::string Head = std::string("  --") + Flag.Name;
    if (Flag.Kind != FlagKind::Switch)
      Head += std::string("=") + Flag.Value;
    appendWrapped(Text, Head, Body);
  }
  std::fputs(Text.c_str(), stderr);
  return 2;
}

/// Converts \p Value's text as \p Flag reads it, or says why it cannot.
bool convert(const FlagSpec &Flag, CliArgs::Value &Value, double &Rate) {
  const std::string &Text = Value.Text;
  if (Flag.Kind == FlagKind::Count &&
      !(parseUnsigned(Text, Value.Number) && Value.Number >= Flag.Min &&
        Value.Number <= Flag.Max)) {
    std::fprintf(stderr,
                 "sbi: bad value '%s' for --%s: expected an integer from "
                 "%llu to %llu\n",
                 Text.c_str(), Flag.Name, Flag.Min, Flag.Max);
    return false;
  }
  if (Flag.Kind != FlagKind::Choice)
    return true;
  const int Position = choicePosition(Flag, Text);
  if (Position < 0) {
    std::fprintf(stderr, "sbi: bad value '%s' for --%s: expected %s\n",
                 Text.c_str(), Flag.Name, Flag.Value);
    return false;
  }
  Value.Number = static_cast<uint64_t>(Position);
  const size_t Colon = Text.find(':');
  if (Colon == std::string::npos ||
      parseRate(std::string_view(Text).substr(Colon + 1), Rate))
    return true;
  std::fprintf(stderr,
               "sbi: bad rate '%s' for --%s=%sRATE: expected a number with "
               "0 < RATE <= 1\n",
               Text.c_str() + Colon + 1, Flag.Name,
               Text.substr(0, Colon + 1).c_str());
  return false;
}

/// Reads the verb, its operands and its flags. Refuses, in this order, an
/// unknown flag, one the verb does not read, the wrong number of operands
/// and a value its flag does not accept.
bool parseArgs(int Argc, char **Argv, CliArgs &Args) {
  if (Argc < 2)
    return false;
  for (int I = 2; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (!startsWith(Arg, "--")) {
      Args.Operands.emplace_back(Arg);
      continue;
    }
    const size_t Eq = Arg.find('=');
    const FlagSpec *Flag = std::find_if(
        std::begin(Flags), std::end(Flags),
        [&](const FlagSpec &F) { return F.Name == Arg.substr(2, Eq - 2); });
    if (Flag == std::end(Flags) ||
        (Flag->Kind == FlagKind::Switch) != (Eq == std::string_view::npos)) {
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
    Args.Values[Flag - Flags] = {
        std::string(Eq == std::string_view::npos ? "" : Arg.substr(Eq + 1)),
        0, true};
  }

  // A command with sub-verbs, like corpus, names one in its first operand.
  std::string Name = Argv[1], SubVerb;
  const bool HasSubVerbs =
      std::any_of(std::begin(Verbs), std::end(Verbs), [&](const VerbSpec &V) {
        return startsWith(V.Name, Name + " ");
      });
  if (HasSubVerbs && !Args.Operands.empty()) {
    SubVerb = Args.Operands.front();
    Args.Operands.erase(Args.Operands.begin());
    Name += " " + SubVerb;
  }
  for (const VerbSpec &Verb : Verbs)
    if (Verb.Name == Name)
      Args.Verb = &Verb;
  if (!Args.Verb) {
    if (HasSubVerbs)
      std::fprintf(stderr, "sbi: unknown %s verb '%s'\n", Argv[1],
                   SubVerb.c_str());
    else
      std::fprintf(stderr, "sbi: unknown command '%s'\n", Argv[1]);
    return false;
  }
  const VerbSpec &Verb = *Args.Verb;

  bool Ok = true, NoCampaign = false;
  const bool WithIn = !Args.text("in").empty();
  for (size_t I = 0; I < std::size(Flags); ++I) {
    if (!Args.Values[I].Given || takes(Verb, Flags[I], WithIn))
      continue;
    std::fprintf(stderr, "sbi: %s does not take --%s\n", Verb.Name,
                 Flags[I].Name);
    NoCampaign |= takes(Verb, Flags[I], /*WithIn=*/false);
    Ok = false;
  }
  if (NoCampaign)
    std::fprintf(stderr, "sbi: with --in, %s reads the runs from the corpus "
                         "and runs no campaign\n",
                 Verb.Name);
  if (!Ok)
    return false;

  if (Args.Operands.size() > Verb.MaxOperands) {
    std::fprintf(stderr, "sbi: unexpected operand '%s' for %s\n",
                 Args.Operands[Verb.MaxOperands].c_str(), Verb.Name);
    return false;
  }
  if (Args.Operands.size() < Verb.MinOperands) {
    std::fprintf(stderr, "sbi: %s needs %s\n", Verb.Name, Verb.Synopsis);
    return false;
  }

  for (size_t I = 0; I < std::size(Flags); ++I) {
    if (!Args.Values[I].Given)
      Args.Values[I].Text = Flags[I].Default;
    if (!convert(Flags[I], Args.Values[I], Args.Rate))
      return false;
  }
  return true;
}

/// The subject --subject names, or null after saying it does not exist.
const Subject *subjectOf(const CliArgs &Args) {
  const Subject *Subj = findSubject(Args.text("subject"));
  if (!Subj)
    std::fprintf(stderr, "sbi: unknown subject '%s' (try 'sbi subjects')\n",
                 Args.text("subject").c_str());
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

int cmdSubjects(const CliArgs &) {
  for (const Subject *Subj : allSubjects()) {
    std::printf("%s  (%s-labeled)\n", Subj->Name.c_str(),
                Subj->UseOutputOracle ? "oracle" : "crash");
    for (const BugSpec &Bug : Subj->Bugs)
      std::printf("  #%d  %-26s  %s\n", Bug.Id, Bug.Kind.c_str(),
                  Bug.Description.c_str());
  }
  return 0;
}

CampaignOptions campaignOptions(const CliArgs &Args) {
  CampaignOptions Options;
  Options.NumRuns = Args.count("runs");
  Options.Seed = Args.count("seed");
  Options.Threads = Args.count("threads");
  Options.StaticPrune = Args.on("static-prune");
  Options.Exec = Args.choice<Engine>("engine");
  Options.Mode = Args.choice<SamplingMode>("sampling");
  if (Options.Mode == SamplingMode::Uniform)
    Options.UniformRate = Args.Rate;
  if (Args.on("progress")) {
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
  return Options;
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
  const std::string &InDir = Args.text("in");
  if (InDir.empty()) {
    CampaignOptions Options = campaignOptions(Args);
    std::fprintf(stderr, "sbi: running %zu '%s' inputs...\n", Options.NumRuns,
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
  if (!ingestCorpus(InDir, Out.Runs, Args.count("threads"), Error, &Stats)) {
    std::fprintf(stderr, "sbi: cannot read corpus '%s': %s\n", InDir.c_str(),
                 Error.c_str());
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
  if (Counts && !readCorpus(InDir, *Counts, Error)) {
    std::fprintf(stderr, "sbi: cannot read corpus '%s': %s\n", InDir.c_str(),
                 Error.c_str());
    return false;
  }
  return true;
}

/// The one write path: the campaign's workers spill their reports straight
/// into the corpus at --out; no ReportSet is ever materialized.
int cmdRun(const CliArgs &Args) {
  const Subject *Subj = subjectOf(Args);
  if (!Subj)
    return 1;
  CampaignOptions Options = campaignOptions(Args);
  const std::string &Out = Args.text("out");
  Options.SpillDir = Out.empty() ? Subj->Name + ".corpus" : Out;
  Options.SpillShardReports = Args.count("shard-reports");
  std::fprintf(stderr, "sbi: running %zu '%s' inputs...\n", Options.NumRuns,
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

/// The analysis flags analyze and report share: --analysis-engine,
/// --policy and --threads (the index build's workers).
AnalysisOptions analysisOptions(const CliArgs &Args) {
  AnalysisOptions Options;
  Options.IndexThreads = Args.count("threads");
  Options.Engine = Args.choice<AnalysisEngine>("analysis-engine");
  Options.Policy = Args.choice<DiscardPolicy>("policy");
  return Options;
}

int cmdAnalyze(const CliArgs &Args) {
  AnalysisOptions Options = analysisOptions(Args);
  // Only --affinity prints the lists; `report` always renders them.
  if (!Args.on("affinity"))
    Options.AffinityTopK = 0;
  Population Pop;
  ReportSet Counts;
  if (!loadPopulation(Args, Pop, Args.on("static-prune") ? &Counts : nullptr))
    return 1;

  if (Args.on("static-prune")) {
    // Check the static claims against the recorded counts. With --in=DIR
    // the runs typically come from an unpruned reference campaign, which is
    // the strong direction: every pruned site must show zero (or
    // exactly-constant) counts even though it was fully instrumented.
    const PruneResult Prune = computePrune(*Pop.Prog, Pop.Sites);
    if (!Args.text("in").empty())
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

  if (Args.on("trace"))
    std::printf("%s\n", renderAuditTrail(Pop.Sites, Analysis).c_str());

  std::vector<int> BugIds;
  if (Args.on("bugs"))
    for (const BugSpec &Bug : Pop.Subj->Bugs)
      BugIds.push_back(Bug.Id);
  const size_t Top = Args.count("top");
  std::printf("%s\n", renderSelectedList(Pop.Sites, Pop.Runs,
                                         Analysis.Selected, BugIds, Top)
                          .c_str());

  if (Args.on("affinity"))
    for (size_t I = 0; I < Analysis.Selected.size() && I < Top; ++I)
      std::printf("%s",
                  renderAffinity(Pop.Sites, Analysis.Selected[I]).c_str());
  return 0;
}

int cmdLogReg(const CliArgs &Args) {
  Population Pop;
  if (!loadPopulation(Args, Pop))
    return 1;
  // --top is at most a million, so the product fits.
  const size_t Top = Args.count("top");
  LogRegModel Model = trainForSparsity(
      Pop.Runs, /*MaxActive=*/static_cast<int>(Top) * 3,
      {0.05, 0.02, 0.01, 0.005, 0.002});
  std::printf("trained: %d nonzero weights (%d iterations)\n\n",
              Model.numNonzero(), Model.Iterations);
  std::printf("%-12s %s\n", "Coefficient", "Predicate");
  for (const auto &[Pred, Weight] : Model.topByMagnitude(Top))
    std::printf("%12.6f %s\n", Weight,
                predicateLabel(Pop.Sites, Pred).c_str());
  return 0;
}

int cmdReport(const CliArgs &Args) {
  Population Pop;
  if (!loadPopulation(Args, Pop))
    return 1;
  CauseIsolator Isolator(Pop.Sites, Pop.Runs, analysisOptions(Args));
  AnalysisResult Analysis = Isolator.run();

  HtmlReportOptions Options;
  Options.TopK = Args.count("top");
  Options.ShowGroundTruth = Args.on("bugs");
  std::string Html =
      renderHtmlReport(*Pop.Subj, Pop.Sites, Pop.Runs, Analysis, Options);

  std::string OutFile = Args.text("out").empty()
                            ? Pop.Subj->Name + ".report.html"
                            : Args.text("out");
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
  const std::string &Dir = Args.Operands.front();
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
  const std::string &OutDir = Args.text("out");
  if (OutDir.empty()) {
    std::fprintf(stderr, "sbi: corpus merge needs --out=DIR\n");
    return usage();
  }
  // Replacing the output corpus would delete an input that is the same
  // directory before it is read; refuse before writing anything.
  for (const std::string &Dir : Args.Operands) {
    std::error_code Ec;
    if (std::filesystem::equivalent(OutDir, Dir, Ec)) {
      std::fprintf(stderr,
                   "sbi: corpus merge --out='%s' is also an input; merge "
                   "into another directory\n",
                   OutDir.c_str());
      return 2;
    }
  }
  std::string Error;
  if (!clearCorpusDir(OutDir, Error)) {
    std::fprintf(stderr, "sbi: %s\n", Error.c_str());
    return 1;
  }

  CorpusWriter Writer;
  uint32_t OutShard = 0;
  uint64_t Written = 0;
  uint32_t NumSites = 0, NumPredicates = 0;
  bool HaveDims = false;
  auto openNext = [&] {
    return Writer.open(OutDir + "/" + corpusShardName(OutShard),
                       OutShard, NumSites, NumPredicates, Error);
  };

  const uint64_t ShardReports = Args.count("shard-reports");
  for (const std::string &Dir : Args.Operands) {
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
        if (Writer.isOpen() && Writer.reportsWritten() >= ShardReports) {
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
              static_cast<unsigned long long>(Written), Args.Operands.size(),
              OutShard + 1, OutDir.c_str());
  return 0;
}

/// `sbi corpus validate DIR`: full decode of every record of every shard;
/// malformed input is reported, never crashes.
int cmdCorpusValidate(const CliArgs &Args) {
  const std::string &Dir = Args.Operands.front();
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
  std::vector<const Subject *> Subjects;
  if (!Args.text("subject").empty()) {
    const Subject *Subj = subjectOf(Args);
    if (!Subj)
      return 1;
    Subjects.push_back(Subj);
  } else {
    Subjects = allSubjects();
  }

  if (Args.on("json"))
    std::printf("[");
  bool First = true;
  for (const Subject *Subj : Subjects) {
    std::unique_ptr<Program> Prog =
        compileSubjectSource(Subj->Source, Subj->Name);
    LintReport Report = runLint(*Prog);
    if (Args.on("json")) {
      std::printf("%s\n%s", First ? "" : ",",
                  renderLintJson(Subj->Name, Report).c_str());
    } else {
      if (!First)
        std::printf("\n");
      std::printf("%s", renderLintHuman(Subj->Name, Report).c_str());
    }
    First = false;
  }
  if (Args.on("json"))
    std::printf("\n]\n");
  return 0;
}

/// `sbi trace summarize --in=FILE [--top=K] [--json]`: self-time summary
/// of a Chrome trace_event file produced by --trace-out.
int cmdTraceSummarize(const CliArgs &Args) {
  const std::string &File = Args.text("in");
  if (File.empty()) {
    std::fprintf(stderr, "sbi: trace summarize needs --in=FILE\n");
    return usage();
  }
  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "sbi: cannot open '%s'\n", File.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  TraceSummary Summary;
  std::string Error;
  if (!summarizeTrace(Buffer.str(), Summary, Error)) {
    std::fprintf(stderr, "sbi: '%s' is not a valid trace file: %s\n",
                 File.c_str(), Error.c_str());
    return 1;
  }
  const size_t Top = Args.count("top");
  if (Args.on("json"))
    std::printf("%s", renderTraceSummaryJson(Summary, Top).c_str());
  else
    std::printf("%s", renderTraceSummary(Summary, Top).c_str());
  return 0;
}

int dispatch(const CliArgs &Args) {
  const std::pair<VerbBit, int (*)(const CliArgs &)> Handlers[] = {
      {Subjects, cmdSubjects},       {Run, cmdRun},
      {Analyze, cmdAnalyze},         {LogReg, cmdLogReg},
      {Report, cmdReport},           {CorpusInfo, cmdCorpusInfo},
      {CorpusMerge, cmdCorpusMerge}, {CorpusValidate, cmdCorpusValidate},
      {Lint, cmdLint},               {TraceSummarize, cmdTraceSummarize}};
  for (const auto &[Bit, Handle] : Handlers)
    if (Bit == Args.Verb->Bit)
      return Handle(Args);
  return usage();
}

} // namespace

int main(int Argc, char **Argv) {
  CliArgs Args;
  if (!parseArgs(Argc, Argv, Args))
    return usage();
  const std::string &MetricsOut = Args.text("metrics-out");
  const std::string &TraceOut = Args.text("trace-out");
  if (!MetricsOut.empty())
    Telemetry::setEnabled(true);
  if (!TraceOut.empty())
    Tracer::setEnabled(true);
  int Code = dispatch(Args);
  if (!TraceOut.empty()) {
    if (writeTraceFile(Tracer::instance(), TraceOut)) {
      std::fprintf(stderr,
                   "sbi: wrote %llu trace event(s) (%llu dropped) to %s\n",
                   static_cast<unsigned long long>(
                       Tracer::instance().recordedTotal()),
                   static_cast<unsigned long long>(
                       Tracer::instance().droppedTotal()),
                   TraceOut.c_str());
    } else {
      std::fprintf(stderr, "sbi: cannot write trace to '%s'\n",
                   TraceOut.c_str());
      if (Code == 0)
        Code = 1;
    }
  }
  if (!MetricsOut.empty() && !Telemetry::writeJson(MetricsOut)) {
    std::fprintf(stderr, "sbi: cannot write metrics to '%s'\n",
                 MetricsOut.c_str());
    if (Code == 0)
      Code = 1;
  }
  return Code;
}
