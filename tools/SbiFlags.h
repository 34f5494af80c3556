//===- tools/SbiFlags.h - The verbs and flags of sbi ------------*- C++ -*-===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every verb and flag `sbi` knows, each declared once. sbi.cpp parses,
/// checks, converts and prints its usage from these tables, and
/// tests/cli/SbiCliTest.cpp generates its refusal rows from them.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_TOOLS_SBIFLAGS_H
#define SBI_TOOLS_SBIFLAGS_H

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string_view>

namespace sbi::cli {

/// One bit per verb, for the set of verbs that read a flag.
enum VerbBit : uint32_t {
  Subjects = 1u << 0,
  Run = 1u << 1,
  Analyze = 1u << 2,
  LogReg = 1u << 3,
  Report = 1u << 4,
  CorpusInfo = 1u << 5,
  CorpusMerge = 1u << 6,
  CorpusValidate = 1u << 7,
  Lint = 1u << 8,
  TraceSummarize = 1u << 9,
  AnyVerb = (1u << 10) - 1,
  /// Every verb while it runs a campaign: run always, and analyze, logreg
  /// and report unless --in names a corpus to read the runs from.
  Campaign = 1u << 10,
};

struct VerbSpec {
  VerbBit Bit;
  const char *Name; ///< The command, then its sub-verb if it has them.
  uint32_t MinOperands, MaxOperands;
  const char *Synopsis; ///< The operands, as the usage text shows them.
};

inline constexpr VerbSpec Verbs[] = {
    {Subjects, "subjects", 0, 0, ""},
    {Run, "run", 0, 0, ""},
    {Analyze, "analyze", 0, 0, ""},
    {LogReg, "logreg", 0, 0, ""},
    {Report, "report", 0, 0, ""},
    {CorpusInfo, "corpus info", 1, 1, "DIR"},
    {CorpusMerge, "corpus merge", 1, UINT32_MAX, "DIR..."},
    {CorpusValidate, "corpus validate", 1, 1, "DIR"},
    {Lint, "lint", 0, 0, ""},
    {TraceSummarize, "trace summarize", 0, 0, ""},
};

enum class FlagKind {
  Text,   ///< --NAME=TEXT.
  Count,  ///< --NAME=N, an unsigned decimal integer from Min to Max.
  Choice, ///< --NAME=CHOICE, converted to an enum by its position.
  Switch, ///< --NAME, off unless given.
};

struct FlagSpec {
  const char *Name;
  FlagKind Kind;
  /// Text and Count: the value in the usage text. Choice: the choices,
  /// '|'-separated in the order of the enum they convert to; a choice
  /// "NAME:RATE" takes a sampling rate after its colon.
  const char *Value;
  const char *Default;         ///< As if given; empty for none.
  unsigned long long Min, Max; ///< Count: the values accepted.
  uint32_t Verbs;              ///< VerbBits of the verbs that read it.
  const char *Usage;
};

using enum FlagKind;

inline constexpr FlagSpec Flags[] = {
    {"subject", Text, "NAME", "", 0, 0, Run | Analyze | LogReg | Report | Lint,
     "the study subject (see 'sbi subjects'); lint's default is all"},
    {"in", Text, "PATH", "", 0, 0, Analyze | LogReg | Report | TraceSummarize,
     "the corpus to read the runs from instead of running a campaign; for "
     "trace summarize, a --trace-out file"},
    {"out", Text, "PATH", "", 0, 0, Run | Report | CorpusMerge,
     "the corpus to write, replacing any there (run default: <subject>.corpus);"
     " for report, the HTML file (default <subject>.report.html)"},
    {"shard-reports", Count, "N", "128", 1, UINT32_MAX, Run | CorpusMerge,
     "reports per shard written; each run-loop worker writes whole shards"},
    {"threads", Count, "N", "0", 0, 256, Run | Analyze | LogReg | Report,
     "worker threads for the run loop, corpus ingest and the analysis; 0 is "
     "one per hardware thread, and results are bit-identical for any N"},
    {"runs", Count, "N", "4000", 0, UINT32_MAX, Campaign,
     "runs in the campaign"},
    {"seed", Count, "S", "20050612", 0, UINT64_MAX, Campaign,
     "the campaign's seed"},
    {"sampling", Choice, "none|uniform:RATE|adaptive", "adaptive", 0, 0,
     Campaign,
     "complete monitoring, one rate 0 < RATE <= 1 at every site, or rates "
     "trained on preliminary runs (Section 4)"},
    {"engine", Choice, "interp|vm", "interp", 0, 0, Campaign,
     "the tree-walking interpreter or the bytecode VM; outcomes, counts and "
     "analyses are identical (crash frame labels may name other nodes)"},
    {"progress", Switch, "", "", 0, 0, Campaign,
     "a live progress bar on stderr during the run loop"},
    {"static-prune", Switch, "", "", 0, 0, Campaign | Analyze,
     "statically classify sites and instrument only the Live ones, keeping "
     "site ids; analyze checks the prune against the runs' counts"},
    {"policy", Choice, "all|failing|relabel", "all", 0, 0, Analyze | Report,
     "what each selection does to the runs its predicate covers: discard "
     "them, discard the failing ones, or relabel those as successes"},
    {"analysis-engine", Choice, "rescan|incremental|bitset", "incremental", 0,
     0, Analyze | Report, "the aggregation engine; all give the same results"},
    {"top", Count, "K", "20", 0, 1000000,
     Analyze | LogReg | Report | TraceSummarize,
     "how many predictors, coefficients or spans to print"},
    {"affinity", Switch, "", "", 0, 0, Analyze,
     "print each listed predictor's affinity list"},
    {"bugs", Switch, "", "", 0, 0, Analyze | Report,
     "add ground-truth columns: the seeded bugs each predictor's runs hit"},
    {"trace", Switch, "", "", 0, 0, Analyze,
     "print the elimination audit trail (unrelated to --trace-out)"},
    {"json", Switch, "", "", 0, 0, Lint | TraceSummarize,
     "machine-readable output"},
    {"metrics-out", Text, "FILE", "", 0, 0, AnyVerb,
     "enable telemetry and write the metrics registry as JSON on exit"},
    {"trace-out", Text, "FILE", "", 0, 0, AnyVerb,
     "record timing spans and write them as Chrome trace_event JSON on exit"},
};

/// The row of the flag named \p Name. Where \p Name is a constant, a name
/// that is no flag's fails to compile.
constexpr size_t flagIndex(std::string_view Name) {
  for (size_t I = 0; I < std::size(Flags); ++I)
    if (std::string_view(Flags[I].Name) == Name)
      return I;
  throw std::invalid_argument("no such flag");
}

/// Whether \p Verb reads \p Flag, given --in=DIR when \p WithIn.
constexpr bool takes(const VerbSpec &Verb, const FlagSpec &Flag,
                     bool WithIn) {
  if (Flag.Verbs & Verb.Bit)
    return true;
  constexpr uint32_t RunsCampaigns = Run | Analyze | LogReg | Report;
  return (Flag.Verbs & Campaign) && (Verb.Bit & RunsCampaigns) &&
         !(WithIn && (Flags[flagIndex("in")].Verbs & Verb.Bit));
}

/// The position of \p Value among \p Flag's choices, or -1. A choice
/// "NAME:RATE" matches every value that starts with "NAME:".
constexpr int choicePosition(const FlagSpec &Flag, std::string_view Value) {
  std::string_view Rest = Flag.Value;
  for (int Position = 0; !Rest.empty(); ++Position) {
    std::string_view Choice = Rest.substr(0, Rest.find('|'));
    Rest.remove_prefix(std::min(Rest.size(), Choice.size() + 1));
    if (Choice.ends_with(":RATE")
            ? Value.starts_with(Choice.substr(0, Choice.size() - 4))
            : Value == Choice)
      return Position;
  }
  return -1;
}

} // namespace sbi::cli

#endif // SBI_TOOLS_SBIFLAGS_H
