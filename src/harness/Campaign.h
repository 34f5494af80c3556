//===- harness/Campaign.h - End-to-end experiment campaigns ---------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one subject program through the full pipeline the paper's studies
/// use: build the instrumentation site table, choose a sampling plan
/// (optionally the nonuniform plan trained on preliminary runs, Section 4),
/// execute N random inputs, label each run by crash/exit status and — for
/// subjects with an output oracle — by comparing output against the golden
/// (bug-free) build on the same input, and collect the labeled feedback
/// reports.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_HARNESS_CAMPAIGN_H
#define SBI_HARNESS_CAMPAIGN_H

#include "feedback/Report.h"
#include "instrument/Collector.h"
#include "instrument/Sites.h"
#include "lang/Sema.h"
#include "sa/Prune.h"
#include "subjects/Subjects.h"

#include <functional>
#include <memory>
#include <string>

namespace sbi {

enum class SamplingMode {
  None,    ///< Complete monitoring (rate 1.0 everywhere).
  Uniform, ///< One fixed rate for every site (the paper's 1/100).
  Adaptive ///< Nonuniform rates trained on preliminary runs (Section 4).
};

/// Which execution engine runs the subject. The two are observably
/// equivalent — differential-tested down to bit-identical sampled
/// feedback reports — so campaigns may use either. The tree-walker is the
/// default and the reference the differential tests hold the VM to; the
/// VM is the faster engine at every sampling rate (EXPERIMENTS.md).
enum class Engine {
  Interpreter, ///< Tree-walking reference interpreter (default).
  VM           ///< Bytecode virtual machine.
};

struct CampaignOptions {
  size_t NumRuns = 4000;
  uint64_t Seed = 20050612; // PLDI 2005's opening day.
  SamplingMode Mode = SamplingMode::Adaptive;
  double UniformRate = 0.01;
  /// Training executions for the adaptive plan (the paper used 1,000).
  size_t TrainingRuns = 300;
  double TargetSamples = 100.0;
  double MinRate = 0.01;
  /// Per-run silent-overrun padding is drawn uniformly from
  /// [0, MaxOverrunPad].
  size_t MaxOverrunPad = 7;
  uint64_t StepLimit = 5'000'000;
  Engine Exec = Engine::Interpreter;
  /// Worker threads for the main run loop. Per-run seeds derive from the
  /// run index, so any thread count produces bit-identical reports
  /// (tested); 0 means "one per hardware thread".
  size_t Threads = 1;
  /// Optional progress sink for the main run loop, called with
  /// (runs completed, total runs) roughly every 0.5% of runs and once at
  /// completion. Invoked from worker threads (worker 0 is the calling
  /// thread) — must be thread-safe.
  std::function<void(size_t Done, size_t Total)> Progress;
  /// Static predicate pruning (src/sa): classify every site before the
  /// campaign and instrument only the Live ones. Site ids are not
  /// renumbered, so reports and rankings stay directly comparable with an
  /// unpruned campaign at the same seed; the retained predicates' rankings
  /// are bit-identical (prunedRankingsMatch, differential-tested).
  bool StaticPrune = false;
  /// Spill mode (how `sbi run --out=DIR` writes): when non-empty, workers
  /// flush completed reports into SBI-CORPUS v2 shards under this
  /// directory instead of materializing CampaignResult::Reports, bounding
  /// memory by Threads x SpillShardReports rather than NumRuns. Shard K
  /// holds runs [K*SpillShardReports, (K+1)*SpillShardReports) in run
  /// order, so the corpus bytes are identical for any thread count and
  /// reading the shards back in filename order reproduces the in-memory
  /// run order. Each worker owns whole shards, so a campaign with fewer
  /// shards than Threads runs on fewer threads. The new corpus replaces
  /// any corpus already in the directory (clearCorpusDir). A directory or
  /// shard that cannot be written ends the campaign with
  /// CampaignResult::Error.
  std::string SpillDir;
  /// Reports per shard in spill mode.
  size_t SpillShardReports = 1024;
};

struct CampaignResult {
  const Subject *Subj = nullptr;
  std::unique_ptr<Program> Prog;
  std::unique_ptr<Program> Golden;
  SiteTable Sites;
  SamplingPlan Plan = SamplingPlan::full(0);
  ReportSet Reports;
  int LinesOfCode = 0;
  /// Filled when Options.StaticPrune was set: the per-site classification
  /// the campaign instrumented under (Prune.Sites is empty otherwise).
  bool StaticPruned = false;
  PruneResult Prune;
  /// Per bug id: number of runs in which the bug triggered, and in how
  /// many of those the run was labeled failing.
  struct BugStats {
    int BugId = 0;
    size_t Triggered = 0;
    size_t TriggeredAndFailed = 0;
  };
  std::vector<BugStats> Bugs;

  /// Spill-mode accounting (Options.SpillDir non-empty): Reports stays
  /// empty — the corpus directory is the output — but run totals, failure
  /// labels, and per-bug stats are still tallied as the reports stream out.
  size_t SpilledShards = 0;
  size_t SpilledReports = 0;
  size_t SpilledFailing = 0;
  uint64_t SpilledBytes = 0;

  /// Empty on success. Otherwise why a spill-mode campaign stopped: the
  /// spill directory could not be created or a shard could not be written.
  /// The first failure stops every worker at its next unit, so the corpus
  /// directory is incomplete and the other results are unspecified.
  std::string Error;

  size_t numFailing() const {
    return Reports.size() ? Reports.numFailing() : SpilledFailing;
  }
  size_t numSuccessful() const {
    return Reports.size() ? Reports.numSuccessful()
                          : SpilledReports - SpilledFailing;
  }
};

/// Runs the full campaign. Aborts if the subject's sources fail to parse —
/// subject programs are part of this repository and must be valid. Spill
/// failures come back in CampaignResult::Error instead.
CampaignResult runCampaign(const Subject &Subj,
                           const CampaignOptions &Options = {});

/// Parses and analyzes a subject source, asserting success.
std::unique_ptr<Program> compileSubjectSource(const std::string &Source,
                                              const std::string &Name);

} // namespace sbi

#endif // SBI_HARNESS_CAMPAIGN_H
