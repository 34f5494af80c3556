//===- tests/integration/ObservabilityTest.cpp - Phases are a span view ---===//
//
// ScopedSpan is the one scope timer: with telemetry and tracing both on,
// the metrics registry's phase table must be exactly a view over the
// trace. Every span name's count and summed duration equal its phase's,
// and no phase exists without a span. The pipeline under test records
// spans on several threads at every layer: a 2-thread spilled VM
// campaign, streamed ingestion of its corpus, and the analysis.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "feedback/Corpus.h"
#include "harness/Campaign.h"
#include "obs/Telemetry.h"
#include "obs/Tracer.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

using namespace sbi;

namespace {

/// Turns both switches on for one scope, and off again however it ends.
struct BothSwitchesOn {
  BothSwitchesOn() {
    Telemetry::setEnabled(true);
    Tracer::setEnabled(true);
  }
  ~BothSwitchesOn() {
    Tracer::setEnabled(false);
    Telemetry::setEnabled(false);
  }
};

/// Every phase of the process-wide registry, by name.
std::map<std::string, PhaseStats> phaseTable() {
  json::Value Doc;
  std::string Error;
  EXPECT_TRUE(json::parse(Telemetry::toJson(), Doc, Error)) << Error;
  std::map<std::string, PhaseStats> Out;
  if (const json::Value *Phases = Doc.find("phases"))
    for (const json::Member &M : Phases->members())
      Out[M.first] = Telemetry::metrics().phase(M.first);
  return Out;
}

TEST(ObservabilityTest, PhaseTableIsAViewOverTheSpans) {
  const std::string Dir = ::testing::TempDir() + "sbi-observability-corpus";
  std::filesystem::remove_all(Dir);
  Tracer::instance().setBufferCapacity(1 << 16);
  Tracer::instance().reset();
  // Earlier tests in this process may have recorded phases; compare the
  // deltas this pipeline adds.
  std::map<std::string, PhaseStats> Before = phaseTable();
  {
    BothSwitchesOn On;
    CampaignOptions Options;
    Options.NumRuns = 200;
    Options.TrainingRuns = 40;
    Options.Threads = 2;
    Options.Exec = Engine::VM;
    Options.SpillDir = Dir;
    Options.SpillShardReports = 64;
    CampaignResult Campaign = runCampaign(ccryptSubject(), Options);
    ASSERT_TRUE(Campaign.Error.empty()) << Campaign.Error;
    RunProfiles Runs;
    std::string Error;
    ASSERT_TRUE(ingestCorpus(Dir, Runs, /*Threads=*/2, Error)) << Error;
    AnalysisResult Analysis =
        CauseIsolator(Campaign.Sites, Runs, AnalysisOptions()).run();
    EXPECT_FALSE(Analysis.Selected.empty());
  }

  std::map<std::string, PhaseStats> Spans;
  for (const TraceBuffer *B : Tracer::instance().buffers())
    for (size_t I = 0; I < B->size(); ++I) {
      const TraceEvent &Ev = B->event(I);
      if (Ev.Instant)
        continue;
      PhaseStats &Span = Spans[Ev.Name];
      ++Span.Count;
      Span.TotalNanos += Ev.DurNs;
    }
  EXPECT_EQ(Tracer::instance().droppedTotal(), 0u);

  std::map<std::string, PhaseStats> Delta;
  for (const auto &[Name, After] : phaseTable()) {
    PhaseStats Old = Before.count(Name) ? Before.at(Name) : PhaseStats{};
    if (After.Count != Old.Count)
      Delta[Name] = {After.Count - Old.Count,
                     After.TotalNanos - Old.TotalNanos};
  }

  // Every layer's spans are there: campaign, execution, spill, ingest and
  // analysis.
  for (const char *Name :
       {"campaign", "parse", "plan_training", "run_loop", "label", "worker",
        "spill_shard", "vm_compile", "vm_execute", "corpus_ingest",
        "ingest_shard", "analysis", "index_build", "initial_scan",
        "elimination", "elimination_iter"})
    EXPECT_EQ(Spans.count(Name), 1u) << Name;
  for (const auto &[Name, Span] : Spans) {
    ASSERT_EQ(Delta.count(Name), 1u) << "span '" << Name << "' has no phase";
    EXPECT_EQ(Delta.at(Name).Count, Span.Count) << Name;
    EXPECT_EQ(Delta.at(Name).TotalNanos, Span.TotalNanos) << Name;
  }
  for (const auto &[Name, Phase] : Delta)
    EXPECT_EQ(Spans.count(Name), 1u) << "phase '" << Name << "' has no span";

  Tracer::instance().reset();
  std::filesystem::remove_all(Dir);
}

} // namespace
