//===- tests/harness/CampaignTest.cpp - Campaign driver tests -------------===//

#include "harness/Campaign.h"

#include "feedback/Corpus.h"
#include "obs/Telemetry.h"
#include "runtime/Interp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>

using namespace sbi;

namespace {

CampaignOptions smallOptions(size_t Runs = 150) {
  CampaignOptions Options;
  Options.NumRuns = Runs;
  Options.TrainingRuns = 40;
  Options.Seed = 777;
  return Options;
}

/// A fresh scratch directory named after the running test, so tests that
/// ctest runs as concurrent processes never share one.
std::string freshTestDir() {
  std::string Dir = ::testing::TempDir() + "sbi-campaign-" +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Every shard's file name and bytes, in corpus order.
std::string corpusBytes(const std::string &Dir) {
  std::string Bytes;
  for (const std::string &Shard : listCorpusShards(Dir)) {
    std::ifstream In(Shard, std::ios::binary);
    Bytes += std::filesystem::path(Shard).filename().string() + ":";
    Bytes.append(std::istreambuf_iterator<char>(In),
                 std::istreambuf_iterator<char>());
  }
  return Bytes;
}

/// Turns telemetry on for one scope, and off again however the scope ends.
struct TelemetryOn {
  TelemetryOn() { Telemetry::setEnabled(true); }
  ~TelemetryOn() { Telemetry::setEnabled(false); }
};

} // namespace

TEST(CampaignTest, ProducesOneReportPerRun) {
  CampaignResult Result = runCampaign(ccryptSubject(), smallOptions());
  EXPECT_EQ(Result.Reports.size(), 150u);
  EXPECT_EQ(Result.Reports.numPredicates(), Result.Sites.numPredicates());
  EXPECT_EQ(Result.Reports.numSites(), Result.Sites.numSites());
}

TEST(CampaignTest, HasBothLabels) {
  CampaignResult Result = runCampaign(ccryptSubject(), smallOptions());
  EXPECT_GT(Result.numFailing(), 0u);
  EXPECT_GT(Result.numSuccessful(), 0u);
}

TEST(CampaignTest, DeterministicForSameSeed) {
  CampaignResult A = runCampaign(exifSubject(), smallOptions());
  CampaignResult B = runCampaign(exifSubject(), smallOptions());
  ASSERT_EQ(A.Reports.size(), B.Reports.size());
  for (size_t I = 0; I < A.Reports.size(); ++I) {
    EXPECT_EQ(A.Reports[I].Failed, B.Reports[I].Failed);
    EXPECT_EQ(A.Reports[I].Counts.TruePredicates,
              B.Reports[I].Counts.TruePredicates);
    EXPECT_EQ(A.Reports[I].BugMask, B.Reports[I].BugMask);
  }
}

TEST(CampaignTest, DifferentSeedsDiffer) {
  CampaignOptions OtherSeed = smallOptions();
  OtherSeed.Seed = 778;
  CampaignResult A = runCampaign(exifSubject(), smallOptions());
  CampaignResult B = runCampaign(exifSubject(), OtherSeed);
  size_t Differences = 0;
  for (size_t I = 0; I < A.Reports.size(); ++I)
    Differences += A.Reports[I].Counts.TruePredicates !=
                           B.Reports[I].Counts.TruePredicates
                       ? 1
                       : 0;
  EXPECT_GT(Differences, A.Reports.size() / 2);
}

TEST(CampaignTest, FailedLabelMatchesTrapOrExit) {
  CampaignResult Result = runCampaign(bcSubject(), smallOptions());
  for (const FeedbackReport &Report : Result.Reports.reports()) {
    if (Report.Trap != TrapKind::None || Report.ExitCode != 0) {
      EXPECT_TRUE(Report.Failed);
    }
  }
}

TEST(CampaignTest, CrashedRunsHaveStacks) {
  CampaignResult Result = runCampaign(rhythmboxSubject(), smallOptions());
  for (const FeedbackReport &Report : Result.Reports.reports())
    if (Report.Trap != TrapKind::None) {
      EXPECT_FALSE(Report.StackSignature.empty());
    }
}

TEST(CampaignTest, AdaptivePlanHasMixedRates) {
  CampaignResult Result = runCampaign(mossSubject(), smallOptions(100));
  size_t FullRate = 0, Reduced = 0;
  for (uint32_t Site = 0; Site < Result.Plan.numSites(); ++Site) {
    double Rate = Result.Plan.rate(Site);
    EXPECT_GE(Rate, 0.01 - 1e-12);
    EXPECT_LE(Rate, 1.0);
    if (Rate >= 1.0)
      ++FullRate;
    else
      ++Reduced;
  }
  // Rarely executed sites get rate 1.0; hot loop sites get reduced rates.
  EXPECT_GT(FullRate, 0u);
  EXPECT_GT(Reduced, 0u);
}

TEST(CampaignTest, UniformModeUsesRequestedRate) {
  CampaignOptions Options = smallOptions(50);
  Options.Mode = SamplingMode::Uniform;
  Options.UniformRate = 0.02;
  CampaignResult Result = runCampaign(ccryptSubject(), Options);
  for (uint32_t Site = 0; Site < Result.Plan.numSites(); ++Site)
    EXPECT_DOUBLE_EQ(Result.Plan.rate(Site), 0.02);
}

TEST(CampaignTest, NoSamplingObservesEverySiteOnEveryReach) {
  CampaignOptions Options = smallOptions(50);
  Options.Mode = SamplingMode::None;
  CampaignResult Result = runCampaign(ccryptSubject(), Options);
  for (uint32_t Site = 0; Site < Result.Plan.numSites(); ++Site)
    EXPECT_DOUBLE_EQ(Result.Plan.rate(Site), 1.0);
}

TEST(CampaignTest, BugStatsAreConsistent) {
  CampaignResult Result = runCampaign(mossSubject(), smallOptions());
  ASSERT_EQ(Result.Bugs.size(), mossSubject().Bugs.size());
  for (const auto &Stats : Result.Bugs) {
    EXPECT_LE(Stats.TriggeredAndFailed, Stats.Triggered);
    EXPECT_LE(Stats.Triggered, Result.Reports.size());
  }
}

TEST(CampaignTest, BugMasksMatchBugStats) {
  CampaignResult Result = runCampaign(exifSubject(), smallOptions());
  for (const auto &Stats : Result.Bugs) {
    size_t FromMasks = 0;
    for (const FeedbackReport &Report : Result.Reports.reports())
      FromMasks += Report.hasBug(Stats.BugId) ? 1 : 0;
    EXPECT_EQ(FromMasks, Stats.Triggered);
  }
}

TEST(CampaignTest, LinesOfCodeReported) {
  CampaignResult Result = runCampaign(bcSubject(), smallOptions(20));
  EXPECT_GT(Result.LinesOfCode, 100);
}

TEST(CampaignTest, ThreadsZeroMeansHardwareThreadsAndStillRuns) {
  // Threads = 0 is "one per hardware thread"; since
  // std::thread::hardware_concurrency() may itself report 0, the resolved
  // worker count must be clamped to at least one or the campaign would
  // silently execute nothing. Identical reports double as the
  // bit-identity check for the auto-detected thread count.
  CampaignOptions Options = smallOptions(60);
  Options.Threads = 1;
  CampaignResult Serial = runCampaign(ccryptSubject(), Options);
  Options.Threads = 0;
  CampaignResult Auto = runCampaign(ccryptSubject(), Options);
  ASSERT_EQ(Auto.Reports.size(), 60u);
  for (size_t I = 0; I < Serial.Reports.size(); ++I) {
    EXPECT_EQ(Serial.Reports[I].Failed, Auto.Reports[I].Failed) << I;
    EXPECT_EQ(Serial.Reports[I].Counts.TruePredicates,
              Auto.Reports[I].Counts.TruePredicates)
        << I;
  }
}

TEST(CampaignTest, ParallelCampaignIsBitIdenticalToSerial) {
  CampaignOptions Options = smallOptions(160);
  CampaignResult Serial = runCampaign(mossSubject(), Options);
  Options.Threads = 4;
  CampaignResult Parallel = runCampaign(mossSubject(), Options);
  ASSERT_EQ(Serial.Reports.size(), Parallel.Reports.size());
  for (size_t I = 0; I < Serial.Reports.size(); ++I) {
    EXPECT_EQ(Serial.Reports[I].Failed, Parallel.Reports[I].Failed) << I;
    EXPECT_EQ(Serial.Reports[I].BugMask, Parallel.Reports[I].BugMask) << I;
    EXPECT_EQ(Serial.Reports[I].StackSignature,
              Parallel.Reports[I].StackSignature)
        << I;
    EXPECT_EQ(Serial.Reports[I].Counts.TruePredicates,
              Parallel.Reports[I].Counts.TruePredicates)
        << I;
    EXPECT_EQ(Serial.Reports[I].Counts.SiteObservations,
              Parallel.Reports[I].Counts.SiteObservations)
        << I;
  }
  ASSERT_EQ(Serial.Bugs.size(), Parallel.Bugs.size());
  for (size_t I = 0; I < Serial.Bugs.size(); ++I)
    EXPECT_EQ(Serial.Bugs[I].Triggered, Parallel.Bugs[I].Triggered);
}

TEST(CampaignTest, EnginesProduceIdenticalCampaigns) {
  CampaignOptions Options = smallOptions(120);
  CampaignResult ViaInterp = runCampaign(exifSubject(), Options);
  Options.Exec = Engine::VM;
  CampaignResult ViaVM = runCampaign(exifSubject(), Options);
  ASSERT_EQ(ViaInterp.Reports.size(), ViaVM.Reports.size());
  for (size_t I = 0; I < ViaInterp.Reports.size(); ++I) {
    EXPECT_EQ(ViaInterp.Reports[I].Failed, ViaVM.Reports[I].Failed) << I;
    EXPECT_EQ(ViaInterp.Reports[I].Trap, ViaVM.Reports[I].Trap) << I;
    EXPECT_EQ(ViaInterp.Reports[I].BugMask, ViaVM.Reports[I].BugMask) << I;
    EXPECT_EQ(ViaInterp.Reports[I].Counts.TruePredicates,
              ViaVM.Reports[I].Counts.TruePredicates)
        << I;
    EXPECT_EQ(ViaInterp.Reports[I].Counts.SiteObservations,
              ViaVM.Reports[I].Counts.SiteObservations)
        << I;
  }
}

TEST(CampaignTest, CompileSubjectSourceWorksForAllSubjects) {
  for (const Subject *Subj : allSubjects()) {
    EXPECT_NE(compileSubjectSource(Subj->Source, Subj->Name), nullptr);
    EXPECT_NE(compileSubjectSource(Subj->GoldenSource, Subj->Name),
              nullptr);
  }
}

TEST(CampaignTest, ProgressCallbackCoversTheWholeRunLoop) {
  CampaignOptions Options = smallOptions(120);
  Options.Threads = 4;
  std::mutex Mu;
  size_t Calls = 0, MaxDone = 0, Total = 0;
  Options.Progress = [&](size_t Done, size_t T) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Calls;
    MaxDone = std::max(MaxDone, Done);
    Total = T;
  };
  runCampaign(ccryptSubject(), Options);
  EXPECT_GT(Calls, 0u);
  EXPECT_EQ(Total, 120u);
  // The completion call always fires, whatever the reporting stride.
  EXPECT_EQ(MaxDone, 120u);
}

TEST(CampaignTest, TelemetryDoesNotPerturbCampaignResults) {
  // Reach-stat tracking wraps every sampling decision; it must never
  // change one. A telemetry-on campaign must stay bit-identical to the
  // telemetry-off campaign with the same seed.
  CampaignOptions Options = smallOptions(100);
  ASSERT_FALSE(Telemetry::enabled());
  CampaignResult Off = runCampaign(mossSubject(), Options);
  Telemetry::setEnabled(true);
  CampaignResult On = runCampaign(mossSubject(), Options);
  Telemetry::setEnabled(false);
  ASSERT_EQ(Off.Reports.size(), On.Reports.size());
  for (size_t I = 0; I < Off.Reports.size(); ++I) {
    EXPECT_EQ(Off.Reports[I].Failed, On.Reports[I].Failed) << I;
    EXPECT_EQ(Off.Reports[I].Counts.TruePredicates,
              On.Reports[I].Counts.TruePredicates)
        << I;
    EXPECT_EQ(Off.Reports[I].Counts.SiteObservations,
              On.Reports[I].Counts.SiteObservations)
        << I;
  }
}

TEST(CampaignTest, SummaryGaugesDescribeTheMostRecentCampaign) {
  CampaignOptions Options = smallOptions(90);
  CampaignResult Result = runCampaign(exifSubject(), Options);
  const MetricsRegistry &Metrics = Telemetry::metrics();
  const Gauge *Runs = Metrics.findGauge("campaign.runs");
  const Gauge *Failing = Metrics.findGauge("campaign.failing");
  const Label *Mode = Metrics.findLabel("campaign.sampling_mode");
  ASSERT_NE(Runs, nullptr);
  ASSERT_NE(Failing, nullptr);
  ASSERT_NE(Mode, nullptr);
  EXPECT_EQ(Runs->value(), 90.0);
  EXPECT_EQ(Failing->value(), static_cast<double>(Result.numFailing()));
  EXPECT_EQ(Mode->value(), Result.Plan.name());
}

TEST(CampaignTest, TelemetryRecordsRealizedSamplingRates) {
  CampaignOptions Options = smallOptions(150);
  Telemetry::setEnabled(true);
  runCampaign(mossSubject(), Options);
  Telemetry::setEnabled(false);
  const MetricsRegistry &Metrics = Telemetry::metrics();
  // moss has sites of all three schemes; with adaptive sampling over 150
  // runs the realized per-scheme rate must track the reach-weighted
  // planned rate closely (fair Bernoulli coin).
  for (const char *SchemeName : {"branches", "returns", "scalar_pairs"}) {
    const Gauge *Planned = Metrics.findGauge(
        std::string("campaign.sampling.") + SchemeName + ".planned_rate");
    const Gauge *Realized = Metrics.findGauge(
        std::string("campaign.sampling.") + SchemeName + ".realized_rate");
    ASSERT_NE(Planned, nullptr) << SchemeName;
    ASSERT_NE(Realized, nullptr) << SchemeName;
    EXPECT_GT(Realized->value(), 0.0) << SchemeName;
    EXPECT_LE(Realized->value(), 1.0) << SchemeName;
    EXPECT_NEAR(Realized->value(), Planned->value(),
                0.05 * std::max(Planned->value(), 0.01))
        << SchemeName;
  }
}

TEST(CampaignTest, RunLoopAgreesAcrossModesAndThreadCounts) {
  // The one run loop over {in memory, spilled} x {1, 3 workers}: every cell
  // must produce the same reports (as the bytes of their corpus), ground
  // truth, failure count and sampling-rate gauges. 130 runs in shards of
  // 16 leave a short last shard and an uneven split over three workers.
  const std::string Dir = freshTestDir();
  const TelemetryOn Scope;
  CampaignOptions Options = smallOptions(130);
  Options.SpillShardReports = 16;
  const Subject &Subj = exifSubject(); // Output-oracle labels included.
  const char *Gauges[] = {"branches", "returns", "scalar_pairs"};
  auto gauge = [](const char *Scheme, const char *Which) {
    const Gauge *G = Telemetry::metrics().findGauge(
        std::string("campaign.sampling.") + Scheme + "." + Which + "_rate");
    EXPECT_NE(G, nullptr) << Scheme << " " << Which;
    return G ? G->value() : -1.0;
  };

  CampaignResult Reference = runCampaign(Subj, Options);
  ASSERT_TRUE(Reference.Error.empty()) << Reference.Error;
  ASSERT_EQ(Reference.Reports.size(), 130u);
  ASSERT_GT(Reference.numFailing(), 0u);
  std::string Error;
  ASSERT_TRUE(writeCorpus(Reference.Reports, Dir + "/reference",
                          Options.SpillShardReports, Error))
      << Error;
  const std::string ReferenceShards = corpusBytes(Dir + "/reference");
  std::vector<double> ReferenceGauges;
  for (const char *Scheme : Gauges)
    for (const char *Which : {"planned", "realized"})
      ReferenceGauges.push_back(gauge(Scheme, Which));

  for (bool Spill : {false, true})
    for (size_t Threads : {size_t(1), size_t(3)}) {
      std::string What = std::string(Spill ? "spilled" : "in memory") +
                         ", threads=" + std::to_string(Threads);
      Options.Threads = Threads;
      Options.SpillDir =
          Spill ? Dir + "/spill-t" + std::to_string(Threads) : "";
      CampaignResult Cell = runCampaign(Subj, Options);
      ASSERT_TRUE(Cell.Error.empty()) << What << ": " << Cell.Error;
      if (Spill) {
        EXPECT_EQ(Cell.Reports.size(), 0u) << What;
        EXPECT_EQ(Cell.SpilledReports, 130u) << What;
        EXPECT_EQ(corpusBytes(Options.SpillDir), ReferenceShards) << What;
      } else {
        std::string CellDir = Dir + "/memory-t" + std::to_string(Threads);
        ASSERT_TRUE(writeCorpus(Cell.Reports, CellDir,
                                Options.SpillShardReports, Error))
            << What << ": " << Error;
        EXPECT_EQ(corpusBytes(CellDir), ReferenceShards) << What;
      }
      EXPECT_EQ(Cell.numFailing(), Reference.numFailing()) << What;
      ASSERT_EQ(Cell.Bugs.size(), Reference.Bugs.size()) << What;
      for (size_t B = 0; B < Cell.Bugs.size(); ++B) {
        EXPECT_EQ(Cell.Bugs[B].BugId, Reference.Bugs[B].BugId) << What;
        EXPECT_EQ(Cell.Bugs[B].Triggered, Reference.Bugs[B].Triggered)
            << What;
        EXPECT_EQ(Cell.Bugs[B].TriggeredAndFailed,
                  Reference.Bugs[B].TriggeredAndFailed)
            << What;
      }
      size_t G = 0;
      for (const char *Scheme : Gauges) {
        // Realized rates are ratios of exact counts. Planned rates divide a
        // floating-point sum of per-reach rates, which workers add up in
        // their own order, so they may differ in the last bits.
        double Planned = ReferenceGauges[G++];
        EXPECT_NEAR(gauge(Scheme, "planned"), Planned, 1e-12 * Planned)
            << What << ": " << Scheme;
        EXPECT_EQ(gauge(Scheme, "realized"), ReferenceGauges[G++])
            << What << ": " << Scheme;
      }
    }
}

TEST(CampaignTest, SpillReplacesTheCorpusAlreadyInItsDirectory) {
  // A second, smaller campaign spilled into the same directory must leave
  // only its own shards: none of the first campaign's may be read back.
  // A file that is not a shard stays.
  const std::string Dir = freshTestDir();
  CampaignOptions Options = smallOptions(60);
  Options.SpillShardReports = 8;
  Options.SpillDir = Dir + "/corpus";
  ASSERT_TRUE(runCampaign(ccryptSubject(), Options).Error.empty());
  ASSERT_EQ(listCorpusShards(Options.SpillDir).size(), 8u);
  std::ofstream(Options.SpillDir + "/notes.txt") << "kept\n";

  Options.NumRuns = 20;
  Options.Seed = 7;
  CampaignResult Second = runCampaign(ccryptSubject(), Options);
  ASSERT_TRUE(Second.Error.empty()) << Second.Error;
  EXPECT_EQ(listCorpusShards(Options.SpillDir).size(), 3u);
  RunProfiles Runs;
  std::string Error;
  ASSERT_TRUE(ingestCorpus(Options.SpillDir, Runs, 1, Error)) << Error;
  EXPECT_EQ(Runs.size(), 20u);
  EXPECT_EQ(Runs.numFailing(), Second.numFailing());
  EXPECT_TRUE(std::filesystem::exists(Options.SpillDir + "/notes.txt"));

  Options.SpillDir = Dir + "/expected";
  runCampaign(ccryptSubject(), Options);
  EXPECT_EQ(corpusBytes(Dir + "/corpus"), corpusBytes(Options.SpillDir));
}

TEST(CampaignTest, SpillErrorWhenTheDirectoryCannotBeCreated) {
  // A spill directory under a regular file can never be created. The
  // campaign must say so instead of aborting, at any thread count.
  const std::string Dir = freshTestDir();
  const std::string File = Dir + "/regular-file";
  std::ofstream(File) << "not a directory\n";
  CampaignOptions Options = smallOptions(40);
  Options.SpillDir = File + "/corpus";
  for (size_t Threads : {size_t(1), size_t(2)}) {
    Options.Threads = Threads;
    CampaignResult Result = runCampaign(ccryptSubject(), Options);
    EXPECT_NE(Result.Error.find("'" + Options.SpillDir + "'"),
              std::string::npos)
        << Threads << " threads: " << Result.Error;
    EXPECT_NE(Result.Error.find(std::strerror(ENOTDIR)), std::string::npos)
        << Threads << " threads: " << Result.Error;
  }
}

TEST(CampaignTest, SpillErrorWhenAShardPathIsADirectory) {
  // Shard 1's file name is taken by a directory, so its writer cannot
  // open. The error names the shard and the cause, and the failure stops
  // the workers: one worker never reaches the shards after it.
  const std::string Dir = freshTestDir();
  CampaignOptions Options = smallOptions(40);
  Options.SpillShardReports = 8;
  for (size_t Threads : {size_t(1), size_t(2)}) {
    Options.Threads = Threads;
    Options.SpillDir = Dir + "/corpus-t" + std::to_string(Threads);
    std::filesystem::create_directories(Options.SpillDir + "/" +
                                        corpusShardName(1));
    CampaignResult Result = runCampaign(ccryptSubject(), Options);
    std::string What = std::to_string(Threads) + " threads: " + Result.Error;
    EXPECT_NE(Result.Error.find(corpusShardName(1)), std::string::npos)
        << What;
    EXPECT_NE(Result.Error.find(std::strerror(EISDIR)), std::string::npos)
        << What;
    if (Threads == 1) {
      EXPECT_FALSE(std::filesystem::exists(Options.SpillDir + "/" +
                                           corpusShardName(2)))
          << What;
    }
  }
}
