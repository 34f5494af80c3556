//===- tests/integration/CorpusStreamTest.cpp - Streamed-corpus parity ----===//
//
// The SBI-CORPUS v2 streaming path must be a pure representation change:
//
//   * A spill-mode campaign must write the exact corpus bytes that
//     writeCorpus() produces from the equivalent in-memory campaign, for
//     any worker thread count (shard K holds runs [K*S, (K+1)*S) in run
//     order, independent of which thread produced them).
//
//   * Analysis over ingested RunProfiles must be bit-identical — every
//     selection, every score, the rendered audit trail and ranked tables —
//     to analysis over the materialized ReportSet, across all three
//     Section 5 discard policies and both aggregation engines.
//
// Together these close the loop: campaign -> shards on disk -> streamed
// ingestion -> analysis gives the same answer as the all-in-memory
// pipeline, which is what lets a corpus be `sbi`'s only report format:
// `sbi analyze --in=DIR` prints what the in-memory `sbi analyze` prints.
//
//===----------------------------------------------------------------------===//

#include "core/Analysis.h"
#include "feedback/Corpus.h"
#include "harness/Campaign.h"
#include "harness/Tables.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace sbi;

namespace {

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "sbi-corpus-stream-" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

CampaignOptions baseOptions() {
  CampaignOptions Options;
  Options.NumRuns = 300;
  Options.TrainingRuns = 60;
  Options.Seed = 20050612;
  return Options;
}

void expectSameCorpusBytes(const std::string &DirA, const std::string &DirB,
                           const std::string &What) {
  std::vector<std::string> A = listCorpusShards(DirA);
  std::vector<std::string> B = listCorpusShards(DirB);
  ASSERT_EQ(A.size(), B.size()) << What;
  ASSERT_FALSE(A.empty()) << What;
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(std::filesystem::path(A[I]).filename(),
              std::filesystem::path(B[I]).filename())
        << What;
    EXPECT_EQ(readFileBytes(A[I]), readFileBytes(B[I]))
        << What << ": shard " << I << " bytes differ";
  }
}

TEST(CorpusStreamTest, SpillModeWritesTheInMemoryCorpusForAnyThreadCount) {
  const Subject &Subj = ccryptSubject();

  // Reference: in-memory campaign, then convert the ReportSet to a corpus.
  CampaignResult InMemory = runCampaign(Subj, baseOptions());
  std::string RefDir = freshDir("reference");
  std::string Error;
  ASSERT_TRUE(
      writeCorpus(InMemory.Reports, RefDir, /*ReportsPerShard=*/64, Error))
      << Error;

  for (size_t Threads : {size_t(1), size_t(4)}) {
    CampaignOptions Options = baseOptions();
    Options.Threads = Threads;
    Options.SpillDir = freshDir("spill-t" + std::to_string(Threads));
    Options.SpillShardReports = 64;
    CampaignResult Spilled = runCampaign(Subj, Options);

    std::string What = "threads=" + std::to_string(Threads);
    // Reports never materialize in spill mode, but the accounting the
    // tables and summaries need must match the in-memory campaign.
    EXPECT_EQ(Spilled.Reports.size(), 0u) << What;
    EXPECT_EQ(Spilled.SpilledReports, InMemory.Reports.size()) << What;
    EXPECT_EQ(Spilled.SpilledShards, listCorpusShards(RefDir).size()) << What;
    EXPECT_EQ(Spilled.numFailing(), InMemory.Reports.numFailing()) << What;
    EXPECT_EQ(Spilled.numSuccessful(), InMemory.Reports.numSuccessful())
        << What;
    ASSERT_EQ(Spilled.Bugs.size(), InMemory.Bugs.size()) << What;
    for (size_t I = 0; I < Spilled.Bugs.size(); ++I) {
      EXPECT_EQ(Spilled.Bugs[I].BugId, InMemory.Bugs[I].BugId) << What;
      EXPECT_EQ(Spilled.Bugs[I].Triggered, InMemory.Bugs[I].Triggered)
          << What;
      EXPECT_EQ(Spilled.Bugs[I].TriggeredAndFailed,
                InMemory.Bugs[I].TriggeredAndFailed)
          << What;
    }
    expectSameCorpusBytes(RefDir, Options.SpillDir, What);
  }
}

TEST(CorpusStreamTest, StreamedAnalysisIsBitIdenticalAcrossPoliciesAndEngines) {
  CampaignResult Result = runCampaign(ccryptSubject(), baseOptions());
  std::string Dir = freshDir("analyze");
  std::string Error;
  ASSERT_TRUE(writeCorpus(Result.Reports, Dir, /*ReportsPerShard=*/50, Error))
      << Error;

  RunProfiles Streamed;
  ASSERT_TRUE(ingestCorpus(Dir, Streamed, /*Threads=*/3, Error)) << Error;
  ASSERT_EQ(Streamed.size(), Result.Reports.size());

  std::vector<int> BugIds;
  for (const CampaignResult::BugStats &Bug : Result.Bugs)
    BugIds.push_back(Bug.BugId);

  for (DiscardPolicy Policy :
       {DiscardPolicy::DiscardAllRuns, DiscardPolicy::DiscardFailingRuns,
        DiscardPolicy::RelabelFailingRuns}) {
    for (AnalysisEngine Engine :
         {AnalysisEngine::Rescan, AnalysisEngine::Incremental,
          AnalysisEngine::Bitset}) {
      AnalysisOptions Options;
      Options.Policy = Policy;
      Options.Engine = Engine;

      AnalysisResult FromSet =
          CauseIsolator(Result.Sites, Result.Reports, Options).run();
      AnalysisResult FromProfiles =
          CauseIsolator(Result.Sites, Streamed, Options).run();

      std::string What = std::string(discardPolicyName(Policy)) + "/" +
                         analysisEngineName(Engine);
      EXPECT_TRUE(bitIdentical(FromSet, FromProfiles)) << What;
      EXPECT_FALSE(FromSet.Selected.empty())
          << What << ": parity check would be trivial";
      EXPECT_EQ(renderAuditTrail(Result.Sites, FromSet),
                renderAuditTrail(Result.Sites, FromProfiles))
          << What;
      // The full Table 3-style rendering, bug columns included, must not
      // care which store backs it.
      EXPECT_EQ(renderSelectedList(Result.Sites, Result.Reports,
                                   FromSet.Selected, BugIds),
                renderSelectedList(Result.Sites, Streamed,
                                   FromProfiles.Selected, BugIds))
          << What;
    }
  }
}

TEST(CorpusStreamTest, SpilledCorpusAnalyzesLikeTheInMemoryCampaign) {
  // End to end through the spill path itself (not writeCorpus): campaign
  // spills shards, ingestion streams them back, analysis agrees with the
  // in-memory campaign's.
  const Subject &Subj = ccryptSubject();
  CampaignResult InMemory = runCampaign(Subj, baseOptions());

  CampaignOptions Options = baseOptions();
  Options.Threads = 2;
  Options.SpillDir = freshDir("spill-analyze");
  Options.SpillShardReports = 96;
  CampaignResult Spilled = runCampaign(Subj, Options);
  ASSERT_GT(Spilled.SpilledShards, 1u);

  RunProfiles Streamed;
  std::string Error;
  ASSERT_TRUE(ingestCorpus(Options.SpillDir, Streamed, /*Threads=*/2, Error))
      << Error;

  AnalysisResult FromSet =
      CauseIsolator(InMemory.Sites, InMemory.Reports).run();
  AnalysisResult FromCorpus = CauseIsolator(Spilled.Sites, Streamed).run();
  EXPECT_TRUE(bitIdentical(FromSet, FromCorpus));
  EXPECT_FALSE(FromSet.Selected.empty());
  EXPECT_EQ(renderAuditTrail(InMemory.Sites, FromSet),
            renderAuditTrail(Spilled.Sites, FromCorpus));
}

} // namespace
