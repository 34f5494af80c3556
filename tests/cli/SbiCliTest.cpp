//===- tests/cli/SbiCliTest.cpp - sbi exit statuses -----------------------===//
//
// Runs the built `sbi` binary, and a table bench for the flags the benches
// share, on inputs a user can get wrong and checks the exit status and
// what the program says: 2 for a malformed flag or environment variable, 1
// for a failure while running, and never a crash. Also holds the contract
// that lets a corpus be sbi's one report format: a campaign read back from
// its corpus prints what the campaign prints analyzed in memory.
//
//===----------------------------------------------------------------------===//

#include "feedback/Corpus.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct CliResult {
  int Status = -1; ///< Exit status, or 128 + signal for a killed process.
  std::string Output; ///< stdout, and stderr unless it was dropped.
};

/// Runs the shell command \p Command, capturing stderr with stdout or,
/// without \p WithStderr, dropping it.
CliResult runCommand(const std::string &Command, bool WithStderr = true) {
  CliResult Result;
  std::FILE *Pipe =
      popen((Command + (WithStderr ? " 2>&1" : " 2>/dev/null")).c_str(), "r");
  if (!Pipe)
    return Result;
  char Buffer[4096];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), Pipe)) > 0)
    Result.Output.append(Buffer, Read);
  int Raw = pclose(Pipe);
  Result.Status = WIFEXITED(Raw) ? WEXITSTATUS(Raw) : 128 + WTERMSIG(Raw);
  return Result;
}

/// Copies the corpus \p In to \p Out with its site count cut to \p NumSites
/// and every site entry at or above it dropped: a corpus that is still
/// well-formed, but no longer matches its subject.
bool cutSites(const std::string &In, const std::string &Out,
              uint32_t NumSites) {
  std::string Error;
  std::vector<std::string> Shards = sbi::listCorpusShards(In);
  if (Shards.empty() || !sbi::clearCorpusDir(Out, Error))
    return false;
  for (uint32_t Id = 0; Id < Shards.size(); ++Id) {
    sbi::CorpusReader Reader;
    sbi::CorpusWriter Writer;
    if (!Reader.open(Shards[Id], Error) ||
        !Writer.open(Out + "/" + sbi::corpusShardName(Id), Id, NumSites,
                     Reader.header().NumPredicates, Error))
      return false;
    sbi::FeedbackReport Report;
    while (Reader.next(Report, Error)) {
      std::erase_if(Report.Counts.SiteObservations,
                    [&](const auto &Pair) { return Pair.first >= NumSites; });
      if (!Writer.append(Report, Error))
        return false;
    }
    if (!Error.empty() || !Writer.finalize(Error))
      return false;
  }
  return true;
}

std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

} // namespace

TEST(SbiCliTest, ExitStatusTable) {
  const std::string Dir = freshDir("sbi-cli-test");
  const std::string File = Dir + "/regular-file";
  std::ofstream(File) << "not a directory\n";
  const std::string Sbi = std::string(SBI_PATH) + " ";
  const std::string Table = std::string(TABLE4_CCRYPT_PATH) + " ";
  const std::string Run = Sbi + "run --subject=ccrypt --runs=20 ";
  const std::string Out = " --out=" + Dir + "/ccrypt.corpus";
  const std::string Spill =
      Run + "--sampling=none --out=" + File + "/corpus --threads=";

  // ccrypt has 253 sites; a corpus cut to 100 of them must be refused,
  // not analyzed against predicates naming sites past the end of their
  // observation counts.
  const std::string Fresh = Dir + "/fresh.corpus";
  const std::string Cut = Dir + "/cut.corpus";
  CliResult Made = runCommand(Run + "--out=" + Fresh);
  ASSERT_EQ(Made.Status, 0) << Made.Output;
  ASSERT_TRUE(cutSites(Fresh, Cut, 100));
  const std::string Analyze = Sbi + "analyze --subject=ccrypt ";
  const std::string LogReg = Sbi + "logreg --subject=ccrypt ";
  const std::string Report =
      Sbi + "report --subject=ccrypt --out=" + Dir + "/ccrypt.report.html ";
  const std::string Corpus = Sbi + "corpus ";

  // Corpora the replace, merge and refusal rows share.
  const std::string Replaced = Dir + "/replaced.corpus";
  const std::string Other = Dir + "/other.corpus";
  const std::string Merged = Dir + "/merged.corpus";
  const std::string Exif = Dir + "/exif.corpus";
  const std::string Input = Dir + "/input.corpus";
  const std::string Ccrypt = Sbi + "run --subject=ccrypt --shard-reports=100 ";

  struct Case {
    std::string Command;
    int Status;
    std::vector<std::string> Says;
  };
  const Case Cases[] = {
      {Run + "--sampling=uniform:abc" + Out, 2, {"'abc'", "--sampling"}},
      {Run + "--sampling=uniform:5" + Out, 2, {"'5'", "--sampling"}},
      {Run + "--sampling=uniform:-1" + Out, 2, {"'-1'", "--sampling"}},
      {Run + "--sampling=uniform:nan" + Out, 2, {"'nan'", "--sampling"}},
      {Run + "--sampling=uniform:inf" + Out, 2, {"'inf'", "--sampling"}},
      {Run + "--sampling=uniform:0" + Out, 2, {"'0'", "--sampling"}},
      {Run + "--sampling=uniform:0.5" + Out, 0, {"wrote 20 reports"}},
      {Spill + "1", 1, {File + "/corpus", std::strerror(ENOTDIR)}},
      {Spill + "2", 1, {File + "/corpus", std::strerror(ENOTDIR)}},
      {Table + "--threads=-1", 2, {"'-1'", "--threads"}},
      {Table + "--runs=abc", 2, {"'abc'", "--runs"}},
      {Table + "--seed=12x", 2, {"'12x'", "--seed"}},
      {"SBI_BENCH_THREADS=-1 " + Table, 2, {"'-1'", "SBI_BENCH_THREADS"}},
      {"SBI_BENCH_RUNS=abc " + Table, 2, {"'abc'", "SBI_BENCH_RUNS"}},
      {"SBI_BENCH_SEED=12x " + Table, 2, {"'12x'", "SBI_BENCH_SEED"}},
      {Table + "--runz=40", 2, {"unknown option '--runz=40'"}},
      {Table + "--runs=40 --seed=12 --threads=1", 0, {"runs: 40, seed: 12"}},
      {Analyze + "--in=" + Cut, 1, {"'ccrypt'", "100 vs 253 sites"}},
      {LogReg + "--in=" + Cut, 1, {"'ccrypt'", "100 vs 253 sites"}},
      {Report + "--in=" + Cut, 1, {"'ccrypt'", "100 vs 253 sites"}},
      // report takes analyze's policy; a bad one is refused before any
      // campaign runs.
      {Report + "--in=" + Fresh + " --policy=bogus", 2,
       {"'bogus'", "--policy"}},
      {Report + "--in=" + Fresh + " --policy=relabel", 0,
       {"wrote", "ccrypt.report.html"}},
      // There is one report format, so --corpus and convert are unknown.
      {Analyze + "--corpus=" + Fresh, 2, {"unknown option '--corpus="}},
      {Run + "--corpus=" + Dir + "/spill", 2, {"unknown option '--corpus="}},
      {Corpus + "convert --in=" + Fresh + " --out=" + Dir + "/converted", 2,
       {"unknown corpus verb 'convert'"}},
      // The prune is checked against the counts of a fully instrumented
      // campaign, the strong direction.
      {Analyze + "--in=" + Fresh + " --static-prune", 0,
       {"prune verification ok: 20 runs"}},
      // Writing a corpus replaces the one already in its directory.
      {Ccrypt + "--runs=300 --out=" + Replaced, 0,
       {"wrote 300 reports", "into 3 shards"}},
      {Ccrypt + "--runs=100 --seed=7 --out=" + Replaced, 0,
       {"wrote 100 reports", "into 1 shards"}},
      {Corpus + "info " + Replaced, 0, {"total: 1 shards, 100 reports"}},
      {Analyze + "--in=" + Replaced, 0, {"100 reports ("}},
      // Merging concatenates; an exact multiple of --shard-reports leaves
      // no trailing empty shard.
      {Ccrypt + "--runs=200 --out=" + Other, 0, {"wrote 200 reports"}},
      {Corpus + "merge --out=" + Merged + " " + Replaced + " " + Other +
           " --shard-reports=50",
       0, {"merged 300 reports from 2 corpora into 6 shards"}},
      {Corpus + "info " + Merged, 0, {"total: 6 shards, 300 reports"}},
      {Corpus + "validate " + Merged, 0, {"ok: 6 shards, 300 reports"}},
      {Sbi + "run --subject=exif --runs=20 --out=" + Exif, 0,
       {"wrote 20 reports"}},
      {Corpus + "merge --out=" + Dir + "/mixed.corpus " + Replaced + " " +
           Exif,
       1, {"dimension mismatch"}},
      // A merge whose --out names one of its inputs, in any spelling,
      // would replace that input before reading it; it must be refused
      // and leave the input whole.
      {Ccrypt + "--runs=300 --out=" + Input, 0, {"wrote 300 reports"}},
      {Corpus + "merge --out=" + Input + "/. " + Input + " " + Other +
           " --shard-reports=50",
       2, {Input + "/.", "is also an input"}},
      {Corpus + "validate " + Input, 0, {"ok: 3 shards, 300 reports"}},
  };
  for (const Case &C : Cases) {
    CliResult Result = runCommand(C.Command);
    EXPECT_EQ(Result.Status, C.Status) << C.Command << "\n" << Result.Output;
    for (const std::string &Fragment : C.Says)
      EXPECT_NE(Result.Output.find(Fragment), std::string::npos)
          << C.Command << " never says \"" << Fragment << "\":\n"
          << Result.Output;
  }
}

TEST(SbiCliTest, ACorpusReadsLikeTheInMemoryCampaign) {
  // The CLI contract behind one report format: a campaign written with
  // `run --out=DIR` and read back with --in=DIR prints what the same
  // campaign prints analyzed in memory, and its HTML report differs only
  // by the campaign summary box a process that ran no campaign cannot
  // show.
  const std::string Dir = freshDir("sbi-cli-parity");
  const std::string Sbi = std::string(SBI_PATH) + " ";
  const std::string Campaign = " --subject=exif --runs=300 --seed=11 ";
  const std::string Corpus = Dir + "/exif.corpus";
  CliResult Made = runCommand(Sbi + "run" + Campaign + "--out=" + Corpus);
  ASSERT_EQ(Made.Status, 0) << Made.Output;

  struct Verb {
    const char *Command;
    const char *Says;
  };
  for (const Verb &V : {Verb{"analyze --bugs --affinity --trace",
                             "300 reports ("},
                        Verb{"logreg", "trained: "}}) {
    CliResult InMemory = runCommand(Sbi + V.Command + Campaign, false);
    CliResult Read =
        runCommand(Sbi + V.Command + Campaign + "--in=" + Corpus, false);
    EXPECT_EQ(InMemory.Status, 0) << V.Command;
    EXPECT_EQ(Read.Status, 0) << V.Command;
    EXPECT_NE(InMemory.Output.find(V.Says), std::string::npos)
        << V.Command << ":\n" << InMemory.Output;
    EXPECT_EQ(InMemory.Output, Read.Output) << V.Command;
  }

  const std::string InMemoryHtml = Dir + "/in-memory.html";
  const std::string ReadHtml = Dir + "/read.html";
  ASSERT_EQ(runCommand(Sbi + "report --bugs" + Campaign + "--out=" +
                       InMemoryHtml)
                .Status,
            0);
  ASSERT_EQ(runCommand(Sbi + "report --bugs" + Campaign + "--in=" + Corpus +
                       " --out=" + ReadHtml)
                .Status,
            0);
  std::string InMemory = readFile(InMemoryHtml);
  const std::string Read = readFile(ReadHtml);
  size_t Box = InMemory.find("<div class=\"summary\">");
  ASSERT_NE(Box, std::string::npos);
  InMemory.erase(Box, InMemory.find("</div>\n", Box) + 7 - Box);
  EXPECT_EQ(InMemory, Read);
  // The ground truth is tallied from the runs themselves, so a report read
  // from a corpus lists every bug with its counts.
  size_t Truth = Read.find("<h2>Ground truth");
  ASSERT_NE(Truth, std::string::npos);
  for (const char *Bug : {"<tr><td>#1</td>", "<tr><td>#2</td>",
                          "<tr><td>#3</td>"})
    EXPECT_NE(Read.find(Bug, Truth), std::string::npos) << Bug;
}

TEST(SbiCliTest, AnalyzeWithoutAffinityPrintsTheSameRanking) {
  // analyze computes affinity lists only for --affinity, which prints them
  // after everything else; without it, stdout is exactly that output's
  // head, under every engine.
  const std::string Dir = freshDir("sbi-cli-affinity");
  const std::string Sbi = std::string(SBI_PATH) + " ";
  const std::string Corpus = Dir + "/exif.corpus";
  CliResult Made = runCommand(Sbi + "run --subject=exif --runs=300 --seed=11 "
                                    "--out=" + Corpus);
  ASSERT_EQ(Made.Status, 0) << Made.Output;
  for (const char *Engine : {"incremental", "bitset", "rescan"}) {
    const std::string Analyze = Sbi + "analyze --subject=exif --bugs "
                                      "--trace --in=" + Corpus +
                                " --analysis-engine=" + Engine;
    CliResult Without = runCommand(Analyze, false);
    CliResult With = runCommand(Analyze + " --affinity", false);
    EXPECT_EQ(Without.Status, 0) << Engine;
    EXPECT_EQ(With.Status, 0) << Engine;
    EXPECT_NE(With.Output.find("affinity of "), std::string::npos) << Engine;
    EXPECT_EQ(Without.Output.find("affinity of "), std::string::npos)
        << Engine;
    EXPECT_EQ(With.Output.compare(0, Without.Output.size(), Without.Output),
              0)
        << Engine << ":\n" << Without.Output;
  }
}
