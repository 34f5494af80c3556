//===- tests/cli/SbiCliTest.cpp - sbi exit statuses -----------------------===//
//
// Runs the built `sbi` binary, and a table bench for the flags the benches
// share, on inputs a user can get wrong and checks the exit status and
// what the program says: 2 for a malformed flag or environment variable, 1
// for a failure while running, and never a crash.
//
//===----------------------------------------------------------------------===//

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
  std::string Output; ///< stdout and stderr together.
};

/// Runs the shell command \p Command.
CliResult runCommand(const std::string &Command) {
  CliResult Result;
  std::FILE *Pipe = popen((Command + " 2>&1").c_str(), "r");
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

/// Copies the SBI-REPORTS v1 file \p In to \p Out with its site count cut
/// to \p NumSites and every site entry at or above it dropped: a file
/// that is still well-formed, but no longer matches its subject.
bool cutSites(const std::string &In, const std::string &Out,
              unsigned NumSites) {
  std::ifstream Src(In);
  std::ofstream Dst(Out);
  std::string Line;
  for (int LineNo = 0; std::getline(Src, Line); ++LineNo) {
    std::istringstream Fields(Line);
    if (LineNo == 1) {
      unsigned Sites = 0, Preds = 0, Reports = 0;
      if (!(Fields >> Sites >> Preds >> Reports))
        return false;
      Dst << NumSites << ' ' << Preds << ' ' << Reports << '\n';
    } else if (Line.rfind("S ", 0) == 0) {
      std::string Mark, Entry;
      size_t Count = 0;
      Fields >> Mark >> Count;
      std::vector<std::string> Kept;
      while (Fields >> Entry)
        if (std::stoul(Entry.substr(0, Entry.find(':'))) < NumSites)
          Kept.push_back(Entry);
      Dst << "S " << Kept.size();
      for (const std::string &E : Kept)
        Dst << ' ' << E;
      Dst << '\n';
    } else {
      Dst << Line << '\n';
    }
  }
  return static_cast<bool>(Dst);
}

} // namespace

TEST(SbiCliTest, ExitStatusTable) {
  std::string Dir = ::testing::TempDir() + "sbi-cli-test";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  const std::string File = Dir + "/regular-file";
  std::ofstream(File) << "not a directory\n";
  const std::string Sbi = std::string(SBI_PATH) + " ";
  const std::string Table = std::string(TABLE4_CCRYPT_PATH) + " ";
  const std::string Run = Sbi + "run --subject=ccrypt --runs=20 ";
  const std::string Out = " --out=" + Dir + "/ccrypt.reports";
  const std::string Spill =
      Run + "--sampling=none --corpus=" + File + "/corpus --threads=";

  // ccrypt has 253 sites; a report file and a corpus cut to 100 of them
  // must be refused, not analyzed against predicates naming sites past
  // the end of their observation counts.
  const std::string Fresh = Dir + "/fresh.reports";
  const std::string Cut = Dir + "/cut.reports";
  const std::string CutCorpus = Dir + "/cut-corpus";
  CliResult Made = runCommand(Run + "--out=" + Fresh);
  ASSERT_EQ(Made.Status, 0) << Made.Output;
  ASSERT_TRUE(cutSites(Fresh, Cut, 100));
  const std::string Analyze = Sbi + "analyze --subject=ccrypt ";
  const std::string Report = Sbi + "report --subject=ccrypt --in=" + Fresh +
                             " --out=" + Dir + "/ccrypt.report.html ";

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
      {Table + "--runs=40 --seed=12 --threads=1", 0, {"runs: 40, seed: 12"}},
      {Sbi + "corpus convert --in=" + Cut + " --out=" + CutCorpus, 0,
       {"converted 20 reports"}},
      {Analyze + "--in=" + Cut, 1, {"'ccrypt'", "100 vs 253 sites"}},
      {Analyze + "--corpus=" + CutCorpus, 1, {"'ccrypt'", "100 vs 253 sites"}},
      // report takes analyze's policy; a bad one is refused before any
      // campaign runs.
      {Report + "--policy=bogus", 2, {"'bogus'", "--policy"}},
      {Report + "--policy=relabel", 0, {"wrote", "ccrypt.report.html"}},
      // The streamed paths refuse the flags they cannot honour instead of
      // ignoring them.
      {Analyze + "--corpus=" + CutCorpus + " --static-prune", 2,
       {"--corpus", "--static-prune"}},
      {Analyze + "--corpus=" + CutCorpus + " --in=" + Fresh, 2,
       {"--corpus", "--in"}},
      {Run + "--corpus=" + Dir + "/spill" + Out, 2, {"--corpus", "--out"}},
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
