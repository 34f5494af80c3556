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
