//===- tests/vm/DifferentialTest.cpp - Engine equivalence tests -----------===//
//
// The VM's contract: identical observable behaviour to the tree-walking
// interpreter — output, trap kind and message, exit code, ground-truth bug
// markers, and the exact sequence of instrumentation events (so that
// collected feedback reports are bit-identical, including under sampling
// with the same seed). These tests sweep every bundled subject across
// hundreds of random inputs and hold both engines to that contract.
//
//===----------------------------------------------------------------------===//

#include "instrument/Collector.h"
#include "instrument/Sites.h"
#include "lang/Sema.h"
#include "runtime/Interp.h"
#include "runtime/Semantics.h"
#include "subjects/Subjects.h"
#include "support/Random.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace sbi;

namespace {

void expectSameOutcome(const RunOutcome &A, const RunOutcome &B,
                       const std::string &Context) {
  EXPECT_EQ(A.Trap, B.Trap) << Context;
  EXPECT_EQ(A.TrapMessage, B.TrapMessage) << Context;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << Context;
  EXPECT_EQ(A.Output, B.Output) << Context;
  EXPECT_EQ(A.BugsTriggered, B.BugsTriggered) << Context;
  // Stack traces agree on the frame sequence; lines may differ by the
  // engines' different notion of "current position".
  ASSERT_EQ(A.StackTrace.size(), B.StackTrace.size()) << Context;
  for (size_t I = 0; I < A.StackTrace.size(); ++I) {
    std::string FuncA = A.StackTrace[I].substr(0, A.StackTrace[I].find('@'));
    std::string FuncB = B.StackTrace[I].substr(0, B.StackTrace[I].find('@'));
    EXPECT_EQ(FuncA, FuncB) << Context << " frame " << I;
  }
}

class SubjectDifferentialTest
    : public ::testing::TestWithParam<const Subject *> {};

} // namespace

// gtest prints a test parameter into the test's name (`# GetParam() = ...`).
// For a bare pointer that is its address, which changes from run to run, so
// ctest would rename these tests on every build; print the subject's name.
namespace sbi {
static void PrintTo(const Subject *Subj, std::ostream *OS) {
  *OS << Subj->Name;
}
} // namespace sbi

TEST_P(SubjectDifferentialTest, OutcomesMatchAcrossEngines) {
  const Subject &Subj = *GetParam();
  std::vector<Diagnostic> Diags;
  auto Prog = parseAndAnalyze(Subj.Source, Diags);
  ASSERT_NE(Prog, nullptr) << renderDiagnostics(Diags);
  CompiledProgram Code = compileProgram(*Prog);

  Rng Seeder(0xD1FF);
  for (int Run = 0; Run < 250; ++Run) {
    Rng InputRng(Seeder.next());
    RunConfig Config;
    Config.Args = Subj.GenerateInput(InputRng);
    Config.OverrunPad = static_cast<size_t>(InputRng.nextBelow(8));

    RunOutcome FromInterp = runProgram(*Prog, Config);
    RunOutcome FromVM = runCompiled(Code, Config);
    expectSameOutcome(FromInterp, FromVM,
                      Subj.Name + " run " + std::to_string(Run));
    if (::testing::Test::HasFailure())
      return; // One detailed failure is enough.
  }
}

TEST_P(SubjectDifferentialTest, FullRateReportsAreBitIdentical) {
  const Subject &Subj = *GetParam();
  std::vector<Diagnostic> Diags;
  auto Prog = parseAndAnalyze(Subj.Source, Diags);
  ASSERT_NE(Prog, nullptr) << renderDiagnostics(Diags);
  CompiledProgram Code = compileProgram(*Prog);
  SiteTable Sites = SiteTable::build(*Prog);

  ReportCollector InterpCollector(Sites, SamplingPlan::full(Sites.numSites()));
  ReportCollector VMCollector(Sites, SamplingPlan::full(Sites.numSites()));

  Rng Seeder(0xD2FF);
  for (int Run = 0; Run < 60; ++Run) {
    Rng InputRng(Seeder.next());
    RunConfig Config;
    Config.Args = Subj.GenerateInput(InputRng);
    Config.OverrunPad = static_cast<size_t>(InputRng.nextBelow(8));

    Config.Observer = &InterpCollector;
    InterpCollector.beginRun(7);
    runProgram(*Prog, Config);
    RawReport FromInterp = InterpCollector.takeReport();

    Config.Observer = &VMCollector;
    VMCollector.beginRun(7);
    runCompiled(Code, Config);
    RawReport FromVM = VMCollector.takeReport();

    ASSERT_EQ(FromInterp.SiteObservations, FromVM.SiteObservations)
        << Subj.Name << " run " << Run;
    ASSERT_EQ(FromInterp.TruePredicates, FromVM.TruePredicates)
        << Subj.Name << " run " << Run;
  }
}

TEST_P(SubjectDifferentialTest, SampledReportsMatchUnderSameSeed) {
  // Stronger than outcome equality: the engines must emit instrumentation
  // events in the same order, so the geometric skip-counting consumes the
  // sampling RNG identically.
  const Subject &Subj = *GetParam();
  std::vector<Diagnostic> Diags;
  auto Prog = parseAndAnalyze(Subj.Source, Diags);
  ASSERT_NE(Prog, nullptr) << renderDiagnostics(Diags);
  CompiledProgram Code = compileProgram(*Prog);
  SiteTable Sites = SiteTable::build(*Prog);

  ReportCollector InterpCollector(
      Sites, SamplingPlan::uniform(Sites.numSites(), 0.07));
  ReportCollector VMCollector(
      Sites, SamplingPlan::uniform(Sites.numSites(), 0.07));

  Rng Seeder(0xD3FF);
  for (int Run = 0; Run < 40; ++Run) {
    Rng InputRng(Seeder.next());
    RunConfig Config;
    Config.Args = Subj.GenerateInput(InputRng);
    Config.OverrunPad = static_cast<size_t>(InputRng.nextBelow(8));
    uint64_t SampleSeed = Seeder.next();

    Config.Observer = &InterpCollector;
    InterpCollector.beginRun(SampleSeed);
    runProgram(*Prog, Config);
    RawReport FromInterp = InterpCollector.takeReport();

    Config.Observer = &VMCollector;
    VMCollector.beginRun(SampleSeed);
    runCompiled(Code, Config);
    RawReport FromVM = VMCollector.takeReport();

    ASSERT_EQ(FromInterp.SiteObservations, FromVM.SiteObservations)
        << Subj.Name << " run " << Run;
    ASSERT_EQ(FromInterp.TruePredicates, FromVM.TruePredicates)
        << Subj.Name << " run " << Run;
  }
}

TEST_P(SubjectDifferentialTest, GoldenBuildsMatchToo) {
  const Subject &Subj = *GetParam();
  std::vector<Diagnostic> Diags;
  auto Prog = parseAndAnalyze(Subj.GoldenSource, Diags);
  ASSERT_NE(Prog, nullptr) << renderDiagnostics(Diags);
  CompiledProgram Code = compileProgram(*Prog);

  Rng Seeder(0xD4FF);
  for (int Run = 0; Run < 100; ++Run) {
    Rng InputRng(Seeder.next());
    RunConfig Config;
    Config.Args = Subj.GenerateInput(InputRng);
    Config.OverrunPad = static_cast<size_t>(InputRng.nextBelow(8));
    RunOutcome FromInterp = runProgram(*Prog, Config);
    RunOutcome FromVM = runCompiled(Code, Config);
    expectSameOutcome(FromInterp, FromVM,
                      Subj.Name + "-golden run " + std::to_string(Run));
    if (::testing::Test::HasFailure())
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubjects, SubjectDifferentialTest,
                         ::testing::ValuesIn(allSubjects()),
                         [](const auto &Info) { return Info.param->Name; });

TEST(OutputCapTest, TruncatesByteExactlyAtCapInBothEngines) {
  // 1000-byte writes do not divide MaxOutputBytes, so the final print that
  // crosses the cap must be truncated mid-write: both engines retain exactly
  // MaxOutputBytes. (The old behavior dropped the whole overflowing write,
  // and only in one engine, so outputs diverged at the boundary.)
  const char *Source = R"(fn main() {
  str S = "x";
  int I = 0;
  while (I < 10) { S = strcat(S, S); I = I + 1; }
  S = substr(S, 0, 1000);
  int N = 0;
  while (N < 1049) { print(S); N = N + 1; }
})";
  std::vector<Diagnostic> Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  ASSERT_TRUE(Prog) << "parse failed";
  CompiledProgram Code = compileProgram(*Prog);

  RunConfig Config;
  RunOutcome FromInterp = runProgram(*Prog, Config);
  RunOutcome FromVM = runCompiled(Code, Config);
  EXPECT_EQ(FromInterp.Output.size(), MaxOutputBytes);
  EXPECT_EQ(FromVM.Output.size(), MaxOutputBytes);
  EXPECT_EQ(FromInterp.Output, FromVM.Output);
  EXPECT_EQ(FromInterp.Trap, TrapKind::None);
  EXPECT_EQ(FromVM.Trap, TrapKind::None);
}
