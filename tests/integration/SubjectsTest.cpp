//===- tests/integration/SubjectsTest.cpp - Subject-program validation ----===//
//
// These tests pin the properties the paper's studies depend on: golden
// builds never crash, bug trigger rates sit in the intended bands, bug 8
// never fires, bug 7 never causes a failure by itself, and crashes happen
// where the narrative says they do.
//
//===----------------------------------------------------------------------===//

#include "subjects/Subjects.h"

#include "lang/Sema.h"
#include "runtime/Interp.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace sbi;

namespace {

struct SubjectRuns {
  std::vector<RunOutcome> Buggy;
  std::vector<RunOutcome> Golden;
};

SubjectRuns exercise(const Subject &Subj, size_t Runs, uint64_t Seed) {
  std::vector<Diagnostic> Diags;
  auto Prog = parseAndAnalyze(Subj.Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << renderDiagnostics(Diags);
  auto Golden = parseAndAnalyze(Subj.GoldenSource, Diags);
  EXPECT_TRUE(Golden != nullptr) << renderDiagnostics(Diags);

  SubjectRuns Result;
  Rng Seeder(Seed);
  for (size_t Run = 0; Run < Runs; ++Run) {
    Rng InputRng(Seeder.next());
    RunConfig Config;
    Config.Args = Subj.GenerateInput(InputRng);
    Config.OverrunPad = static_cast<size_t>(InputRng.nextBelow(8));
    Result.Buggy.push_back(runProgram(*Prog, Config));
    Result.Golden.push_back(runProgram(*Golden, Config));
  }
  return Result;
}

double failureRate(const std::vector<RunOutcome> &Outcomes) {
  size_t Failed = 0;
  for (const RunOutcome &Outcome : Outcomes)
    Failed += Outcome.failed() ? 1 : 0;
  return static_cast<double>(Failed) / static_cast<double>(Outcomes.size());
}

class SubjectParamTest : public ::testing::TestWithParam<const Subject *> {};

} // namespace

// gtest prints a test parameter into the test's name (`# GetParam() = ...`).
// For a bare pointer that is its address, which changes from run to run, so
// ctest would rename these tests on every build; print the subject's name.
namespace sbi {
static void PrintTo(const Subject *Subj, std::ostream *OS) {
  *OS << Subj->Name;
}
} // namespace sbi

TEST_P(SubjectParamTest, SourcesCompile) {
  const Subject &Subj = *GetParam();
  std::vector<Diagnostic> Diags;
  EXPECT_NE(parseAndAnalyze(Subj.Source, Diags), nullptr)
      << renderDiagnostics(Diags);
  EXPECT_NE(parseAndAnalyze(Subj.GoldenSource, Diags), nullptr)
      << renderDiagnostics(Diags);
}

TEST_P(SubjectParamTest, GoldenBuildNeverFails) {
  const Subject &Subj = *GetParam();
  SubjectRuns Runs = exercise(Subj, 300, 0xABCD);
  for (size_t I = 0; I < Runs.Golden.size(); ++I)
    EXPECT_FALSE(Runs.Golden[I].failed())
        << Subj.Name << " golden run " << I << " trapped: "
        << trapKindName(Runs.Golden[I].Trap) << " "
        << Runs.Golden[I].TrapMessage;
}

TEST_P(SubjectParamTest, BuggyBuildFailsSometimesNotAlways) {
  const Subject &Subj = *GetParam();
  SubjectRuns Runs = exercise(Subj, 300, 0xBEEF);
  double Rate = failureRate(Runs.Buggy);
  EXPECT_GT(Rate, 0.02) << Subj.Name;
  EXPECT_LT(Rate, 0.90) << Subj.Name;
}

TEST_P(SubjectParamTest, EveryFailureHasATriggeredBug) {
  // Failures must come from seeded bugs, not incidental interpreter traps.
  const Subject &Subj = *GetParam();
  SubjectRuns Runs = exercise(Subj, 300, 0x1234);
  for (size_t I = 0; I < Runs.Buggy.size(); ++I) {
    if (Runs.Buggy[I].crashed()) {
      EXPECT_FALSE(Runs.Buggy[I].BugsTriggered.empty())
          << Subj.Name << " run " << I << " crashed with "
          << trapKindName(Runs.Buggy[I].Trap) << " ("
          << Runs.Buggy[I].TrapMessage << ") but no __bug marker fired";
    }
  }
}

TEST_P(SubjectParamTest, BugIdsMatchSpecs) {
  const Subject &Subj = *GetParam();
  SubjectRuns Runs = exercise(Subj, 200, 0x777);
  std::vector<int> ValidIds;
  for (const BugSpec &Bug : Subj.Bugs)
    ValidIds.push_back(Bug.Id);
  for (const RunOutcome &Outcome : Runs.Buggy)
    for (int Bug : Outcome.BugsTriggered)
      EXPECT_NE(std::find(ValidIds.begin(), ValidIds.end(), Bug),
                ValidIds.end())
          << Subj.Name << " fired undeclared bug id " << Bug;
}

INSTANTIATE_TEST_SUITE_P(AllSubjects, SubjectParamTest,
                         ::testing::ValuesIn(allSubjects()),
                         [](const auto &Info) { return Info.param->Name; });

// --- MOSS specifics -------------------------------------------------------

TEST(MossSubjectTest, BugEightNeverTriggers) {
  SubjectRuns Runs = exercise(mossSubject(), 400, 0x5555);
  for (const RunOutcome &Outcome : Runs.Buggy)
    for (int Bug : Outcome.BugsTriggered)
      EXPECT_NE(Bug, 8);
}

TEST(MossSubjectTest, BugSevenNeverCausesFailureAlone) {
  // The paper: bug 7's overrun never causes incorrect output or a crash in
  // any run; its failing runs always involve another bug.
  SubjectRuns Runs = exercise(mossSubject(), 400, 0x6666);
  for (size_t I = 0; I < Runs.Buggy.size(); ++I) {
    const RunOutcome &Outcome = Runs.Buggy[I];
    bool OnlyBugSeven = Outcome.BugsTriggered == std::vector<int>{7};
    if (!OnlyBugSeven)
      continue;
    bool OutputDiffers = Outcome.Output != Runs.Golden[I].Output;
    EXPECT_FALSE(Outcome.crashed()) << "run " << I;
    EXPECT_FALSE(OutputDiffers) << "run " << I;
  }
}

TEST(MossSubjectTest, BugSevenDoesTrigger) {
  SubjectRuns Runs = exercise(mossSubject(), 400, 0x6666);
  size_t Count = 0;
  for (const RunOutcome &Outcome : Runs.Buggy)
    for (int Bug : Outcome.BugsTriggered)
      Count += Bug == 7 ? 1 : 0;
  EXPECT_GT(Count, 10u);
}

TEST(MossSubjectTest, BugNineIsOutputOnly) {
  SubjectRuns Runs = exercise(mossSubject(), 500, 0x7777);
  size_t OutputOnlyFailures = 0;
  for (size_t I = 0; I < Runs.Buggy.size(); ++I) {
    const RunOutcome &Outcome = Runs.Buggy[I];
    bool HasBugNine =
        std::find(Outcome.BugsTriggered.begin(), Outcome.BugsTriggered.end(),
                  9) != Outcome.BugsTriggered.end();
    if (HasBugNine && !Outcome.crashed() &&
        Outcome.Output != Runs.Golden[I].Output)
      ++OutputOnlyFailures;
  }
  EXPECT_GT(OutputOnlyFailures, 3u)
      << "bug 9 must produce silent wrong output the oracle can catch";
}

TEST(MossSubjectTest, BugRatesSpreadOverOrders) {
  SubjectRuns Runs = exercise(mossSubject(), 600, 0x8888);
  std::vector<size_t> Counts(10, 0);
  for (const RunOutcome &Outcome : Runs.Buggy)
    for (int Bug : Outcome.BugsTriggered)
      if (Bug >= 1 && Bug <= 9)
        ++Counts[static_cast<size_t>(Bug)];
  // Bug 5 is the most common crashing bug; bug 2 the rarest nonzero one.
  EXPECT_GT(Counts[5], Counts[2] * 3);
}

// --- Per-subject crash-site narratives ------------------------------------

TEST(BcSubjectTest, CrashesFarFromCause) {
  SubjectRuns Runs = exercise(bcSubject(), 400, 0x9999);
  size_t Crashes = 0;
  for (const RunOutcome &Outcome : Runs.Buggy) {
    if (!Outcome.crashed())
      continue;
    ++Crashes;
    ASSERT_FALSE(Outcome.StackTrace.empty());
    // The crash is in the "library" walk, not in array_define.
    EXPECT_EQ(Outcome.StackTrace[0].find("array_define"), std::string::npos);
    EXPECT_NE(Outcome.StackTrace[0].find("__lib_block_walk"),
              std::string::npos);
  }
  EXPECT_GT(Crashes, 10u);
}

TEST(ExifSubjectTest, BugThreeCrashesInSavePath) {
  SubjectRuns Runs = exercise(exifSubject(), 3000, 0xAAAA);
  size_t SavePathCrashes = 0, OtherCrashes = 0;
  for (const RunOutcome &Outcome : Runs.Buggy) {
    bool HasBugThree =
        std::find(Outcome.BugsTriggered.begin(), Outcome.BugsTriggered.end(),
                  3) != Outcome.BugsTriggered.end();
    if (!HasBugThree || !Outcome.crashed())
      continue;
    ASSERT_FALSE(Outcome.StackTrace.empty());
    // Runs where ONLY bug 3 occurred must crash in the save path, far from
    // the loader; runs that also trip bug 1 or 2 may crash earlier.
    if (Outcome.BugsTriggered == std::vector<int>{3}) {
      ++SavePathCrashes;
      EXPECT_NE(Outcome.StackTrace[0].find("mnote_save"),
                std::string::npos)
          << Outcome.StackTrace[0];
    } else {
      ++OtherCrashes;
    }
  }
  EXPECT_GT(SavePathCrashes, 0u);
  (void)OtherCrashes;
}

TEST(ExifSubjectTest, BugRatesAreOrdered) {
  // Bug 1 is the common one; bug 3 is rare (two orders in the paper).
  SubjectRuns Runs = exercise(exifSubject(), 3000, 0xBBBB);
  std::vector<size_t> Counts(4, 0);
  for (const RunOutcome &Outcome : Runs.Buggy)
    for (int Bug : Outcome.BugsTriggered)
      if (Bug >= 1 && Bug <= 3)
        ++Counts[static_cast<size_t>(Bug)];
  EXPECT_GT(Counts[1], Counts[3] * 5);
  EXPECT_GT(Counts[3], 0u);
}

TEST(CCryptSubjectTest, FailuresAreNullDerefAtPrompt) {
  SubjectRuns Runs = exercise(ccryptSubject(), 300, 0xCCCC);
  for (const RunOutcome &Outcome : Runs.Buggy) {
    if (!Outcome.crashed())
      continue;
    EXPECT_EQ(Outcome.Trap, TrapKind::NullDeref);
    ASSERT_FALSE(Outcome.StackTrace.empty());
    EXPECT_NE(Outcome.StackTrace[0].find("main"), std::string::npos);
  }
}

TEST(RhythmboxSubjectTest, BothBugsOccur) {
  SubjectRuns Runs = exercise(rhythmboxSubject(), 400, 0xDDDD);
  size_t BugOne = 0, BugTwo = 0;
  for (const RunOutcome &Outcome : Runs.Buggy)
    for (int Bug : Outcome.BugsTriggered) {
      BugOne += Bug == 1 ? 1 : 0;
      BugTwo += Bug == 2 ? 1 : 0;
    }
  EXPECT_GT(BugOne, 10u);
  EXPECT_GT(BugTwo, 10u);
}

TEST(SubjectRegistryTest, FindSubjectByName) {
  EXPECT_EQ(findSubject("moss"), &mossSubject());
  EXPECT_EQ(findSubject("bc"), &bcSubject());
  EXPECT_EQ(findSubject("nonesuch"), nullptr);
  EXPECT_EQ(allSubjects().size(), 5u);
}

TEST(SubjectRegistryTest, TemplateExpansion) {
  EXPECT_EQ(expandTemplate("a ${X} c", {{"X", "b"}}), "a b c");
  EXPECT_EQ(expandTemplate("${A}${B}", {{"A", "1"}, {"B", "2"}}), "12");
  EXPECT_EQ(expandTemplate("no placeholders", {}), "no placeholders");
}
