//===- tests/core/ScoresTest.cpp - Score-formula unit tests ---------------===//

#include "core/Scores.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace sbi;

TEST(ScoresTest, FailureAndContextFromCounts) {
  PredicateScores Scores({/*F=*/30, /*S=*/10, /*FObs=*/50, /*SObs=*/50});
  EXPECT_NEAR(Scores.failure(), 0.75, 1e-12);
  EXPECT_NEAR(Scores.context(), 0.5, 1e-12);
  EXPECT_NEAR(Scores.increase().Value, 0.25, 1e-12);
}

TEST(ScoresTest, DeterministicBugHasFailureOne) {
  // Deterministic for P: never true in a successful run (S = 0), true in
  // at least one failing run (Section 3.1's definition).
  PredicateScores Scores({/*F=*/20, /*S=*/0, /*FObs=*/40, /*SObs=*/160});
  EXPECT_DOUBLE_EQ(Scores.failure(), 1.0);
  EXPECT_GT(Scores.increase().Value, 0.7);
}

TEST(ScoresTest, PaperXEqualsZeroExample) {
  // The x == 0 example of Section 3.1: the predicate is checked only on a
  // path where the program is already doomed, so Failure = Context = 1 and
  // Increase = 0; the predicate must not survive pruning.
  PredicateScores Scores({/*F=*/50, /*S=*/0, /*FObs=*/50, /*SObs=*/0});
  EXPECT_DOUBLE_EQ(Scores.failure(), 1.0);
  EXPECT_DOUBLE_EQ(Scores.context(), 1.0);
  EXPECT_DOUBLE_EQ(Scores.increase().Value, 0.0);
  EXPECT_FALSE(Scores.survivesIncreaseTest());
}

TEST(ScoresTest, UnreachedPredicateScoresZero) {
  PredicateScores Scores({0, 0, 0, 0});
  EXPECT_DOUBLE_EQ(Scores.failure(), 0.0);
  EXPECT_DOUBLE_EQ(Scores.context(), 0.0);
  EXPECT_FALSE(Scores.survivesIncreaseTest());
}

TEST(ScoresTest, InvariantPredicateScoresZeroIncrease) {
  // A program invariant: true whenever observed, in failures and successes
  // alike.
  PredicateScores Scores({/*F=*/25, /*S=*/75, /*FObs=*/25, /*SObs=*/75});
  EXPECT_NEAR(Scores.increase().Value, 0.0, 1e-12);
  EXPECT_FALSE(Scores.survivesIncreaseTest());
}

TEST(ScoresTest, ConfidenceGateRejectsFewObservations) {
  // Same proportions, different sample sizes: only the large sample passes
  // the 95% gate (this is exactly why the paper attaches intervals).
  PredicateScores Small({/*F=*/2, /*S=*/1, /*FObs=*/4, /*SObs=*/8});
  PredicateScores Large({/*F=*/200, /*S=*/100, /*FObs=*/400, /*SObs=*/800});
  EXPECT_NEAR(Small.increase().Value, Large.increase().Value, 1e-12);
  EXPECT_FALSE(Small.survivesIncreaseTest());
  EXPECT_TRUE(Large.survivesIncreaseTest());
}

TEST(ScoresTest, NeverTrueInFailureNeverSurvives) {
  PredicateScores Scores({/*F=*/0, /*S=*/50, /*FObs=*/100, /*SObs=*/100});
  EXPECT_FALSE(Scores.survivesIncreaseTest());
}

// --- Section 3.2: the hypothesis-test view ------------------------------

struct CountsCase {
  uint64_t F, S, FObs, SObs;
};

class IncreaseEquivalenceTest : public ::testing::TestWithParam<CountsCase> {
};

TEST_P(IncreaseEquivalenceTest, IncreasePositiveIffHeadsProbabilityHigher) {
  // The paper proves Increase(P) > 0 <=> p_f(P) > p_s(P); check the
  // algebraic identity on a grid of count configurations.
  CountsCase C = GetParam();
  PredicateScores Scores({C.F, C.S, C.FObs, C.SObs});
  double Increase = Scores.increase().Value;
  double HeadsF = Scores.headsFailing().value();
  double HeadsS = Scores.headsSuccessful().value();
  EXPECT_EQ(Increase > 1e-12, HeadsF > HeadsS + 1e-12)
      << "F=" << C.F << " S=" << C.S << " FObs=" << C.FObs
      << " SObs=" << C.SObs;
  // And the Z statistic agrees in sign when defined.
  double Z = Scores.zScore();
  if (std::fabs(Increase) > 1e-9 && Z != 0.0) {
    EXPECT_EQ(Increase > 0, Z > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CountGrid, IncreaseEquivalenceTest,
    ::testing::Values(CountsCase{10, 5, 20, 30}, CountsCase{5, 10, 20, 30},
                      CountsCase{1, 0, 10, 90}, CountsCase{0, 1, 10, 90},
                      CountsCase{50, 50, 100, 100},
                      CountsCase{30, 10, 40, 40}, CountsCase{10, 30, 40, 40},
                      CountsCase{99, 1, 100, 100}, CountsCase{1, 99, 100, 100},
                      CountsCase{7, 3, 15, 5}, CountsCase{3, 7, 5, 15},
                      CountsCase{12, 0, 12, 48}, CountsCase{0, 0, 10, 10},
                      CountsCase{25, 25, 50, 50}));

// --- Importance ----------------------------------------------------------

TEST(ImportanceTest, ZeroWhenIncreaseNonpositive) {
  PredicateScores Scores({/*F=*/10, /*S=*/90, /*FObs=*/10, /*SObs=*/90});
  EXPECT_DOUBLE_EQ(Scores.importance(100), 0.0);
}

TEST(ImportanceTest, ZeroWhenOnlyOneFailure) {
  // log(F) = 0 when F = 1, so sensitivity is 0 and Importance is 0 (the
  // paper defines division-by-zero cases as 0).
  PredicateScores Scores({/*F=*/1, /*S=*/0, /*FObs=*/2, /*SObs=*/20});
  EXPECT_DOUBLE_EQ(Scores.importance(100), 0.0);
}

TEST(ImportanceTest, ZeroWhenNumFIsOne) {
  PredicateScores Scores({/*F=*/1, /*S=*/0, /*FObs=*/1, /*SObs=*/5});
  EXPECT_DOUBLE_EQ(Scores.importance(1), 0.0);
}

TEST(ImportanceTest, PerfectPredictorOfAllFailuresScoresHigh) {
  PredicateScores Scores({/*F=*/100, /*S=*/0, /*FObs=*/100, /*SObs=*/300});
  double Importance = Scores.importance(100);
  // Increase = 0.75, sensitivity = 1 -> harmonic mean ~0.857.
  EXPECT_NEAR(Importance, 2.0 / (1.0 / 0.75 + 1.0), 1e-9);
}

TEST(ImportanceTest, HarmonicMeanFormula) {
  PredicateScores Scores({/*F=*/50, /*S=*/0, /*FObs=*/50, /*SObs=*/150});
  uint64_t NumF = 200;
  double Increase = Scores.increase().Value;
  double Sens = std::log(50.0) / std::log(200.0);
  EXPECT_NEAR(Scores.importance(NumF),
              2.0 / (1.0 / Increase + 1.0 / Sens), 1e-12);
}

TEST(ImportanceTest, BalancesSubBugAndSuperBug) {
  uint64_t NumF = 1000;
  // Sub-bug predictor: deterministic but tiny coverage.
  PredicateScores SubBug({/*F=*/8, /*S=*/0, /*FObs=*/8, /*SObs=*/80});
  // Super-bug predictor: huge coverage, weak correlation.
  PredicateScores SuperBug(
      {/*F=*/800, /*S=*/2000, /*FObs=*/900, /*SObs=*/2400});
  // Balanced predictor: strong correlation and solid coverage.
  PredicateScores Balanced({/*F=*/300, /*S=*/20, /*FObs=*/320, /*SObs=*/900});
  EXPECT_GT(Balanced.importance(NumF), SubBug.importance(NumF));
  EXPECT_GT(Balanced.importance(NumF), SuperBug.importance(NumF));
}

TEST(ImportanceTest, IntervalShrinksWithData) {
  PredicateScores Small({/*F=*/5, /*S=*/1, /*FObs=*/8, /*SObs=*/20});
  PredicateScores Large({/*F=*/500, /*S=*/100, /*FObs=*/800, /*SObs=*/2000});
  ScoreInterval SmallCI = Small.importanceInterval(50);
  ScoreInterval LargeCI = Large.importanceInterval(5000);
  if (SmallCI.Value > 0 && LargeCI.Value > 0) {
    EXPECT_GT(SmallCI.HalfWidth, LargeCI.HalfWidth);
  }
}

TEST(ImportanceTest, IntervalZeroForZeroImportance) {
  PredicateScores Scores({/*F=*/0, /*S=*/10, /*FObs=*/10, /*SObs=*/10});
  ScoreInterval CI = Scores.importanceInterval(100);
  EXPECT_DOUBLE_EQ(CI.Value, 0.0);
  EXPECT_DOUBLE_EQ(CI.HalfWidth, 0.0);
}

// --- Thermometers ---------------------------------------------------------

TEST(ThermometerSpecTest, BandsReflectScores) {
  PredicateScores Scores({/*F=*/60, /*S=*/20, /*FObs=*/100, /*SObs=*/100});
  ThermometerSpec Spec = Scores.thermometer();
  EXPECT_NEAR(Spec.Context, 0.5, 1e-12);
  EXPECT_GT(Spec.IncreaseLowerBound, 0.0);
  EXPECT_GT(Spec.ConfidenceWidth, 0.0);
  EXPECT_EQ(Spec.RunsObservedTrue, 80u);
}

TEST(ThermometerSpecTest, NegativeIncreaseClampsToZero) {
  PredicateScores Scores({/*F=*/5, /*S=*/95, /*FObs=*/50, /*SObs=*/70});
  ThermometerSpec Spec = Scores.thermometer();
  EXPECT_GE(Spec.IncreaseLowerBound, 0.0);
}
