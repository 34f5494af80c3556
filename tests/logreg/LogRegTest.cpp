//===- tests/logreg/LogRegTest.cpp - Logistic-regression baseline tests ---===//

#include "logreg/LogReg.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace sbi;

namespace {

FeedbackReport makeRun(bool Failed, std::vector<uint32_t> TruePreds) {
  FeedbackReport Report;
  Report.Failed = Failed;
  std::sort(TruePreds.begin(), TruePreds.end());
  for (uint32_t Pred : TruePreds)
    Report.Counts.TruePredicates.emplace_back(Pred, 1);
  return Report;
}

/// Predicate 0 perfectly separates failures; predicates 1..4 are noise.
RunProfiles separableRuns(int PerClass = 60) {
  RunProfiles Runs(10, 10);
  for (int I = 0; I < PerClass; ++I) {
    std::vector<uint32_t> Noise;
    if (I % 2)
      Noise.push_back(1);
    if (I % 3)
      Noise.push_back(2);
    std::vector<uint32_t> Failing = Noise;
    Failing.push_back(0);
    Runs.addReport(makeRun(true, Failing));
    Runs.addReport(makeRun(false, Noise));
  }
  return Runs;
}

} // namespace

TEST(LogRegTest, LearnsSeparablePredictor) {
  RunProfiles Runs = separableRuns();
  LogRegOptions Options;
  Options.Lambda = 0.01;
  LogRegModel Model = trainL1LogReg(Runs, Options);
  ASSERT_EQ(Model.Weights.size(), 10u);
  EXPECT_GT(Model.Weights[0], 0.5) << "separating feature gets the weight";
  auto Top = Model.topByMagnitude(1);
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0].first, 0u);
}

TEST(LogRegTest, PredictionsSeparateClasses) {
  RunProfiles Runs = separableRuns();
  LogRegModel Model = trainL1LogReg(Runs, {0.01, 400, 1e-7});
  double FailP = Model.predict(makeRun(true, {0, 1}));
  double OkP = Model.predict(makeRun(false, {1}));
  EXPECT_GT(FailP, 0.8);
  EXPECT_LT(OkP, 0.3);
}

TEST(LogRegTest, L1DrivesNoiseWeightsToZero) {
  RunProfiles Runs = separableRuns();
  LogRegModel Model = trainL1LogReg(Runs, {0.05, 400, 1e-7});
  // Noise features 1 and 2 are uninformative; with a real penalty their
  // weights must be exactly zero (the soft-threshold operator zeroes them).
  EXPECT_DOUBLE_EQ(Model.Weights[1], 0.0);
  EXPECT_DOUBLE_EQ(Model.Weights[2], 0.0);
  EXPECT_GT(Model.Weights[0], 0.0);
}

TEST(LogRegTest, SparsityGrowsWithLambda) {
  RunProfiles Runs(20, 20);
  Rng R(5);
  for (int I = 0; I < 300; ++I) {
    bool Failed = R.nextBernoulli(0.4);
    std::vector<uint32_t> True;
    for (uint32_t P = 0; P < 20; ++P) {
      double Rate = Failed ? 0.2 + 0.02 * P : 0.2;
      if (R.nextBernoulli(Rate))
        True.push_back(P);
    }
    Runs.addReport(makeRun(Failed, True));
  }
  int PrevNonzero = 21;
  for (double Lambda : {0.001, 0.01, 0.05, 0.2}) {
    LogRegModel Model = trainL1LogReg(Runs, {Lambda, 300, 1e-8});
    EXPECT_LE(Model.numNonzero(), PrevNonzero)
        << "lambda = " << Lambda;
    PrevNonzero = Model.numNonzero();
  }
}

TEST(LogRegTest, HugeLambdaZeroesEverything) {
  RunProfiles Runs = separableRuns();
  LogRegModel Model = trainL1LogReg(Runs, {10.0, 200, 1e-8});
  EXPECT_EQ(Model.numNonzero(), 0);
}

TEST(LogRegTest, InterceptTracksBaseRate) {
  // With no informative features, the intercept should land near the
  // log-odds of the failure rate.
  RunProfiles Runs(4, 4);
  for (int I = 0; I < 90; ++I)
    Runs.addReport(makeRun(false, {}));
  for (int I = 0; I < 10; ++I)
    Runs.addReport(makeRun(true, {}));
  LogRegModel Model = trainL1LogReg(Runs, {0.01, 400, 1e-9});
  double P = 1.0 / (1.0 + std::exp(-Model.Intercept));
  EXPECT_NEAR(P, 0.1, 0.03);
}

TEST(LogRegTest, EmptySetYieldsEmptyModel) {
  RunProfiles Runs(5, 5);
  LogRegModel Model = trainL1LogReg(Runs);
  EXPECT_EQ(Model.numNonzero(), 0);
  EXPECT_DOUBLE_EQ(Model.Intercept, 0.0);
}

TEST(LogRegTest, TopByMagnitudeOrdersAndTruncates) {
  RunProfiles Runs = separableRuns();
  LogRegModel Model = trainL1LogReg(Runs, {0.002, 400, 1e-8});
  auto Top = Model.topByMagnitude(3);
  EXPECT_LE(Top.size(), 3u);
  for (size_t I = 1; I < Top.size(); ++I)
    EXPECT_GE(std::fabs(Top[I - 1].second), std::fabs(Top[I].second));
}

TEST(LogRegTest, TopPositiveExcludesNegativeWeights) {
  // Feature 0 predicts failure; feature 3 predicts success (present in
  // every successful run only) and should get a negative weight.
  RunProfiles Runs(10, 10);
  for (int I = 0; I < 60; ++I) {
    Runs.addReport(makeRun(true, {0}));
    Runs.addReport(makeRun(false, {3}));
  }
  LogRegModel Model = trainL1LogReg(Runs, {0.01, 400, 1e-8});
  EXPECT_LT(Model.Weights[3], 0.0);
  for (const auto &[Pred, Weight] : Model.topPositive(10)) {
    EXPECT_GT(Weight, 0.0);
    EXPECT_NE(Pred, 3u);
  }
  auto Top = Model.topPositive(10);
  ASSERT_FALSE(Top.empty());
  EXPECT_EQ(Top[0].first, 0u);
}

TEST(LogRegTest, TrainForSparsityRespectsCap) {
  RunProfiles Runs = separableRuns();
  LogRegModel Model =
      trainForSparsity(Runs, /*MaxActive=*/2, {0.2, 0.05, 0.01, 0.001});
  int Active = Model.numNonzero();
  EXPECT_GT(Active, 0);
  EXPECT_LE(Active, 2);
}

TEST(LogRegTest, DeterministicTraining) {
  RunProfiles Runs = separableRuns();
  LogRegModel A = trainL1LogReg(Runs, {0.01, 200, 1e-8});
  LogRegModel B = trainL1LogReg(Runs, {0.01, 200, 1e-8});
  EXPECT_EQ(A.Weights, B.Weights);
  EXPECT_DOUBLE_EQ(A.Intercept, B.Intercept);
}
