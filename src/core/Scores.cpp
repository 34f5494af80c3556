//===- core/Scores.cpp - Failure, Context, Increase, Importance -----------===//

#include "core/Scores.h"

#include <algorithm>
#include <cmath>

using namespace sbi;

double PredicateScores::logNumFailing(uint64_t NumF) {
  return NumF <= 1 ? 0.0 : std::log(static_cast<double>(NumF));
}

double PredicateScores::sensitivityFromLog(double LogNumF) const {
  if (LogNumF <= 0.0 || Counts.F == 0)
    return 0.0;
  return std::log(static_cast<double>(Counts.F)) / LogNumF;
}

double PredicateScores::importanceFromLog(double LogNumF) const {
  // failure() - context() is bit-for-bit increase().Value; computing it
  // directly skips the interval's sqrt, which dominates the ranking loops.
  double Inc = failure() - context();
  // Testing Increase first skips the logarithm for every predicate that
  // cannot score, F(P) = 0 among them.
  if (Inc <= 0.0)
    return 0.0;
  return importanceOf(Inc, std::log(static_cast<double>(Counts.F)), LogNumF);
}

double PredicateScores::importanceOf(double Increase, double LogF,
                                     double LogNumF) {
  // The harmonic mean is undefined when either term is nonpositive; the
  // paper defines Importance as 0 in that case.
  if (Increase <= 0.0 || LogNumF <= 0.0)
    return 0.0;
  double Sens = LogF / LogNumF;
  if (Sens <= 0.0)
    return 0.0;
  return 2.0 / (1.0 / Increase + 1.0 / Sens);
}

ScoreInterval PredicateScores::importanceInterval(uint64_t NumF) const {
  double Inc = increase().Value;
  double Sens = sensitivity(NumF);
  if (Inc <= 0.0 || Sens <= 0.0)
    return {0.0, 0.0};

  // Variance of Increase: sum of the two proportion variances (the same
  // approximation the Increase interval uses).
  double VarInc =
      failureProportion().variance() + contextProportion().variance();

  // Variance of log(F)/log(NumF): model F as a binomial count over NumF
  // failing runs with success probability F/NumF, then apply the delta
  // method to t -> log(t)/log(NumF): d/dF = 1 / (F log NumF).
  double FCount = static_cast<double>(Counts.F);
  double NumFD = static_cast<double>(NumF);
  double VarF = FCount * (1.0 - FCount / NumFD);
  double Deriv = 1.0 / (FCount * std::log(NumFD));
  double VarSens = Deriv * Deriv * VarF;

  return harmonicMeanInterval(Inc, VarInc, Sens, VarSens);
}

ThermometerSpec PredicateScores::thermometer() const {
  ThermometerSpec Spec;
  Spec.Context = context();
  ScoreInterval Inc = increase();
  Spec.IncreaseLowerBound = std::max(0.0, Inc.lowerBound());
  Spec.ConfidenceWidth =
      std::max(0.0, std::min(Inc.upperBound(), 1.0 - Spec.Context) -
                        Spec.IncreaseLowerBound);
  Spec.RunsObservedTrue = Counts.observedTrue();
  return Spec;
}
