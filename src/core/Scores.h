//===- core/Scores.h - Failure, Context, Increase, Importance -------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-predicate statistics of Sections 3.1-3.3:
///
///   Failure(P)  = Pr(Crash | P observed to be true)
///               = F(P) / (S(P) + F(P))
///   Context(P)  = Pr(Crash | P observed)
///               = F(P obs) / (S(P obs) + F(P obs))
///   Increase(P) = Failure(P) - Context(P), with a 95% confidence interval;
///                 the pruning test keeps P only when the interval lies
///                 strictly above zero.
///   Importance(P) = harmonic mean of Increase(P) (specificity) and
///                 log(F(P)) / log(NumF) (log-moderated sensitivity),
///                 defined as 0 whenever a division by zero would occur.
///
/// Section 3.2's equivalent hypothesis-test view is also provided: the
/// two-proportion Z statistic on p_f = F(P)/F(P obs) vs
/// p_s = S(P)/S(P obs); Increase(P) > 0 iff p_f > p_s.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_CORE_SCORES_H
#define SBI_CORE_SCORES_H

#include "support/Stats.h"
#include "support/Thermometer.h"

#include <cstdint>

namespace sbi {

/// The four counts behind every score.
struct PredicateCounts {
  uint64_t F = 0;    ///< Failing runs where P observed true.
  uint64_t S = 0;    ///< Successful runs where P observed true.
  uint64_t FObs = 0; ///< Failing runs where P's site was sampled.
  uint64_t SObs = 0; ///< Successful runs where P's site was sampled.

  uint64_t observedTrue() const { return F + S; }
  uint64_t observed() const { return FObs + SObs; }
};

/// Score bundle for one predicate over one run population.
class PredicateScores {
public:
  PredicateScores() = default;
  explicit PredicateScores(PredicateCounts Counts) : Counts(Counts) {}

  const PredicateCounts &counts() const { return Counts; }

  Proportion failureProportion() const { return {Counts.F, Counts.F + Counts.S}; }
  Proportion contextProportion() const {
    return {Counts.FObs, Counts.FObs + Counts.SObs};
  }

  double failure() const { return failureProportion().value(); }
  double context() const { return contextProportion().value(); }

  /// Increase(P) with its 95% confidence interval.
  ScoreInterval increase() const {
    return differenceInterval(failureProportion(), contextProportion());
  }

  /// The pruning test of Section 3.1: keep P iff the Increase interval lies
  /// strictly above zero (and P was ever observed true in a failing run).
  bool survivesIncreaseTest() const {
    return Counts.F > 0 && increase().lowerBound() > 0.0;
  }

  /// Section 3.2's heads-probability estimates and Z statistic.
  Proportion headsFailing() const { return {Counts.F, Counts.FObs}; }
  Proportion headsSuccessful() const { return {Counts.S, Counts.SObs}; }
  double zScore() const {
    return twoProportionZ(headsFailing(), headsSuccessful());
  }

  /// The log-moderated sensitivity term log(F(P)) / log(NumF).
  double sensitivity(uint64_t NumF) const {
    return sensitivityFromLog(logNumFailing(NumF));
  }

  /// Importance(P) over a population with \p NumF failing runs.
  double importance(uint64_t NumF) const {
    return importanceFromLog(logNumFailing(NumF));
  }

  /// log(NumF), the sensitivity term's denominator; 0 when NumF <= 1,
  /// where sensitivity (and so Importance) is 0. A pass scoring many
  /// predicates over one population takes it once.
  static double logNumFailing(uint64_t NumF);

  /// importance() given \p LogNumF = logNumFailing(NumF).
  double importanceFromLog(double LogNumF) const;

  /// Importance from its three inputs: \p Increase = failure() - context(),
  /// \p LogF = log(F(P)) and \p LogNumF. importanceFromLog computes exactly
  /// this, and the elimination loop calls it on cached inputs, so a cached
  /// score is bit-identical to a fresh one. With Increase and log F fixed,
  /// the result never falls as \p LogNumF falls: every IEEE operation on
  /// the way is monotone.
  static double importanceOf(double Increase, double LogF, double LogNumF);

  /// Delta-method 95% interval for Importance (Section 3.3's suggestion).
  ScoreInterval importanceInterval(uint64_t NumF) const;

  /// The bug-thermometer bands for this predicate (Section 3.3).
  ThermometerSpec thermometer() const;

private:
  double sensitivityFromLog(double LogNumF) const;

  PredicateCounts Counts;
};

} // namespace sbi

#endif // SBI_CORE_SCORES_H
