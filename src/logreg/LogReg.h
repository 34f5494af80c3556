//===- logreg/LogReg.h - L1-regularized logistic regression baseline ------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline the paper compares against (Section 4.4 / Table 9):
/// l1-regularized logistic regression over binary predicate features
/// x_j = R(P_j), predicting the run outcome. Trained with proximal
/// gradient descent (ISTA with backtracking line search); the L1 penalty
/// drives most coefficients to exactly zero, and the surviving
/// largest-|coefficient| predicates form the baseline's ranked list.
///
/// The paper's finding, which the Table 9 bench reproduces: this global
/// classifier favours super-bug and sub-bug predictors because they cover
/// the most failing runs per unit of penalty, and it has no mechanism to
/// prefer one predictor per distinct bug.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_LOGREG_LOGREG_H
#define SBI_LOGREG_LOGREG_H

#include "feedback/Report.h"
#include "feedback/RunProfiles.h"

#include <cstdint>
#include <vector>

namespace sbi {

struct LogRegOptions {
  double Lambda = 0.01;   ///< L1 penalty weight.
  int MaxIterations = 400;
  double Tolerance = 1e-7; ///< Stop when the objective improves less.
};

struct LogRegModel {
  /// Weight per predicate id (dense over the full predicate space).
  std::vector<double> Weights;
  double Intercept = 0.0;
  double FinalObjective = 0.0;
  int Iterations = 0;

  int numNonzero() const;

  /// The top-K predicates by |weight|, heaviest first (only nonzero ones).
  std::vector<std::pair<uint32_t, double>> topByMagnitude(size_t K) const;

  /// The top-K positive-weight predicates (failure predictors, the list
  /// the paper's Table 9 shows). Negative weights mark predicates whose
  /// truth indicates success — typically late-execution predicates that
  /// crashed runs never reach.
  std::vector<std::pair<uint32_t, double>> topPositive(size_t K) const;

  /// Classifier probability of failure for one report.
  double predict(const FeedbackReport &Report) const;
};

/// Trains on R(P) features from \p Runs.
LogRegModel trainL1LogReg(const RunProfiles &Runs,
                          const LogRegOptions &Options = {});

/// Trains over a decreasing lambda path, returning the first model with at
/// most \p MaxActive nonzero weights; falls back to the sparsest model.
LogRegModel trainForSparsity(const RunProfiles &Runs, int MaxActive,
                             const std::vector<double> &LambdaPath);

} // namespace sbi

#endif // SBI_LOGREG_LOGREG_H
