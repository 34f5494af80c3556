//===- logreg/LogReg.cpp - L1-regularized logistic regression -------------===//

#include "logreg/LogReg.h"

#include <algorithm>
#include <cmath>

using namespace sbi;

int LogRegModel::numNonzero() const {
  int N = 0;
  for (double W : Weights)
    N += W != 0.0 ? 1 : 0;
  return N;
}

std::vector<std::pair<uint32_t, double>>
LogRegModel::topByMagnitude(size_t K) const {
  std::vector<std::pair<uint32_t, double>> Entries;
  for (uint32_t Pred = 0; Pred < Weights.size(); ++Pred)
    if (Weights[Pred] != 0.0)
      Entries.emplace_back(Pred, Weights[Pred]);
  std::sort(Entries.begin(), Entries.end(), [](const auto &A, const auto &B) {
    if (std::fabs(A.second) != std::fabs(B.second))
      return std::fabs(A.second) > std::fabs(B.second);
    return A.first < B.first;
  });
  if (Entries.size() > K)
    Entries.resize(K);
  return Entries;
}

std::vector<std::pair<uint32_t, double>>
LogRegModel::topPositive(size_t K) const {
  std::vector<std::pair<uint32_t, double>> Entries;
  for (uint32_t Pred = 0; Pred < Weights.size(); ++Pred)
    if (Weights[Pred] > 0.0)
      Entries.emplace_back(Pred, Weights[Pred]);
  std::sort(Entries.begin(), Entries.end(), [](const auto &A, const auto &B) {
    if (A.second != B.second)
      return A.second > B.second;
    return A.first < B.first;
  });
  if (Entries.size() > K)
    Entries.resize(K);
  return Entries;
}

double LogRegModel::predict(const FeedbackReport &Report) const {
  double Margin = Intercept;
  for (const auto &[Pred, Count] : Report.Counts.TruePredicates)
    if (Count > 0 && Pred < Weights.size())
      Margin += Weights[Pred];
  return 1.0 / (1.0 + std::exp(-Margin));
}

namespace {

/// Row-compressed binary design matrix: per run, the predicate ids with
/// R(P) = 1, remapped to a dense feature space of ever-true predicates.
struct Design {
  std::vector<uint32_t> FeatureToPred;
  std::vector<size_t> RowStart; // size = numRuns + 1
  std::vector<uint32_t> Columns;
  std::vector<double> Labels; // 1 = failed
  size_t numRuns() const { return Labels.size(); }
  size_t numFeatures() const { return FeatureToPred.size(); }
};

Design buildDesign(const RunProfiles &Runs) {
  Design D;
  std::vector<int64_t> PredToFeature(Runs.numPredicates(), -1);
  for (size_t Run = 0; Run < Runs.size(); ++Run)
    for (uint32_t Pred : Runs.preds(Run))
      if (PredToFeature[Pred] < 0) {
        PredToFeature[Pred] = static_cast<int64_t>(D.FeatureToPred.size());
        D.FeatureToPred.push_back(Pred);
      }

  D.RowStart.reserve(Runs.size() + 1);
  D.RowStart.push_back(0);
  D.Labels.reserve(Runs.size());
  for (size_t Run = 0; Run < Runs.size(); ++Run) {
    for (uint32_t Pred : Runs.preds(Run))
      D.Columns.push_back(static_cast<uint32_t>(PredToFeature[Pred]));
    D.RowStart.push_back(D.Columns.size());
    D.Labels.push_back(Runs.failed(Run) ? 1.0 : 0.0);
  }
  return D;
}

/// Numerically stable log(1 + exp(M)).
double logistic(double M) {
  if (M > 0.0)
    return M + std::log1p(std::exp(-M));
  return std::log1p(std::exp(M));
}

/// Mean logistic loss at the given margins.
double smoothLoss(const Design &D, const std::vector<double> &Margins) {
  double Loss = 0.0;
  for (size_t I = 0; I < D.numRuns(); ++I)
    Loss += logistic(Margins[I]) - D.Labels[I] * Margins[I];
  return Loss / static_cast<double>(D.numRuns());
}

void computeMargins(const Design &D, const std::vector<double> &W, double B,
                    std::vector<double> &Margins) {
  Margins.assign(D.numRuns(), B);
  for (size_t I = 0; I < D.numRuns(); ++I)
    for (size_t K = D.RowStart[I]; K < D.RowStart[I + 1]; ++K)
      Margins[I] += W[D.Columns[K]];
}

double softThreshold(double X, double T) {
  if (X > T)
    return X - T;
  if (X < -T)
    return X + T;
  return 0.0;
}

} // namespace

LogRegModel sbi::trainL1LogReg(const RunProfiles &Runs,
                               const LogRegOptions &Options) {
  Design D = buildDesign(Runs);
  size_t NumFeatures = D.numFeatures();
  size_t NumRuns = D.numRuns();

  LogRegModel Model;
  Model.Weights.assign(Runs.numPredicates(), 0.0);
  if (NumRuns == 0)
    return Model;
  if (NumFeatures == 0) {
    // No features: the optimum is the base-rate log-odds (smoothed so
    // all-failing / all-passing sets stay finite).
    double Failures = 0.0;
    for (double Label : D.Labels)
      Failures += Label;
    double P = (Failures + 0.5) / (static_cast<double>(NumRuns) + 1.0);
    Model.Intercept = std::log(P / (1.0 - P));
    return Model;
  }

  // FISTA with backtracking on the smooth part of the objective.
  std::vector<double> W(NumFeatures, 0.0), WPrev(NumFeatures, 0.0);
  std::vector<double> Y = W; // Momentum point.
  double B = 0.0, BPrev = 0.0, YB = 0.0;
  double Theta = 1.0;
  double Step = 1.0;

  std::vector<double> Margins, Grad(NumFeatures), TrialMargins;
  std::vector<double> Trial(NumFeatures);

  auto evalAt = [&](const std::vector<double> &Wx, double Bx,
                    std::vector<double> &MarginsOut) {
    computeMargins(D, Wx, Bx, MarginsOut);
    return smoothLoss(D, MarginsOut);
  };

  double PrevObjective = HUGE_VAL;
  int Iter = 0;
  for (; Iter < Options.MaxIterations; ++Iter) {
    double LossY = evalAt(Y, YB, Margins);

    // Gradient of the smooth loss at the momentum point.
    std::fill(Grad.begin(), Grad.end(), 0.0);
    double GradB = 0.0;
    for (size_t I = 0; I < NumRuns; ++I) {
      double P = 1.0 / (1.0 + std::exp(-Margins[I]));
      double R = (P - D.Labels[I]) / static_cast<double>(NumRuns);
      GradB += R;
      for (size_t K = D.RowStart[I]; K < D.RowStart[I + 1]; ++K)
        Grad[D.Columns[K]] += R;
    }

    // Backtracking line search for the proximal step.
    double TrialB = 0.0;
    double LossTrial = 0.0;
    while (true) {
      double QuadGap = 0.0;
      for (size_t J = 0; J < NumFeatures; ++J) {
        Trial[J] = softThreshold(Y[J] - Step * Grad[J],
                                 Step * Options.Lambda);
        double Delta = Trial[J] - Y[J];
        QuadGap += Delta * (Grad[J] + Delta / (2.0 * Step));
      }
      TrialB = YB - Step * GradB;
      double DeltaB = TrialB - YB;
      QuadGap += DeltaB * (GradB + DeltaB / (2.0 * Step));

      LossTrial = evalAt(Trial, TrialB, TrialMargins);
      if (LossTrial <= LossY + QuadGap + 1e-12)
        break;
      Step *= 0.5;
      if (Step < 1e-10)
        break;
    }

    WPrev.swap(W);
    W = Trial;
    BPrev = B;
    B = TrialB;

    // FISTA momentum update.
    double ThetaNext = (1.0 + std::sqrt(1.0 + 4.0 * Theta * Theta)) / 2.0;
    double Momentum = (Theta - 1.0) / ThetaNext;
    for (size_t J = 0; J < NumFeatures; ++J)
      Y[J] = W[J] + Momentum * (W[J] - WPrev[J]);
    YB = B + Momentum * (B - BPrev);
    Theta = ThetaNext;

    double L1 = 0.0;
    for (double V : W)
      L1 += std::fabs(V);
    double Objective = LossTrial + Options.Lambda * L1;
    if (std::fabs(PrevObjective - Objective) <
        Options.Tolerance * std::max(1.0, std::fabs(Objective))) {
      PrevObjective = Objective;
      ++Iter;
      break;
    }
    PrevObjective = Objective;
  }

  Model.Intercept = B;
  Model.Iterations = Iter;
  Model.FinalObjective = PrevObjective;
  for (size_t J = 0; J < NumFeatures; ++J)
    Model.Weights[D.FeatureToPred[J]] = W[J];
  return Model;
}

LogRegModel sbi::trainForSparsity(const RunProfiles &Runs, int MaxActive,
                                  const std::vector<double> &LambdaPath) {
  LogRegModel Fallback;
  bool HaveFallback = false;
  for (double Lambda : LambdaPath) {
    LogRegOptions Options;
    Options.Lambda = Lambda;
    LogRegModel Model = trainL1LogReg(Runs, Options);
    int Active = Model.numNonzero();
    if (Active > 0 && Active <= MaxActive)
      return Model;
    if (!HaveFallback && Active > 0) {
      Fallback = std::move(Model);
      HaveFallback = true;
    }
  }
  return Fallback;
}
