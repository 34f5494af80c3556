//===- harness/Tables.h - Paper-table rendering and derived studies -------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers the bench binaries share to print the paper's tables: ranked
/// predicate lists with bug thermometers (Table 1), elimination output with
/// initial/effective thermometers and ground-truth bug columns (Tables
/// 3-7), the minimum-runs study (Table 8), and the stack-trace clustering
/// study discussed in Section 6.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_HARNESS_TABLES_H
#define SBI_HARNESS_TABLES_H

#include "core/Analysis.h"
#include "harness/Campaign.h"

#include <string>
#include <vector>

namespace sbi {

/// "text (scheme @ function:line)" for one predicate.
std::string predicateLabel(const SiteTable &Sites, uint32_t PredId);

/// Renders a Table 1-style ranked list: thermometer, Context, Increase with
/// its CI, S, F, F+S, predicate text. \p TopK rows (0 = all).
std::string renderRankedList(const SiteTable &Sites,
                             const std::vector<RankedPredicate> &Ranked,
                             size_t TopK, uint64_t NumF);

/// Renders Tables 3-7: elimination output with initial and effective
/// thermometers; when \p BugIds is nonempty, appends one column per bug
/// counting failing runs that both exhibit the bug and observe the
/// predicate true (Table 3's right-hand matrix).
std::string renderSelectedList(const SiteTable &Sites, const ReportSet &Set,
                               const std::vector<SelectedPredicate> &Selected,
                               const std::vector<int> &BugIds,
                               size_t TopK = 0);

/// Same rendering over the compact RunProfiles store (what `sbi analyze`
/// reads); profiles carry the failure labels, truth bits, and bug masks
/// the bug columns need, so output is byte-identical to the ReportSet
/// overload.
std::string renderSelectedList(const SiteTable &Sites,
                               const RunProfiles &Runs,
                               const std::vector<SelectedPredicate> &Selected,
                               const std::vector<int> &BugIds,
                               size_t TopK = 0);

/// Renders a selected predicate's affinity list (the interactive tool's
/// per-predicate view).
std::string renderAffinity(const SiteTable &Sites,
                           const SelectedPredicate &Selected);

/// Renders the elimination audit trail (`sbi analyze --trace`): one line
/// per iteration with the selected predicate, its F/S/FObs/SObs counts,
/// Increase and Importance at selection time, the runs the discard policy
/// removed (or relabeled), and the surviving candidate count. Built only
/// from AnalysisResult::Trail, which both engines fill identically, so the
/// rendering is byte-identical across engines (differential-tested).
std::string renderAuditTrail(const SiteTable &Sites,
                             const AnalysisResult &Analysis);

/// Failing runs in which predicate \p PredId was observed true and bug
/// \p BugId triggered.
size_t failingRunsWithPredAndBug(const ReportSet &Set, uint32_t PredId,
                                 int BugId);
size_t failingRunsWithPredAndBug(const RunProfiles &Runs, uint32_t PredId,
                                 int BugId);

/// For each bug, the selected predicate that best covers its failing runs
/// (the per-bug "natural" predictor of Section 4.3). Bugs with no covering
/// selected predicate are omitted.
std::vector<std::pair<int, uint32_t>>
choosePredictorPerBug(const ReportSet &Set,
                      const std::vector<SelectedPredicate> &Selected,
                      const std::vector<int> &BugIds);

/// Table 8: the minimum-runs study.
struct MinRunsRow {
  int BugId = 0;
  uint32_t Pred = 0;
  /// Smallest grid N with Importance_full - Importance_N < Threshold;
  /// 0 if no grid point qualifies.
  size_t MinRuns = 0;
  /// F(P) among the first MinRuns runs.
  uint64_t FAtMinRuns = 0;
  double FullImportance = 0.0;
};

std::vector<MinRunsRow>
computeMinimumRuns(const SiteTable &Sites, const ReportSet &Set,
                   const std::vector<std::pair<int, uint32_t>> &Predictors,
                   const std::vector<size_t> &Grid, double Threshold = 0.2);

/// The paper's default N grid: 100..1000 step 100, then 2000..25000 step
/// 1000, clipped to the set size.
std::vector<size_t> defaultMinRunsGrid(size_t NumRuns);

/// Extracts the function name from a "func@line" crash location.
std::string crashFunctionOf(const std::string &Location);

/// Section 6's stack study: is the industry heuristic (cluster crashes by
/// stack) enough to separate the bugs?
struct StackStudyRow {
  int BugId = 0;
  size_t CrashingRuns = 0;
  /// Distinct crash locations (top stack frame) across this bug's crashes.
  size_t DistinctLocations = 0;
  /// Distinct full-stack signatures across this bug's crashes.
  size_t DistinctSignatures = 0;
  /// True iff some crash location appears in a run exactly when this bug
  /// triggered — the "truly unique signature stack" of Section 6.
  bool UniqueLocation = false;
  /// Crashes whose top frame is inside the bug's cause function. A unique
  /// crash location that never names the cause (BC's malloc crash, EXIF's
  /// save-path crash) is still useless for debugging.
  size_t CrashesNamingCause = 0;
};

/// \p CauseFunctions maps bug id -> defect-carrying function name ("" if
/// unknown); pass Subject::Bugs-derived data for the seeded subjects.
std::vector<StackStudyRow>
computeStackStudy(const ReportSet &Set, const std::vector<int> &BugIds,
                  const std::vector<std::string> &CauseFunctions = {});

} // namespace sbi

#endif // SBI_HARNESS_TABLES_H
