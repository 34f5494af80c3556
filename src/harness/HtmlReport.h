//===- harness/HtmlReport.h - Static HTML analysis reports ----------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper repeatedly refers to "the interactive version of our analysis
/// tools": ranked predictor lists with colored bug thermometers, where
/// each predicate links to its affinity list. This module renders the same
/// experience as a single self-contained static HTML page (no scripts, no
/// external assets): the run summary, the selected predictors with initial
/// and effective thermometers (red Increase band, pink confidence band,
/// black context band, as in the paper's color rendering), and one
/// affinity section per predictor, anchor-linked from the main table.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_HARNESS_HTMLREPORT_H
#define SBI_HARNESS_HTMLREPORT_H

#include "core/Analysis.h"
#include "feedback/RunProfiles.h"
#include "subjects/Subjects.h"

#include <string>

namespace sbi {

struct HtmlReportOptions {
  std::string Title = "Statistical debugging report";
  /// Maximum selected predicates shown (0 = all).
  size_t TopK = 0;
  /// When true, the subject overload appends a ground-truth table: per
  /// seeded bug, the runs whose bug mask has it and how many of those
  /// failed.
  bool ShowGroundTruth = false;
  /// Thermometer width in pixels.
  int ThermometerWidth = 220;
};

/// Renders a full analysis as one self-contained HTML document.
std::string renderHtmlReport(const SiteTable &Sites, const RunProfiles &Runs,
                             const AnalysisResult &Analysis,
                             const HtmlReportOptions &Options = {});

/// Adds what the subject knows: its name in the title, the campaign summary
/// box when a campaign ran in this process, and the ground-truth table,
/// tallied from \p Runs so that a campaign and its corpus render alike.
std::string renderHtmlReport(const Subject &Subj, const SiteTable &Sites,
                             const RunProfiles &Runs,
                             const AnalysisResult &Analysis,
                             HtmlReportOptions Options = {});

} // namespace sbi

#endif // SBI_HARNESS_HTMLREPORT_H
