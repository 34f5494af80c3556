//===- harness/HtmlReport.cpp - Static HTML analysis reports --------------===//

#include "harness/HtmlReport.h"

#include "harness/Tables.h"
#include "obs/Telemetry.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>

using namespace sbi;

namespace {

std::string escapeHtml(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '&':
      Out += "&amp;";
      break;
    case '<':
      Out += "&lt;";
      break;
    case '>':
      Out += "&gt;";
      break;
    case '"':
      Out += "&quot;";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

/// One thermometer as nested divs: black Context band, red Increase lower
/// bound, pink confidence band, white remainder — the paper's color key.
std::string thermometerHtml(const ThermometerSpec &Spec, int FullWidth,
                            uint64_t MaxRuns) {
  double LogMax = std::log1p(static_cast<double>(MaxRuns));
  double LogThis = std::log1p(static_cast<double>(Spec.RunsObservedTrue));
  int Length = LogMax <= 0.0
                   ? 0
                   : static_cast<int>(std::lround(FullWidth * LogThis /
                                                  LogMax));
  Length = std::clamp(Length, Spec.RunsObservedTrue > 0 ? 4 : 0, FullWidth);

  auto band = [&](double Fraction) {
    return static_cast<int>(std::lround(
        std::clamp(Fraction, 0.0, 1.0) * Length));
  };
  int Context = band(Spec.Context);
  int Increase = std::min(band(Spec.IncreaseLowerBound), Length - Context);
  int Confidence =
      std::min(band(Spec.ConfidenceWidth), Length - Context - Increase);
  int White = Length - Context - Increase - Confidence;

  std::string Out = format(
      "<span class=\"thermo\" style=\"width:%dpx\" title=\"Context %.3f, "
      "Increase lower bound %.3f, observed true in %llu runs\">",
      FullWidth, Spec.Context, Spec.IncreaseLowerBound,
      static_cast<unsigned long long>(Spec.RunsObservedTrue));
  auto piece = [&](const char *Class, int Width) {
    if (Width > 0)
      Out += format("<span class=\"%s\" style=\"width:%dpx\"></span>",
                    Class, Width);
  };
  piece("ctx", Context);
  piece("inc", Increase);
  piece("ci", Confidence);
  piece("succ", White);
  Out += "</span>";
  return Out;
}

const char *StyleSheet = R"css(
body { font-family: system-ui, sans-serif; margin: 2em auto; max-width: 72em;
       color: #1a1a1a; }
h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 4px 10px; border-bottom: 1px solid #ddd;
         font-size: 0.92em; }
th { background: #f4f4f4; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
code { background: #f6f6f6; padding: 1px 4px; border-radius: 3px; }
.thermo { display: inline-flex; height: 14px; border: 1px solid #999;
          vertical-align: middle; background: #fff; }
.thermo span { display: inline-block; height: 100%; }
.ctx { background: #111; } .inc { background: #d22; }
.ci { background: #f9b7c0; } .succ { background: #fff; }
.affinity { margin: 0.4em 0 1.4em 1em; }
.small { color: #666; font-size: 0.85em; }
a.anchor { text-decoration: none; color: #2a6; }
.summary { display: flex; gap: 2.2em; background: #f4f4f4; padding: 8px
           14px; border-radius: 6px; font-size: 0.92em; }
.summary b { display: block; font-size: 1.2em; }
)css";

} // namespace

std::string sbi::renderHtmlReport(const SiteTable &Sites,
                                  const RunProfiles &Runs,
                                  const AnalysisResult &Analysis,
                                  const HtmlReportOptions &Options) {
  size_t Rows = Options.TopK == 0
                    ? Analysis.Selected.size()
                    : std::min(Options.TopK, Analysis.Selected.size());

  uint64_t MaxRuns = 1;
  for (const SelectedPredicate &Entry : Analysis.Selected)
    MaxRuns = std::max(MaxRuns, Entry.InitialScores.counts().observedTrue());

  std::string Out;
  Out += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n";
  Out += format("<title>%s</title>\n<style>%s</style></head>\n<body>\n",
                escapeHtml(Options.Title).c_str(), StyleSheet);
  Out += format("<h1>%s</h1>\n", escapeHtml(Options.Title).c_str());
  Out += format(
      "<p>%zu runs: <b>%zu failing</b>, %zu successful &mdash; %u "
      "instrumented predicates, %zu survive the <i>Increase</i> test, "
      "%zu selected by iterative elimination.</p>\n",
      Runs.size(), Runs.numFailing(), Runs.size() - Runs.numFailing(),
      Analysis.NumInitialPredicates, Analysis.PrunedSurvivors.size(),
      Analysis.Selected.size());
  Out += "<p class=\"small\">Thermometer key (paper Section 3.3): black = "
         "Context, red = Increase lower bound, pink = 95% confidence "
         "band, white = successful runs; length is log-scaled in the "
         "number of runs where the predicate was observed true.</p>\n";

  // --- Main ranked table ---------------------------------------------------
  Out += "<h2>Selected failure predictors</h2>\n<table>\n<tr>"
         "<th>#</th><th>Initial</th><th>Effective</th>"
         "<th class=\"num\">Importance</th><th class=\"num\">F</th>"
         "<th class=\"num\">S</th><th>Predicate</th><th>Site</th></tr>\n";
  for (size_t I = 0; I < Rows; ++I) {
    const SelectedPredicate &Entry = Analysis.Selected[I];
    const PredicateInfo &Pred = Sites.predicate(Entry.Pred);
    const SiteInfo &Site = Sites.site(Pred.Site);
    Out += format(
        "<tr><td class=\"num\"><a class=\"anchor\" "
        "href=\"#affinity-%zu\">%zu</a></td><td>%s</td><td>%s</td>"
        "<td class=\"num\">%.3f</td><td class=\"num\">%llu</td>"
        "<td class=\"num\">%llu</td><td><code>%s</code></td>"
        "<td class=\"small\">%s @ %s:%d</td></tr>\n",
        I, I + 1,
        thermometerHtml(Entry.InitialScores.thermometer(),
                        Options.ThermometerWidth, MaxRuns)
            .c_str(),
        thermometerHtml(Entry.EffectiveScores.thermometer(),
                        Options.ThermometerWidth, MaxRuns)
            .c_str(),
        Entry.InitialImportance,
        static_cast<unsigned long long>(Entry.InitialScores.counts().F),
        static_cast<unsigned long long>(Entry.InitialScores.counts().S),
        escapeHtml(Pred.Text).c_str(), schemeName(Site.SchemeKind),
        escapeHtml(Site.Function).c_str(), Site.Line);
  }
  Out += "</table>\n";

  // --- Affinity sections ---------------------------------------------------
  Out += "<h2>Affinity lists</h2>\n<p class=\"small\">For each selected "
         "predicate: related predicates ranked by how much their "
         "importance drops when the selected predicate's runs are removed "
         "&mdash; large drops mean &ldquo;probably the same "
         "bug&rdquo;.</p>\n";
  for (size_t I = 0; I < Rows; ++I) {
    const SelectedPredicate &Entry = Analysis.Selected[I];
    Out += format("<h3 id=\"affinity-%zu\">%zu. <code>%s</code></h3>\n", I,
                  I + 1,
                  escapeHtml(Sites.predicate(Entry.Pred).Text).c_str());
    if (Entry.Affinity.empty()) {
      Out += "<p class=\"affinity small\">no related predicates</p>\n";
      continue;
    }
    Out += "<table class=\"affinity\">\n<tr><th class=\"num\">Drop</th>"
           "<th>Predicate</th><th>Site</th></tr>\n";
    for (const auto &[Pred, Drop] : Entry.Affinity) {
      const PredicateInfo &Info = Sites.predicate(Pred);
      const SiteInfo &Site = Sites.site(Info.Site);
      Out += format("<tr><td class=\"num\">%.3f</td>"
                    "<td><code>%s</code></td>"
                    "<td class=\"small\">%s @ %s:%d</td></tr>\n",
                    Drop, escapeHtml(Info.Text).c_str(),
                    schemeName(Site.SchemeKind),
                    escapeHtml(Site.Function).c_str(), Site.Line);
    }
    Out += "</table>\n";
  }

  Out += "</body></html>\n";
  return Out;
}

std::string sbi::renderHtmlReport(const Subject &Subj, const SiteTable &Sites,
                                  const RunProfiles &Runs,
                                  const AnalysisResult &Analysis,
                                  HtmlReportOptions Options) {
  if (Options.Title == "Statistical debugging report")
    Options.Title =
        format("Statistical debugging report: %s", Subj.Name.c_str());

  std::string Out = renderHtmlReport(Sites, Runs, Analysis, Options);

  // Compact run-summary header from the metrics registry. The campaign
  // driver maintains these gauges unconditionally; when the runs were read
  // from a corpus instead (no campaign ran this process), the gauges are
  // absent and the header is simply omitted.
  const MetricsRegistry &Metrics = Telemetry::metrics();
  if (const Gauge *Runs = Metrics.findGauge("campaign.runs")) {
    const Gauge *Failing = Metrics.findGauge("campaign.failing");
    const Gauge *WallMs = Metrics.findGauge("campaign.wall_ms");
    const Gauge *RunsPerSec = Metrics.findGauge("campaign.runs_per_sec");
    const Label *Mode = Metrics.findLabel("campaign.sampling_mode");
    std::string Box = "<div class=\"summary\">";
    Box += format("<span><b>%.0f</b>runs</span>", Runs->value());
    if (Failing)
      Box += format("<span><b>%.0f</b>failing</span>", Failing->value());
    if (Mode)
      Box += format("<span><b>%s</b>sampling</span>",
                    escapeHtml(Mode->value()).c_str());
    if (WallMs)
      Box += format("<span><b>%.0f&thinsp;ms</b>campaign wall time</span>",
                    WallMs->value());
    if (RunsPerSec && RunsPerSec->value() > 0.0)
      Box += format("<span><b>%.0f</b>runs/sec</span>",
                    RunsPerSec->value());
    Box += "</div>\n";
    size_t At = Out.find("</h1>\n");
    if (At != std::string::npos)
      Out.insert(At + 6, Box);
  }

  if (!Options.ShowGroundTruth)
    return Out;

  // Splice a ground-truth section in before </body>.
  std::string Truth = "<h2>Ground truth (seeded subjects only)</h2>\n"
                      "<table>\n<tr><th>Bug</th><th>Kind</th>"
                      "<th class=\"num\">Triggered</th>"
                      "<th class=\"num\">Failing</th></tr>\n";
  for (const BugSpec &Bug : Subj.Bugs) {
    size_t Triggered = 0, TriggeredAndFailed = 0;
    for (size_t Run = 0; Run < Runs.size(); ++Run)
      if (Runs.hasBug(Run, Bug.Id)) {
        ++Triggered;
        TriggeredAndFailed += Runs.failed(Run);
      }
    Truth += format("<tr><td>#%d</td><td>%s</td><td class=\"num\">%zu</td>"
                    "<td class=\"num\">%zu</td></tr>\n",
                    Bug.Id, escapeHtml(Bug.Kind).c_str(), Triggered,
                    TriggeredAndFailed);
  }
  Truth += "</table>\n";
  size_t At = Out.rfind("</body>");
  if (At != std::string::npos)
    Out.insert(At, Truth);
  return Out;
}
