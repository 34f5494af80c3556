//===- tests/harness/HtmlReportTest.cpp - HTML report tests ----------------===//

#include "harness/HtmlReport.h"

#include "core/Analysis.h"
#include "harness/Campaign.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace sbi;

namespace {

struct Fixture {
  CampaignResult Campaign;
  RunProfiles Runs;
  AnalysisResult Analysis;

  Fixture() {
    CampaignOptions Options;
    Options.NumRuns = 250;
    Options.TrainingRuns = 40;
    Options.Seed = 909;
    Campaign = runCampaign(exifSubject(), Options);
    Runs = RunProfiles::fromReports(Campaign.Reports);
    CauseIsolator Isolator(Campaign.Sites, Runs);
    Analysis = Isolator.run();
  }

  static const Fixture &get() {
    static Fixture F;
    return F;
  }
};

} // namespace

TEST(HtmlReportTest, IsSelfContainedDocument) {
  const Fixture &F = Fixture::get();
  std::string Html =
      renderHtmlReport(F.Campaign.Sites, F.Runs, F.Analysis);
  EXPECT_EQ(Html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(Html.find("</html>"), std::string::npos);
  // Self-contained: no external references.
  EXPECT_EQ(Html.find("http://"), std::string::npos);
  EXPECT_EQ(Html.find("src="), std::string::npos);
  EXPECT_EQ(Html.find("<script"), std::string::npos);
}

TEST(HtmlReportTest, ContainsEverySelectedPredicate) {
  const Fixture &F = Fixture::get();
  std::string Html =
      renderHtmlReport(F.Campaign.Sites, F.Runs, F.Analysis);
  for (const SelectedPredicate &Entry : F.Analysis.Selected) {
    // The raw text may contain HTML-escaped characters; check a stable
    // fragment (the site function name).
    const auto &Site =
        F.Campaign.Sites.site(F.Campaign.Sites.predicate(Entry.Pred).Site);
    EXPECT_NE(Html.find(Site.Function), std::string::npos);
  }
  // Thermometer bands are present.
  EXPECT_NE(Html.find("class=\"ctx\""), std::string::npos);
  EXPECT_NE(Html.find("class=\"inc\""), std::string::npos);
}

TEST(HtmlReportTest, EscapesPredicateText) {
  const Fixture &F = Fixture::get();
  std::string Html =
      renderHtmlReport(F.Campaign.Sites, F.Runs, F.Analysis);
  // EXIF predictors contain "(o + s) > mn_buf_size"; the '>' must be
  // escaped inside code spans.
  EXPECT_NE(Html.find("&gt;"), std::string::npos);
  // And no bare "<" from predicate text leaks outside tags: every '<' in
  // the document starts an HTML tag (crude check: "< " never appears).
  EXPECT_EQ(Html.find("< "), std::string::npos);
}

TEST(HtmlReportTest, TopKTruncates) {
  const Fixture &F = Fixture::get();
  HtmlReportOptions Options;
  Options.TopK = 1;
  std::string Html = renderHtmlReport(F.Campaign.Sites, F.Runs,
                                      F.Analysis, Options);
  EXPECT_EQ(Html.find("affinity-1\""), std::string::npos);
  EXPECT_NE(Html.find("affinity-0\""), std::string::npos);
}

TEST(HtmlReportTest, CampaignOverloadAddsTitleAndGroundTruth) {
  const Fixture &F = Fixture::get();
  HtmlReportOptions Options;
  Options.ShowGroundTruth = true;
  std::string Html = renderHtmlReport(*F.Campaign.Subj, F.Campaign.Sites,
                                      F.Runs, F.Analysis, Options);
  EXPECT_NE(Html.find("report: exif"), std::string::npos);
  EXPECT_NE(Html.find("Ground truth"), std::string::npos);
  EXPECT_NE(Html.find("#3"), std::string::npos);
  // The table is tallied from the runs' bug masks, so it must agree with
  // the campaign's own per-bug tally.
  ASSERT_EQ(F.Campaign.Bugs.size(), exifSubject().Bugs.size());
  for (const CampaignResult::BugStats &Bug : F.Campaign.Bugs)
    EXPECT_NE(Html.find(format("<tr><td>#%d</td><td>%s</td>"
                               "<td class=\"num\">%zu</td>"
                               "<td class=\"num\">%zu</td></tr>",
                               Bug.BugId,
                               exifSubject().Bugs[Bug.BugId - 1].Kind.c_str(),
                               Bug.Triggered, Bug.TriggeredAndFailed)),
              std::string::npos)
        << "bug #" << Bug.BugId;

  // Every EXIF bug that triggers also fails, so count a bug that triggers
  // in a successful run on a population built by hand.
  RunProfiles Runs(F.Campaign.Sites.numSites(),
                   F.Campaign.Sites.numPredicates());
  Runs.beginRun(true, FeedbackReport::bugBit(1));
  Runs.beginRun(false, FeedbackReport::bugBit(1) | FeedbackReport::bugBit(3));
  Runs.beginRun(false);
  std::string Small = renderHtmlReport(exifSubject(), F.Campaign.Sites, Runs,
                                       F.Analysis, Options);
  const std::vector<BugSpec> &Bugs = exifSubject().Bugs;
  const size_t Expected[][2] = {{2, 1}, {0, 0}, {1, 0}};
  for (size_t B = 0; B < 3; ++B)
    EXPECT_NE(Small.find(format("<tr><td>#%d</td><td>%s</td>"
                                "<td class=\"num\">%zu</td>"
                                "<td class=\"num\">%zu</td></tr>",
                                Bugs[B].Id, Bugs[B].Kind.c_str(),
                                Expected[B][0], Expected[B][1])),
              std::string::npos)
        << "bug #" << Bugs[B].Id;
}

TEST(HtmlReportTest, CampaignOverloadAddsRunSummaryHeader) {
  const Fixture &F = Fixture::get();
  // The fixture ran a real campaign in this process, so the campaign
  // summary gauges exist in the metrics registry and the header renders.
  std::string Html = renderHtmlReport(*F.Campaign.Subj, F.Campaign.Sites,
                                      F.Runs, F.Analysis);
  EXPECT_NE(Html.find("<div class=\"summary\">"), std::string::npos);
  EXPECT_NE(Html.find("<b>250</b>runs"), std::string::npos);
  EXPECT_NE(Html.find("failing"), std::string::npos);
  EXPECT_NE(Html.find(F.Campaign.Plan.name()), std::string::npos);
  EXPECT_NE(Html.find("campaign wall time"), std::string::npos);
  // The base overload knows nothing of campaigns and stays header-free.
  std::string Base =
      renderHtmlReport(F.Campaign.Sites, F.Runs, F.Analysis);
  EXPECT_EQ(Base.find("<div class=\"summary\">"), std::string::npos);
}

TEST(HtmlReportTest, AffinityAnchorsLink) {
  const Fixture &F = Fixture::get();
  std::string Html =
      renderHtmlReport(F.Campaign.Sites, F.Runs, F.Analysis);
  // Each main-table row anchor has a matching affinity section id.
  for (size_t I = 0; I < F.Analysis.Selected.size(); ++I) {
    std::string Anchor = "href=\"#affinity-" + std::to_string(I) + "\"";
    std::string Target = "id=\"affinity-" + std::to_string(I) + "\"";
    EXPECT_NE(Html.find(Anchor), std::string::npos) << I;
    EXPECT_NE(Html.find(Target), std::string::npos) << I;
  }
}
