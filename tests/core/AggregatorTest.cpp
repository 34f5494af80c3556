//===- tests/core/AggregatorTest.cpp - Count aggregation tests ------------===//

#include "core/Aggregator.h"
#include "core/Analysis.h"

#include "SyntheticWorld.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace sbi;

TEST(RunViewTest, AllOfMirrorsLabels) {
  SyntheticWorld World(8);
  ReportSet Set = World.emptySet();
  Set.add(SyntheticWorld::makeReport(World.Sites, true, {0}));
  Set.add(SyntheticWorld::makeReport(World.Sites, false, {1}));
  RunProfiles Runs = RunProfiles::fromReports(Set);
  RunView View = RunView::allOf(Runs);
  EXPECT_EQ(View.numActive(), 2u);
  EXPECT_EQ(View.numActiveFailing(), 1u);
  EXPECT_EQ(View.Failed[0], 1);
  EXPECT_EQ(View.Failed[1], 0);
}

TEST(AggregatorTest, CountsSplitByLabel) {
  SyntheticWorld World(8);
  ReportSet Set = World.emptySet();
  // Site 0 true in 2 failing + 1 successful run; observed-only in 1 more
  // successful run.
  Set.add(SyntheticWorld::makeReport(World.Sites, true, {0}));
  Set.add(SyntheticWorld::makeReport(World.Sites, true, {0}));
  Set.add(SyntheticWorld::makeReport(World.Sites, false, {0}));
  Set.add(SyntheticWorld::makeReport(World.Sites, false, {}, {0}));
  RunProfiles Runs = RunProfiles::fromReports(Set);
  RunView View = RunView::allOf(Runs);
  Aggregates Agg = Aggregates::compute(Runs, View);

  PredicateCounts Counts = Agg.counts(World.predOf(0), World.Sites);
  EXPECT_EQ(Counts.F, 2u);
  EXPECT_EQ(Counts.S, 1u);
  EXPECT_EQ(Counts.FObs, 2u);
  EXPECT_EQ(Counts.SObs, 2u);
  EXPECT_EQ(Agg.numFailing(), 2u);
  EXPECT_EQ(Agg.numSuccessful(), 2u);
}

TEST(AggregatorTest, InactiveRunsExcluded) {
  SyntheticWorld World(8);
  ReportSet Set = World.emptySet();
  Set.add(SyntheticWorld::makeReport(World.Sites, true, {0}));
  Set.add(SyntheticWorld::makeReport(World.Sites, true, {0}));
  RunProfiles Runs = RunProfiles::fromReports(Set);
  RunView View = RunView::allOf(Runs);
  View.Active[0] = 0;
  Aggregates Agg = Aggregates::compute(Runs, View);
  EXPECT_EQ(Agg.counts(World.predOf(0), World.Sites).F, 1u);
  EXPECT_EQ(Agg.numFailing(), 1u);
}

TEST(AggregatorTest, RelabeledRunsCountUnderNewLabel) {
  SyntheticWorld World(8);
  ReportSet Set = World.emptySet();
  Set.add(SyntheticWorld::makeReport(World.Sites, true, {0}));
  RunProfiles Runs = RunProfiles::fromReports(Set);
  RunView View = RunView::allOf(Runs);
  View.Failed[0] = 0; // Relabel as success (Section 5, proposal 3).
  Aggregates Agg = Aggregates::compute(Runs, View);
  PredicateCounts Counts = Agg.counts(World.predOf(0), World.Sites);
  EXPECT_EQ(Counts.F, 0u);
  EXPECT_EQ(Counts.S, 1u);
}

TEST(AggregatorTest, SiteObservationSharedAcrossSitePredicates) {
  SyntheticWorld World(8);
  ReportSet Set = World.emptySet();
  Set.add(SyntheticWorld::makeReport(World.Sites, true, {0}));
  RunProfiles Runs = RunProfiles::fromReports(Set);
  RunView View = RunView::allOf(Runs);
  Aggregates Agg = Aggregates::compute(Runs, View);
  const SiteInfo &Site = World.Sites.site(0);
  // Every predicate of site 0 shares FObs/SObs, but only the first is true.
  for (uint32_t P = 0; P < Site.NumPredicates; ++P) {
    PredicateCounts Counts =
        Agg.counts(Site.FirstPredicate + P, World.Sites);
    EXPECT_EQ(Counts.FObs, 1u);
    EXPECT_EQ(Counts.F, P == 0 ? 1u : 0u);
  }
}

TEST(AggregatorTest, EmptySet) {
  SyntheticWorld World(8);
  ReportSet Set = World.emptySet();
  RunProfiles Runs = RunProfiles::fromReports(Set);
  RunView View = RunView::allOf(Runs);
  Aggregates Agg = Aggregates::compute(Runs, View);
  EXPECT_EQ(Agg.numFailing(), 0u);
  EXPECT_EQ(Agg.numSuccessful(), 0u);
  EXPECT_EQ(Agg.counts(0, World.Sites).observed(), 0u);
}

// --- Site-aligned slices ---------------------------------------------------

namespace {

/// The invariants the elimination's slice ownership rests on: the slices
/// partition the predicates and the sites in order, every cut is a site's
/// first predicate, every site lies in the slice of its predicates, and
/// slices have at least \p MinPreds predicates but the last, which has at
/// least MinPreds / 2 unless it is the only one.
void expectSiteAligned(const SiteTable &Sites, uint32_t MinPreds,
                       const std::vector<IdRange> &Slices) {
  const std::string What = std::to_string(MinPreds) + " predicates a slice";
  ASSERT_FALSE(Slices.empty()) << What;
  EXPECT_EQ(Slices.front().PredBegin, 0u) << What;
  EXPECT_EQ(Slices.front().SiteBegin, 0u) << What;
  EXPECT_EQ(Slices.back().PredEnd, Sites.numPredicates()) << What;
  EXPECT_EQ(Slices.back().SiteEnd, Sites.numSites()) << What;
  for (size_t S = 0; S < Slices.size(); ++S) {
    const IdRange &Slice = Slices[S];
    const uint32_t Size = Slice.PredEnd - Slice.PredBegin;
    if (S + 1 < Slices.size()) {
      EXPECT_GE(Size, MinPreds) << What << ", slice " << S;
      EXPECT_EQ(Slice.PredEnd, Slices[S + 1].PredBegin) << What;
      EXPECT_EQ(Slice.SiteEnd, Slices[S + 1].SiteBegin) << What;
      ASSERT_LT(Slice.SiteEnd, Sites.numSites()) << What;
      EXPECT_EQ(Sites.site(Slice.SiteEnd).FirstPredicate, Slice.PredEnd)
          << What << ": slice " << S << " does not end at a site";
    } else if (S > 0) {
      EXPECT_GE(2 * Size, MinPreds) << What << ", last slice";
    }
    for (uint32_t Pred = Slice.PredBegin; Pred < Slice.PredEnd; ++Pred) {
      const uint32_t Site = Sites.predicate(Pred).Site;
      ASSERT_TRUE(Site >= Slice.SiteBegin && Site < Slice.SiteEnd)
          << What << ": pred " << Pred << " and its site " << Site
          << " are in different slices";
    }
  }
}

} // namespace

TEST(SiteAlignedSlicesTest, CutsOnlyAtSiteBoundaries) {
  // Six predicates a site, so most slice sizes cannot end on a multiple of
  // the minimum: a cut lands on the first site boundary past it.
  SyntheticWorld World(60);
  const SiteTable &Sites = World.Sites;
  for (uint32_t MinPreds : {1u, 7u, 12u, 20u, 100u, Sites.numPredicates(),
                            Sites.numPredicates() + 1})
    expectSiteAligned(Sites, MinPreds, siteAlignedSlices(Sites, MinPreds));
  EXPECT_EQ(siteAlignedSlices(Sites, Sites.numPredicates()).size(), 1u);
  EXPECT_EQ(siteAlignedSlices(Sites, 1).size(), Sites.numSites());
}

TEST(SiteAlignedSlicesTest, ShortRemainderJoinsTheLastSlice) {
  // A slice ends at the first site boundary at or past its minimum, so it
  // overshoots by less than a site. The remainder after the last such
  // slice is a slice of its own from half the minimum up, and joins the
  // slice before it below that.
  SyntheticWorld World(60);
  const SiteTable &Sites = World.Sites;
  uint32_t MaxSite = 0;
  for (uint32_t Site = 0; Site < Sites.numSites(); ++Site)
    MaxSite = std::max(MaxSite, Sites.site(Site).NumPredicates);
  for (uint32_t MinPreds : {20u, 40u, 64u}) {
    const std::vector<IdRange> Slices = siteAlignedSlices(Sites, MinPreds);
    expectSiteAligned(Sites, MinPreds, Slices);
    ASSERT_GE(Slices.size(), 2u) << MinPreds;
    const uint32_t Last = Slices.back().PredEnd - Slices.back().PredBegin;
    EXPECT_LT(Last, MinPreds + MaxSite + MinPreds / 2) << MinPreds;
    for (size_t S = 0; S + 1 < Slices.size(); ++S)
      EXPECT_LT(Slices[S].PredEnd - Slices[S].PredBegin, MinPreds + MaxSite)
          << MinPreds << ", slice " << S;
  }
}

TEST(SiteAlignedSlicesTest, EliminationSlicesAtPaperScale) {
  // The elimination's own cut on populations of two and three slices: the
  // nominal cut at SlicePreds falls inside a site, whose predicates all go
  // to the first slice.
  for (size_t NumSites : {5000u, 8500u}) {
    SyntheticWorld World(NumSites);
    const SiteTable &Sites = World.Sites;
    const std::vector<IdRange> Slices =
        siteAlignedSlices(Sites, CauseIsolator::SlicePreds);
    expectSiteAligned(Sites, CauseIsolator::SlicePreds, Slices);
    EXPECT_EQ(Slices.size(), NumSites < 8000 ? 2u : 3u) << NumSites;
    const uint32_t Straddling =
        Sites.predicate(CauseIsolator::SlicePreds).Site;
    ASSERT_LT(Sites.site(Straddling).FirstPredicate, CauseIsolator::SlicePreds)
        << "no site straddles the nominal cut";
    EXPECT_EQ(Slices[0].PredEnd, Sites.site(Straddling).FirstPredicate +
                                     Sites.site(Straddling).NumPredicates);
  }
}
