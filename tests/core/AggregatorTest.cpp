//===- tests/core/AggregatorTest.cpp - Count aggregation tests ------------===//

#include "core/Aggregator.h"

#include "SyntheticWorld.h"

#include <gtest/gtest.h>

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
