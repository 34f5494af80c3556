//===- tests/feedback/ReportTest.cpp - Feedback report tests --------------===//

#include "feedback/Report.h"

#include <gtest/gtest.h>

using namespace sbi;

namespace {

FeedbackReport makeReport(bool Failed,
                          std::vector<std::pair<uint32_t, uint32_t>> Sites,
                          std::vector<std::pair<uint32_t, uint32_t>> Preds) {
  FeedbackReport Report;
  Report.Failed = Failed;
  Report.Counts.SiteObservations = std::move(Sites);
  Report.Counts.TruePredicates = std::move(Preds);
  return Report;
}

} // namespace

TEST(FeedbackReportTest, ObservedTrueBinarySearch) {
  FeedbackReport Report =
      makeReport(false, {{0, 1}}, {{3, 2}, {7, 1}, {100, 5}});
  EXPECT_TRUE(Report.observedTrue(3));
  EXPECT_TRUE(Report.observedTrue(7));
  EXPECT_TRUE(Report.observedTrue(100));
  EXPECT_FALSE(Report.observedTrue(0));
  EXPECT_FALSE(Report.observedTrue(5));
  EXPECT_FALSE(Report.observedTrue(101));
}

TEST(FeedbackReportTest, ZeroCountIsNotObservedTrue) {
  FeedbackReport Report = makeReport(false, {}, {{4, 0}});
  EXPECT_FALSE(Report.observedTrue(4));
}

TEST(FeedbackReportTest, SiteObserved) {
  FeedbackReport Report = makeReport(false, {{2, 3}, {9, 1}}, {});
  EXPECT_TRUE(Report.siteObserved(2));
  EXPECT_TRUE(Report.siteObserved(9));
  EXPECT_FALSE(Report.siteObserved(5));
}

TEST(FeedbackReportTest, BugMask) {
  FeedbackReport Report;
  Report.BugMask = FeedbackReport::bugBit(1) | FeedbackReport::bugBit(9);
  EXPECT_TRUE(Report.hasBug(1));
  EXPECT_TRUE(Report.hasBug(9));
  EXPECT_FALSE(Report.hasBug(2));
}

TEST(FeedbackReportTest, BugBitEnforcesOneBased63Contract) {
  // Regression: bugBit used to mask with `BugId & 63`, so id 64 aliased to
  // bit 0 and id 0 was representable despite the documented 1-based
  // contract. Out-of-range ids must map to no bit at all.
  EXPECT_EQ(FeedbackReport::bugBit(0), 0u);
  EXPECT_EQ(FeedbackReport::bugBit(64), 0u);
  EXPECT_EQ(FeedbackReport::bugBit(65), 0u);
  EXPECT_EQ(FeedbackReport::bugBit(-1), 0u);
  EXPECT_EQ(FeedbackReport::bugBit(127), 0u); // Used to alias id 63.
  for (int Id = 1; Id <= 63; ++Id)
    EXPECT_EQ(FeedbackReport::bugBit(Id), 1ull << Id) << "id " << Id;

  FeedbackReport Report;
  Report.BugMask = FeedbackReport::bugBit(1) | FeedbackReport::bugBit(63);
  EXPECT_FALSE(Report.hasBug(64)) << "id 64 must not alias another bug";
  EXPECT_FALSE(Report.hasBug(0));
  EXPECT_FALSE(Report.hasBug(-1));
  EXPECT_TRUE(Report.hasBug(63));
  EXPECT_FALSE(Report.hasBug(127)) << "id 127 must not alias id 63";
}

TEST(ReportSetTest, Counting) {
  ReportSet Set(10, 60);
  Set.add(makeReport(true, {}, {}));
  Set.add(makeReport(false, {}, {}));
  Set.add(makeReport(true, {}, {}));
  EXPECT_EQ(Set.size(), 3u);
  EXPECT_EQ(Set.numFailing(), 2u);
  EXPECT_EQ(Set.numSuccessful(), 1u);
  EXPECT_EQ(Set.numSites(), 10u);
  EXPECT_EQ(Set.numPredicates(), 60u);
}
