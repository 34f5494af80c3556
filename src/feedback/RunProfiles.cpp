//===- feedback/RunProfiles.cpp - Compact run-major observation store -----===//

#include "feedback/RunProfiles.h"

#include <algorithm>

using namespace sbi;

RunProfiles RunProfiles::fromReports(const ReportSet &Set) {
  RunProfiles Out(Set.numSites(), Set.numPredicates());
  Out.reserveRuns(Set.size());
  for (const FeedbackReport &Report : Set.reports())
    Out.addReport(Report);
  return Out;
}

void RunProfiles::beginRun(bool Failed, uint64_t BugMask) {
  SiteOffsets.push_back(SiteIds.size());
  PredOffsets.push_back(PredIds.size());
  FailedBits.push_back(Failed ? 1 : 0);
  BugMasks.push_back(BugMask);
}

void RunProfiles::addReport(const FeedbackReport &Report) {
  beginRun(Report.Failed, Report.BugMask);
  for (const auto &[Site, Count] : Report.Counts.SiteObservations)
    if (Count > 0)
      addSite(Site);
  for (const auto &[Pred, Count] : Report.Counts.TruePredicates)
    if (Count > 0)
      addPred(Pred);
}

void RunProfiles::append(RunProfiles &&Other) {
  const uint64_t SiteBase = SiteIds.size();
  const uint64_t PredBase = PredIds.size();
  for (uint64_t Offset : Other.SiteOffsets)
    SiteOffsets.push_back(SiteBase + Offset);
  for (uint64_t Offset : Other.PredOffsets)
    PredOffsets.push_back(PredBase + Offset);
  SiteIds.insert(SiteIds.end(), Other.SiteIds.begin(), Other.SiteIds.end());
  PredIds.insert(PredIds.end(), Other.PredIds.begin(), Other.PredIds.end());
  FailedBits.insert(FailedBits.end(), Other.FailedBits.begin(),
                    Other.FailedBits.end());
  BugMasks.insert(BugMasks.end(), Other.BugMasks.begin(),
                  Other.BugMasks.end());
}

void RunProfiles::reserveRuns(size_t Runs) {
  SiteOffsets.reserve(Runs);
  PredOffsets.reserve(Runs);
  FailedBits.reserve(Runs);
  BugMasks.reserve(Runs);
}

bool RunProfiles::observedTrue(size_t Run, uint32_t Pred) const {
  IdSpan Span = preds(Run);
  return std::binary_search(Span.begin(), Span.end(), Pred);
}

bool RunProfiles::siteObserved(size_t Run, uint32_t Site) const {
  IdSpan Span = sites(Run);
  return std::binary_search(Span.begin(), Span.end(), Site);
}

size_t RunProfiles::numFailing() const {
  size_t N = 0;
  for (uint8_t F : FailedBits)
    N += F;
  return N;
}
