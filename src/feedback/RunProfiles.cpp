//===- feedback/RunProfiles.cpp - Compact run-major observation store -----===//

#include "feedback/RunProfiles.h"

#include <algorithm>

using namespace sbi;

RunProfiles RunProfiles::fromReports(const ReportSet &Set) {
  RunProfiles Out(Set.numSites(), Set.numPredicates());
  Out.reserve(Set.size());
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

void RunProfiles::addRun(bool Failed, uint64_t BugMask, IdSpan Sites,
                         IdSpan Preds) {
  beginRun(Failed, BugMask);
  SiteIds.insert(SiteIds.end(), Sites.begin(), Sites.end());
  PredIds.insert(PredIds.end(), Preds.begin(), Preds.end());
}

void RunProfiles::reserve(size_t Runs, size_t SiteIdCount,
                          size_t PredIdCount) {
  SiteOffsets.reserve(Runs);
  PredOffsets.reserve(Runs);
  FailedBits.reserve(Runs);
  BugMasks.reserve(Runs);
  SiteIds.reserve(SiteIdCount);
  PredIds.reserve(PredIdCount);
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
