//===- feedback/Report.cpp - Labeled feedback reports ---------------------===//

#include "feedback/Report.h"

#include <algorithm>

using namespace sbi;

bool FeedbackReport::observedTrue(uint32_t PredId) const {
  const auto &V = Counts.TruePredicates;
  auto It = std::lower_bound(
      V.begin(), V.end(), PredId,
      [](const std::pair<uint32_t, uint32_t> &Entry, uint32_t Id) {
        return Entry.first < Id;
      });
  return It != V.end() && It->first == PredId && It->second > 0;
}

bool FeedbackReport::siteObserved(uint32_t SiteId) const {
  const auto &V = Counts.SiteObservations;
  auto It = std::lower_bound(
      V.begin(), V.end(), SiteId,
      [](const std::pair<uint32_t, uint32_t> &Entry, uint32_t Id) {
        return Entry.first < Id;
      });
  return It != V.end() && It->first == SiteId && It->second > 0;
}

size_t ReportSet::numFailing() const {
  size_t N = 0;
  for (const FeedbackReport &R : Reports)
    N += R.Failed ? 1 : 0;
  return N;
}
