//===- feedback/Report.cpp - Labeled feedback reports ---------------------===//

#include "feedback/Report.h"

using namespace sbi;

size_t ReportSet::numFailing() const {
  size_t N = 0;
  for (const FeedbackReport &R : Reports)
    N += R.Failed ? 1 : 0;
  return N;
}
