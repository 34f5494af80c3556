//===- support/Parallel.h - Worker-thread helpers -------------------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the "0 means one worker per hardware thread"
/// convention used by the campaign driver, the corpus ingest and the
/// analysis builds, and the one spawn/join loop they run their workers on.
/// std::thread::hardware_concurrency() is allowed to return 0 when the
/// value is not computable; every caller must treat that as 1 so no
/// parallel loop ever launches zero workers.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_SUPPORT_PARALLEL_H
#define SBI_SUPPORT_PARALLEL_H

#include <cstddef>
#include <thread>
#include <vector>

namespace sbi {

/// Number of hardware threads, never less than 1.
size_t hardwareThreadCount();

/// Resolves a user-facing thread-count option: 0 means "one per hardware
/// thread"; the result is additionally capped at \p MaxUseful (the number
/// of independent work items) and is always at least 1.
size_t resolveThreadCount(size_t Requested, size_t MaxUseful);

/// Runs \p Body(W) for every worker W in [0, \p Workers): inline on the
/// calling thread when there is one worker, otherwise one thread each,
/// all joined before returning.
template <typename Fn> void runWorkers(size_t Workers, const Fn &Body) {
  if (Workers <= 1) {
    Body(size_t(0));
    return;
  }
  std::vector<std::thread> Pool;
  Pool.reserve(Workers);
  for (size_t W = 0; W < Workers; ++W)
    Pool.emplace_back([&Body, W] { Body(W); });
  for (std::thread &Worker : Pool)
    Worker.join();
}

/// Boundaries of \p Workers contiguous chunks of [0, \p NumItems), each
/// but the last a multiple of 64 items long, so chunks of a bit-matrix's
/// columns own disjoint words: Workers + 1 entries, from 0 to NumItems.
/// Trailing chunks may be empty.
std::vector<size_t> alignedChunks(size_t NumItems, size_t Workers);

} // namespace sbi

#endif // SBI_SUPPORT_PARALLEL_H
