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
/// analysis, the one spawn/join loop the builds and the ingest run their
/// workers on, and the persistent team the elimination loop runs its many
/// short rounds on. std::thread::hardware_concurrency() is allowed to
/// return 0 when the value is not computable; every caller must treat that
/// as 1 so no parallel loop ever launches zero workers.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_SUPPORT_PARALLEL_H
#define SBI_SUPPORT_PARALLEL_H

#include <barrier>
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

/// A fixed team of workers for many short parallel rounds, where starting
/// threads per round would cost more than the round: the elimination loop
/// runs one round per selection. Workers - 1 helper threads start once and
/// wait on one std::barrier; the calling thread is worker 0. A round is two
/// barrier phases: the first releases the helpers into the round's body,
/// the second waits for every worker to finish it. A team of one starts no
/// thread and runs every round inline. The destructor releases the helpers
/// one last time to exit and joins them.
class WorkerTeam {
public:
  explicit WorkerTeam(size_t Workers);
  ~WorkerTeam();
  WorkerTeam(const WorkerTeam &) = delete;
  WorkerTeam &operator=(const WorkerTeam &) = delete;

  size_t size() const { return Helpers.size() + 1; }

  /// Runs \p Body(W) once for every worker W in [0, size()), W = 0 on the
  /// calling thread, and returns when every call has returned. Everything
  /// the caller wrote before the round is visible to the body, and
  /// everything the body wrote is visible to the caller after it.
  template <typename Fn> void run(const Fn &Body) {
    if (Helpers.empty()) {
      Body(size_t(0));
      return;
    }
    Round = &Body;
    Call = [](const void *Erased, size_t W) {
      (*static_cast<const Fn *>(Erased))(W);
    };
    Sync.arrive_and_wait();
    Body(size_t(0));
    Sync.arrive_and_wait();
  }

private:
  void helperLoop(size_t W);

  std::barrier<> Sync;
  /// The current round's body, type-erased; written only between rounds.
  const void *Round = nullptr;
  void (*Call)(const void *, size_t) = nullptr;
  bool Stopping = false;
  std::vector<std::thread> Helpers;
};

/// Boundaries of \p Workers contiguous chunks of [0, \p NumItems), each
/// but the last a multiple of 64 items long, so chunks of a bit-matrix's
/// columns own disjoint words: Workers + 1 entries, from 0 to NumItems.
/// Trailing chunks may be empty.
std::vector<size_t> alignedChunks(size_t NumItems, size_t Workers);

} // namespace sbi

#endif // SBI_SUPPORT_PARALLEL_H
