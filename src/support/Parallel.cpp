//===- support/Parallel.cpp - Worker-thread helpers -----------------------===//

#include "support/Parallel.h"

#include <algorithm>
#include <thread>

using namespace sbi;

size_t sbi::hardwareThreadCount() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

size_t sbi::resolveThreadCount(size_t Requested, size_t MaxUseful) {
  size_t Threads = Requested == 0 ? hardwareThreadCount() : Requested;
  return std::min(Threads, std::max<size_t>(1, MaxUseful));
}

std::vector<size_t> sbi::alignedChunks(size_t NumItems, size_t Workers) {
  std::vector<size_t> Bounds;
  Bounds.reserve(Workers + 1);
  size_t PerChunk = (NumItems + Workers - 1) / Workers;
  PerChunk = (PerChunk + 63) & ~size_t(63);
  for (size_t W = 0; W <= Workers; ++W)
    Bounds.push_back(std::min(NumItems, W * PerChunk));
  return Bounds;
}

WorkerTeam::WorkerTeam(size_t Workers)
    : Sync(static_cast<std::ptrdiff_t>(std::max<size_t>(1, Workers))) {
  Helpers.reserve(Workers > 1 ? Workers - 1 : 0);
  for (size_t W = 1; W < Workers; ++W)
    Helpers.emplace_back([this, W] { helperLoop(W); });
}

WorkerTeam::~WorkerTeam() {
  if (Helpers.empty())
    return;
  Stopping = true;
  Sync.arrive_and_wait();
  for (std::thread &Helper : Helpers)
    Helper.join();
}

void WorkerTeam::helperLoop(size_t W) {
  for (;;) {
    Sync.arrive_and_wait();
    if (Stopping)
      return;
    Call(Round, W);
    Sync.arrive_and_wait();
  }
}
