//===- tests/support/ParallelTest.cpp - Worker-thread helper tests --------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <vector>

using namespace sbi;

TEST(ParallelTest, HardwareThreadCountIsNeverZero) {
  // std::thread::hardware_concurrency() is allowed to return 0; the
  // wrapper must clamp so "one worker per hardware thread" never means
  // zero workers.
  EXPECT_GE(hardwareThreadCount(), 1u);
}

TEST(ParallelTest, ResolveThreadCountHonorsExplicitRequests) {
  EXPECT_EQ(resolveThreadCount(3, 100), 3u);
  EXPECT_EQ(resolveThreadCount(1, 100), 1u);
}

TEST(ParallelTest, ResolveThreadCountCapsAtUsefulWork) {
  EXPECT_EQ(resolveThreadCount(16, 4), 4u);
  // Even with no work items the resolved count stays positive so loops
  // structured as "spawn N workers" remain well-formed.
  EXPECT_EQ(resolveThreadCount(16, 0), 1u);
  EXPECT_GE(resolveThreadCount(0, 0), 1u);
}

TEST(ParallelTest, ZeroMeansHardwareThreads) {
  EXPECT_EQ(resolveThreadCount(0, 1u << 20), hardwareThreadCount());
}

TEST(ParallelTest, RunWorkersCallsEveryWorkerOnce) {
  for (size_t Workers : {1u, 2u, 5u}) {
    std::vector<int> Calls(Workers, 0);
    runWorkers(Workers, [&](size_t W) { ++Calls[W]; });
    EXPECT_EQ(Calls, std::vector<int>(Workers, 1)) << Workers << " workers";
  }
}

TEST(ParallelTest, AlignedChunksCoverTheItemsOnWordBoundaries) {
  for (size_t Items : {0u, 1u, 64u, 100u, 4096u, 9000u})
    for (size_t Workers : {1u, 2u, 3u, 8u}) {
      const std::vector<size_t> Bounds = alignedChunks(Items, Workers);
      ASSERT_EQ(Bounds.size(), Workers + 1);
      EXPECT_EQ(Bounds.front(), 0u);
      EXPECT_EQ(Bounds.back(), Items);
      for (size_t W = 0; W < Workers; ++W) {
        EXPECT_LE(Bounds[W], Bounds[W + 1]);
        EXPECT_TRUE(Bounds[W + 1] == Items || Bounds[W + 1] % 64 == 0)
            << Items << " items, " << Workers << " workers, chunk " << W;
      }
    }
}
