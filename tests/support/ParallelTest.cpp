//===- tests/support/ParallelTest.cpp - Worker-thread helper tests --------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>
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

namespace {

/// Threads of this process, where the system lists them (Linux); -1
/// elsewhere.
long threadsOfThisProcess() {
  std::error_code Error;
  std::filesystem::directory_iterator Tasks("/proc/self/task", Error);
  if (Error)
    return -1;
  long N = 0;
  for (const auto &Entry : Tasks) {
    (void)Entry;
    ++N;
  }
  return N;
}

} // namespace

TEST(ParallelTest, TeamRunsEveryWorkerOncePerRoundWithTheCallerFirst) {
  // Every round calls the body exactly once per worker; worker 0 is the
  // calling thread and every other worker is a thread of its own.
  for (size_t Workers : {2u, 3u, 5u}) {
    WorkerTeam Team(Workers);
    ASSERT_EQ(Team.size(), Workers);
    for (int Round = 0; Round < 3; ++Round) {
      std::vector<int> Calls(Workers, 0);
      std::vector<std::thread::id> Ran(Workers);
      Team.run([&](size_t W) {
        ++Calls[W];
        Ran[W] = std::this_thread::get_id();
      });
      EXPECT_EQ(Calls, std::vector<int>(Workers, 1))
          << Workers << " workers, round " << Round;
      EXPECT_EQ(Ran[0], std::this_thread::get_id());
      EXPECT_EQ(std::set<std::thread::id>(Ran.begin(), Ran.end()).size(),
                Workers)
          << Workers << " workers, round " << Round;
    }
  }
}

TEST(ParallelTest, TeamReusesItsHelpersForEveryRound) {
  // The helpers start once: 200 rounds run on the same threads, and each
  // round sees what the caller wrote before it.
  WorkerTeam Team(3);
  std::vector<std::thread::id> First(3);
  Team.run([&](size_t W) { First[W] = std::this_thread::get_id(); });
  std::vector<std::thread::id> Ran(3);
  std::vector<int> Seen(3);
  for (int Round = 0; Round < 200; ++Round) {
    Team.run([&](size_t W) {
      Ran[W] = std::this_thread::get_id();
      Seen[W] = Round;
    });
    ASSERT_EQ(Ran, First) << "round " << Round;
    ASSERT_EQ(Seen, std::vector<int>(3, Round)) << "round " << Round;
  }
}

TEST(ParallelTest, TeamOfOneRunsInlineAndStartsNoThread) {
  // Zero workers means one: the caller, and no helper thread. (A thread
  // another test joined may still be leaving the process's task list, so
  // the count may fall; it must not rise.)
  const std::thread::id Caller = std::this_thread::get_id();
  for (size_t Workers : {0u, 1u}) {
    const long Before = threadsOfThisProcess();
    WorkerTeam Team(Workers);
    EXPECT_EQ(Team.size(), 1u);
    EXPECT_LE(threadsOfThisProcess(), Before) << Workers << " workers";
    int Calls = 0;
    Team.run([&](size_t W) {
      EXPECT_EQ(W, 0u);
      EXPECT_EQ(std::this_thread::get_id(), Caller);
      ++Calls;
    });
    EXPECT_EQ(Calls, 1);
  }
}

TEST(ParallelTest, TeamThatRanNoRoundJoinsCleanly) {
  // The destructor releases helpers that never ran a round, and joins
  // them; a hang here is the failure.
  for (size_t Workers : {2u, 4u}) {
    WorkerTeam Team(Workers);
    EXPECT_EQ(Team.size(), Workers);
  }
}

TEST(ParallelTest, EliminationTeamIsCappedAtTheSliceCount) {
  // The elimination sizes its team as resolveThreadCount(IndexThreads,
  // slices), so a huge request resolves to one worker per slice and no
  // team of the requested size is ever built.
  EXPECT_EQ(resolveThreadCount(size_t(1) << 40, 12), 12u);
  EXPECT_EQ(resolveThreadCount(size_t(1) << 40, 1), 1u);
  EXPECT_EQ(resolveThreadCount(0, 12),
            std::min<size_t>(12, hardwareThreadCount()));
}
