//===- bench/BenchUtil.h - Shared flags for the table benches -------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tiny command-line handling shared by the bench binaries that regenerate
/// the paper's tables: --runs=N, --seed=S and --threads=T scale each
/// experiment, and SBI_BENCH_RUNS / SBI_BENCH_SEED / SBI_BENCH_THREADS do
/// the same from the environment (so `for b in build/bench/*; do $b; done`
/// can be scaled globally). A malformed value, or any other argument,
/// exits with status 2.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_BENCH_BENCHUTIL_H
#define SBI_BENCH_BENCHUTIL_H

#include "support/StringUtils.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace sbi {

struct BenchConfig {
  size_t Runs;
  uint64_t Seed;
  /// Campaign worker threads (0 = one per hardware thread). Results are
  /// bit-identical for any value; this only changes wall time.
  size_t Threads;
};

/// Parses \p Text, the value of flag or environment variable \p Name, as
/// an unsigned decimal integer. A malformed value ("abc", "12x", "-1") ends
/// the program with status 2 instead of being misread.
inline uint64_t benchNumber(const char *Name, std::string_view Text) {
  uint64_t Value = 0;
  if (!parseUnsigned(Text, Value)) {
    std::fprintf(stderr,
                 "bad value '%.*s' for %s: expected an unsigned decimal "
                 "integer\n",
                 static_cast<int>(Text.size()), Text.data(), Name);
    std::exit(2);
  }
  return Value;
}

inline BenchConfig parseBenchConfig(int Argc, char **Argv,
                                    size_t DefaultRuns) {
  BenchConfig Config{DefaultRuns, 20050612, 0};
  if (const char *Env = std::getenv("SBI_BENCH_RUNS"))
    Config.Runs = benchNumber("SBI_BENCH_RUNS", Env);
  if (const char *Env = std::getenv("SBI_BENCH_SEED"))
    Config.Seed = benchNumber("SBI_BENCH_SEED", Env);
  if (const char *Env = std::getenv("SBI_BENCH_THREADS"))
    Config.Threads = benchNumber("SBI_BENCH_THREADS", Env);
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--runs=", 7) == 0)
      Config.Runs = benchNumber("--runs", Argv[I] + 7);
    else if (std::strncmp(Argv[I], "--seed=", 7) == 0)
      Config.Seed = benchNumber("--seed", Argv[I] + 7);
    else if (std::strncmp(Argv[I], "--threads=", 10) == 0)
      Config.Threads = benchNumber("--threads", Argv[I] + 10);
    else {
      std::fprintf(stderr, "unknown option '%s'\n", Argv[I]);
      std::exit(2);
    }
  }
  if (Config.Runs == 0)
    Config.Runs = DefaultRuns;
  return Config;
}

} // namespace sbi

#endif // SBI_BENCH_BENCHUTIL_H
