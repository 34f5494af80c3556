//===- tests/integration/SamplingPinTest.cpp - Fixed-seed sampler pins ----===//
//
// The sampler's draws, pinned to exact values. EngineEquivalenceTest holds
// the interpreter and the VM to each other, but both engines go through the
// same ReportCollector, so a collector that drew differently — yet fairly —
// would pass there. These tests hold sampled VM campaigns to digests of
// their reports in a fixed text layout, and the VM's observer traffic to
// exact call counts. The values were recorded from the per-site countdown
// sampler the per-node countdown replaced; any change to when a site
// draws, samples or hands a reach to the observer changes them.
//
//===----------------------------------------------------------------------===//

#include "instrument/CallCounter.h"

#include "harness/Campaign.h"
#include "instrument/Collector.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <string>

using namespace sbi;

namespace {

/// 64-bit FNV-1a over \p Bytes.
uint64_t fnv1a64(const std::string &Bytes) {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    Hash ^= C;
    Hash *= 0x100000001b3ULL;
  }
  return Hash;
}

/// \p Set in the text layout the digests were recorded over: a header with
/// the dimensions, then per report one line of labels and provenance and
/// one line each of nonzero (site, count) and (predicate, count) pairs.
std::string pinnedText(const ReportSet &Set) {
  std::string Out = "SBI-REPORTS v1\n";
  Out += format("%u %u %zu\n", Set.numSites(), Set.numPredicates(),
                Set.size());
  auto pairs = [&](char Tag, const std::vector<std::pair<uint32_t, uint32_t>>
                                 &Pairs) {
    std::string Line;
    size_t Nonzero = 0;
    for (const auto &[Id, Count] : Pairs)
      if (Count > 0) {
        Line += format(" %u:%u", Id, Count);
        ++Nonzero;
      }
    Out += format("%c %zu", Tag, Nonzero) + Line + "\n";
  };
  for (const FeedbackReport &R : Set.reports()) {
    Out += format("R %d %d %d %llu %s\n", R.Failed ? 1 : 0,
                  static_cast<int>(R.Trap), R.ExitCode,
                  static_cast<unsigned long long>(R.BugMask),
                  R.StackSignature.empty() ? "-" : R.StackSignature.c_str());
    pairs('S', R.Counts.SiteObservations);
    pairs('P', R.Counts.TruePredicates);
  }
  return Out;
}

struct DigestCase {
  const char *Subject;
  const char *Mode; ///< "1/100", "1/1000", "adaptive" or "1/100+prune".
  uint64_t Digest;
};

CampaignOptions pinOptions(const std::string &Mode) {
  CampaignOptions Options;
  Options.NumRuns = 100;
  Options.Seed = 1857;
  Options.Exec = Engine::VM;
  Options.TrainingRuns = 60;
  if (Mode == "adaptive") {
    Options.Mode = SamplingMode::Adaptive;
  } else {
    Options.Mode = SamplingMode::Uniform;
    Options.UniformRate = Mode == "1/1000" ? 0.001 : 0.01;
  }
  Options.StaticPrune = Mode == "1/100+prune";
  return Options;
}

/// Total observer calls the VM makes over 100 runs of \p Subj, every site
/// sampled at \p Rate.
uint64_t vmObserverCalls(const Subject &Subj, double Rate) {
  auto Prog = compileSubjectSource(Subj.Source, Subj.Name);
  CompiledProgram Code = compileProgram(*Prog);
  SiteTable Sites = SiteTable::build(*Prog);
  ReportCollector Collector(Sites,
                            SamplingPlan::uniform(Sites.numSites(), Rate));
  CallCounter Counter(Collector);
  Rng Seeder(0x5A3E);
  for (int Run = 0; Run < 100; ++Run) {
    Rng InputRng(Seeder.next());
    RunConfig Config;
    Config.Args = Subj.GenerateInput(InputRng);
    Config.OverrunPad = static_cast<size_t>(InputRng.nextBelow(8));
    Config.Observer = &Counter;
    Collector.beginRun(Seeder.next());
    runCompiled(Code, Config);
    Collector.takeReport();
  }
  return Counter.Calls;
}

} // namespace

TEST(SamplingPinTest, CampaignReportDigests) {
  const DigestCase Cases[] = {
      {"moss", "1/100", 0x78d0c2ffe23ec51dULL},
      {"moss", "1/1000", 0xd581fd020b523d4dULL},
      {"moss", "adaptive", 0x2651aca5ddcb4cc7ULL},
      {"moss", "1/100+prune", 0xd9eeddd79aa5b808ULL},
      {"ccrypt", "1/100", 0xd6896a0af1fcd58bULL},
      {"ccrypt", "1/1000", 0x92a03e1ce0b57b9cULL},
      {"ccrypt", "adaptive", 0xee68f6eb69060180ULL},
      {"bc", "1/100", 0x8e5968814b437584ULL},
      {"bc", "1/1000", 0x2003a07a2ff3a3daULL},
      {"bc", "adaptive", 0xcdbb391724981f4cULL},
      {"exif", "1/100", 0x5c1329633670122bULL},
      {"exif", "1/1000", 0x69cc46f08a5fc8c9ULL},
      {"exif", "adaptive", 0xcfa934e57ad160fcULL},
      {"rhythmbox", "1/100", 0x0dfdf8f9f654f63eULL},
      {"rhythmbox", "1/1000", 0xef70ab84d3ca5d99ULL},
      {"rhythmbox", "adaptive", 0xa84547600e2afd29ULL},
  };
  for (const DigestCase &Case : Cases) {
    const Subject *Subj = findSubject(Case.Subject);
    ASSERT_NE(Subj, nullptr) << Case.Subject;
    CampaignResult Result = runCampaign(*Subj, pinOptions(Case.Mode));
    ASSERT_TRUE(Result.Error.empty()) << Result.Error;
    ASSERT_EQ(Result.Reports.size(), 100u);
    uint64_t Digest = fnv1a64(pinnedText(Result.Reports));
    EXPECT_EQ(Digest, Case.Digest) << Case.Subject << " " << Case.Mode;
  }
}

TEST(SamplingPinTest, VmObserverCalls) {
  struct CallCase {
    const char *Subject;
    uint64_t AtOneIn100;
    uint64_t AtOneIn1000;
  };
  const CallCase Cases[] = {
      {"moss", 309278, 44811},
      {"ccrypt", 10208, 4193},
      {"bc", 69343, 16890},
      {"exif", 9771, 5153},
      {"rhythmbox", 12411, 7514},
  };
  for (const CallCase &Case : Cases) {
    const Subject *Subj = findSubject(Case.Subject);
    ASSERT_NE(Subj, nullptr) << Case.Subject;
    uint64_t At100 = vmObserverCalls(*Subj, 0.01);
    uint64_t At1000 = vmObserverCalls(*Subj, 0.001);
    EXPECT_EQ(At100, Case.AtOneIn100) << Case.Subject;
    EXPECT_EQ(At1000, Case.AtOneIn1000) << Case.Subject;
  }
}
