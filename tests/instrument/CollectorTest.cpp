//===- tests/instrument/CollectorTest.cpp - Report collection tests -------===//

#include "instrument/Collector.h"

#include "instrument/CallCounter.h"

#include "harness/Campaign.h"
#include "lang/Sema.h"
#include "runtime/Interp.h"
#include "support/Random.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <map>

using namespace sbi;

namespace {

struct Harness {
  std::unique_ptr<Program> Prog;
  SiteTable Sites;

  explicit Harness(std::string_view Source) {
    std::vector<Diagnostic> Diags;
    Prog = parseAndAnalyze(Source, Diags);
    EXPECT_TRUE(Prog != nullptr) << renderDiagnostics(Diags);
    Sites = SiteTable::build(*Prog);
  }

  RawReport collect(ReportCollector &Collector, uint64_t Seed,
                    std::vector<std::string> Args = {}) {
    RunConfig Config;
    Config.Args = std::move(Args);
    Config.OverrunPad = 4;
    Config.Observer = &Collector;
    Collector.beginRun(Seed);
    runProgram(*Prog, Config);
    return Collector.takeReport();
  }

  /// One VM run feeding \p Collector, through \p Via when it is given.
  RawReport collectOnVM(ReportCollector &Collector, uint64_t Seed,
                        ExecutionObserver *Via = nullptr) {
    CompiledProgram Code = compileProgram(*Prog);
    RunConfig Config;
    Config.OverrunPad = 4;
    Config.Observer = Via ? Via : &Collector;
    Collector.beginRun(Seed);
    runCompiled(Code, Config);
    return Collector.takeReport();
  }

  /// Predicate id by exact text, asserting it exists.
  uint32_t predByText(const std::string &Text) {
    for (const PredicateInfo &Pred : Sites.predicates())
      if (Pred.Text == Text)
        return Pred.Id;
    ADD_FAILURE() << "no predicate with text: " << Text;
    return 0;
  }

  static uint32_t countFor(const RawReport &Report, uint32_t PredId) {
    for (const auto &[Pred, Count] : Report.TruePredicates)
      if (Pred == PredId)
        return Count;
    return 0;
  }

  /// Sums true-counts over ALL predicates sharing \p Text: the same
  /// predicate text can appear at several sites (e.g. one returns site per
  /// call expression).
  uint32_t countForText(const RawReport &Report, const std::string &Text) {
    uint32_t Total = 0;
    for (const PredicateInfo &Pred : Sites.predicates())
      if (Pred.Text == Text)
        Total += countFor(Report, Pred.Id);
    return Total;
  }
};

} // namespace

TEST(CollectorTest, FullMonitoringCountsBranchOutcomesExactly) {
  Harness H(R"(fn main() {
  for (int i = 0; i < 7; i = i + 1) {
    if (i % 2 == 0) { println(i); }
  }
})");
  ReportCollector Collector(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  RawReport Report = H.collect(Collector, 1);
  // The if executes 7 times: true for i = 0,2,4,6 (4), false for 1,3,5 (3).
  EXPECT_EQ(Harness::countFor(Report, H.predByText("(i % 2) == 0 is TRUE")),
            4u);
  EXPECT_EQ(Harness::countFor(Report, H.predByText("(i % 2) == 0 is FALSE")),
            3u);
  // The loop condition: true 7 times, false once.
  EXPECT_EQ(Harness::countFor(Report, H.predByText("i < 7 is TRUE")), 7u);
  EXPECT_EQ(Harness::countFor(Report, H.predByText("i < 7 is FALSE")), 1u);
}

TEST(CollectorTest, ReturnsSchemeObservesSign) {
  Harness H(R"(
fn signof(int x) {
  if (x < 0) { return 0 - 1; }
  if (x > 0) { return 1; }
  return 0;
}
fn main() {
  int a = signof(0 - 5);
  int b = signof(9);
  int c = signof(0);
})");
  ReportCollector Collector(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  RawReport Report = H.collect(Collector, 1);
  // Three call sites, each returning a different sign exactly once; the
  // text-keyed counts aggregate across the three sites.
  EXPECT_EQ(H.countForText(Report, "signof < 0"), 1u);
  EXPECT_EQ(H.countForText(Report, "signof > 0"), 1u);
  EXPECT_EQ(H.countForText(Report, "signof == 0"), 1u);
  EXPECT_EQ(H.countForText(Report, "signof != 0"), 2u);
}

TEST(CollectorTest, ScalarPairsCompareAgainstVariables) {
  // 'limit' and 'value' are declared without initializers so only the
  // plain assignment mints pair sites, keeping each text unique.
  Harness H(R"(fn main() {
  int limit;
  int value;
  limit = 10;
  value = 25;
})");
  ReportCollector Collector(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  RawReport Report = H.collect(Collector, 1);
  EXPECT_EQ(H.countForText(Report, "value > limit"), 1u);
  EXPECT_EQ(H.countForText(Report, "value < limit"), 0u);
  EXPECT_EQ(H.countForText(Report, "value >= limit"), 1u);
  EXPECT_EQ(H.countForText(Report, "value != limit"), 1u);
  EXPECT_EQ(H.countForText(Report, "value == limit"), 0u);
}

TEST(CollectorTest, ScalarPairsSeeDeclarationDefaults) {
  // Declarations initialize their slot immediately (int -> 0), so when
  // 'limit = 10' executes, 'value' reads as its default 0 and the pair is
  // observed against it. Lexically visible ints are always initialized.
  Harness H(R"(fn main() {
  int limit;
  int value;
  limit = 10;
  value = 25;
})");
  ReportCollector Collector(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  RawReport Report = H.collect(Collector, 1);
  EXPECT_EQ(H.countForText(Report, "limit > value"), 1u);  // 10 > 0
  EXPECT_EQ(H.countForText(Report, "limit != value"), 1u);
  EXPECT_EQ(H.countForText(Report, "limit < value"), 0u);
}

TEST(CollectorTest, ScalarPairsCompareAgainstConstants) {
  Harness H(R"(fn main() {
  int x;
  x = 10;
})");
  ReportCollector Collector(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  RawReport Report = H.collect(Collector, 1);
  // The only constant in main is 10; the assignment compares the new value
  // against it.
  EXPECT_EQ(H.countForText(Report, "x == 10"), 1u);
  EXPECT_EQ(H.countForText(Report, "x >= 10"), 1u);
  EXPECT_EQ(H.countForText(Report, "x <= 10"), 1u);
  EXPECT_EQ(H.countForText(Report, "x < 10"), 0u);
  EXPECT_EQ(H.countForText(Report, "x > 10"), 0u);
  EXPECT_EQ(H.countForText(Report, "x != 10"), 0u);
}

TEST(CollectorTest, SiteObservationCountsMatchReaches) {
  Harness H(R"(fn main() {
  for (int i = 0; i < 4; i = i + 1) { }
})");
  ReportCollector Collector(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  RawReport Report = H.collect(Collector, 1);
  // Find the for-condition branch site: observed 5 times (4 true + 1
  // false).
  bool Found = false;
  for (const auto &[Site, Count] : Report.SiteObservations)
    if (H.Sites.site(Site).SchemeKind == Scheme::Branches) {
      EXPECT_EQ(Count, 5u);
      Found = true;
    }
  EXPECT_TRUE(Found);
}

TEST(CollectorTest, ReportsAreSortedAndUnique) {
  Harness H(R"(fn main() {
  int a = 0;
  for (int i = 0; i < 20; i = i + 1) { a = a + i; }
  println(a);
})");
  ReportCollector Collector(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  RawReport Report = H.collect(Collector, 1);
  for (size_t I = 1; I < Report.TruePredicates.size(); ++I)
    EXPECT_LT(Report.TruePredicates[I - 1].first,
              Report.TruePredicates[I].first);
  for (size_t I = 1; I < Report.SiteObservations.size(); ++I)
    EXPECT_LT(Report.SiteObservations[I - 1].first,
              Report.SiteObservations[I].first);
}

TEST(CollectorTest, CollectorIsReusableAcrossRuns) {
  Harness H("fn main() { if (1 < 2) { println(1); } }");
  ReportCollector Collector(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  RawReport First = H.collect(Collector, 1);
  RawReport Second = H.collect(Collector, 2);
  ASSERT_EQ(First.TruePredicates.size(), Second.TruePredicates.size());
  for (size_t I = 0; I < First.TruePredicates.size(); ++I) {
    EXPECT_EQ(First.TruePredicates[I], Second.TruePredicates[I]);
  }
}

TEST(CollectorTest, SamplingIsDeterministicPerSeed) {
  Harness H(R"(fn main() {
  int a = 0;
  for (int i = 0; i < 200; i = i + 1) { a = a + 1; }
  println(a);
})");
  ReportCollector A(H.Sites, SamplingPlan::uniform(H.Sites.numSites(), 0.1));
  ReportCollector B(H.Sites, SamplingPlan::uniform(H.Sites.numSites(), 0.1));
  RawReport RA = H.collect(A, 42);
  RawReport RB = H.collect(B, 42);
  EXPECT_EQ(RA.TruePredicates, RB.TruePredicates);
  EXPECT_EQ(RA.SiteObservations, RB.SiteObservations);
}

TEST(CollectorTest, SamplingRateIsRespectedOnAverage) {
  Harness H(R"(fn main() {
  int a = 0;
  for (int i = 0; i < 1000; i = i + 1) { a = a + 1; }
  println(a);
})");
  const double Rate = 0.05;
  ReportCollector Collector(H.Sites,
                            SamplingPlan::uniform(H.Sites.numSites(), Rate));
  // The loop condition site is reached 1001 times per run; across 40 runs,
  // the observed count should be close to 1001 * 40 * rate.
  uint64_t TotalObserved = 0;
  const int Runs = 40;
  for (int Run = 0; Run < Runs; ++Run) {
    RawReport Report =
        H.collect(Collector, static_cast<uint64_t>(Run) + 100);
    for (const auto &[Site, Count] : Report.SiteObservations)
      if (H.Sites.site(Site).SchemeKind == Scheme::Branches)
        TotalObserved += Count;
  }
  double Expected = 1001.0 * Runs * Rate;
  EXPECT_GT(static_cast<double>(TotalObserved), Expected * 0.7);
  EXPECT_LT(static_cast<double>(TotalObserved), Expected * 1.3);
}

TEST(CollectorTest, ZeroRateObservesNothing) {
  Harness H("fn main() { if (1 < 2) { println(1); } }");
  ReportCollector Collector(H.Sites,
                            SamplingPlan::uniform(H.Sites.numSites(), 0.0));
  RawReport Report = H.collect(Collector, 7);
  EXPECT_TRUE(Report.TruePredicates.empty());
  EXPECT_TRUE(Report.SiteObservations.empty());
}

TEST(CollectorTest, JointObservationWithinASite) {
  // When a six-way site is sampled, consistent predicates must be observed
  // together: for any sampled return observation, exactly one of <,==,>
  // and the implied non-strict forms hold.
  Harness H(R"(
fn f(int x) { return x; }
fn main() {
  int a = f(3);
  int b = f(0 - 3);
  int c = f(0);
})");
  ReportCollector Collector(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  RawReport Report = H.collect(Collector, 1);
  // Each of the 3 call sites observed once; per observation exactly 3 of
  // the 6 predicates hold (e.g. >0 implies >=0 and !=0).
  std::map<uint32_t, uint32_t> TrueBySite;
  for (const auto &[Pred, Count] : Report.TruePredicates) {
    const PredicateInfo &Info = H.Sites.predicate(Pred);
    if (H.Sites.site(Info.Site).SchemeKind == Scheme::Returns)
      TrueBySite[Info.Site] += Count;
  }
  for (const auto &[Site, Count] : TrueBySite)
    EXPECT_EQ(Count, 3u) << "site " << Site;
}

namespace {

/// Observation count for \p Site in \p Report (0 when absent).
uint32_t siteCount(const RawReport &Report, uint32_t Site) {
  for (const auto &[S, Count] : Report.SiteObservations)
    if (S == Site)
      return Count;
  return 0;
}

} // namespace

TEST(CollectorTest, EnabledMaskSilencesExactlyTheMaskedSites) {
  Harness H(R"(fn main() {
  for (int i = 0; i < 30; i = i + 1) {
    if (i % 3 == 0) { println(i); }
  }
})");
  // Mask out every even-numbered site.
  std::vector<uint8_t> Mask(H.Sites.numSites(), 1);
  for (uint32_t S = 0; S < H.Sites.numSites(); S += 2)
    Mask[S] = 0;

  ReportCollector Full(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  ReportCollector Masked(H.Sites, SamplingPlan::full(H.Sites.numSites()),
                         &Mask);
  RawReport A = H.collect(Full, 11);
  RawReport B = H.collect(Masked, 11);
  for (uint32_t S = 0; S < H.Sites.numSites(); ++S) {
    if (Mask[S]) {
      EXPECT_EQ(siteCount(B, S), siteCount(A, S)) << "site " << S;
    } else {
      EXPECT_EQ(siteCount(B, S), 0u) << "site " << S;
    }
  }
}

TEST(CollectorTest, MaskingDoesNotPerturbRetainedSitesUnderSampling) {
  // The regression the per-site RNG streams exist to prevent: each site
  // draws its skip sequence from its own (run seed, site id) stream, so
  // masking any subset of sites leaves every retained site's sampling
  // decisions — and therefore its counts — bit-identical.
  Harness H(R"(fn main() {
  int a = 0;
  for (int i = 0; i < 400; i = i + 1) {
    if (i % 2 == 0) { a = a + i; }
    if (i % 7 == 0) { a = a + 1; }
  }
  println(a);
})");
  std::vector<uint8_t> Mask(H.Sites.numSites(), 1);
  for (uint32_t S = 0; S < H.Sites.numSites(); S += 3)
    Mask[S] = 0;

  for (uint64_t Seed : {1ull, 77ull, 4096ull}) {
    ReportCollector Full(H.Sites,
                         SamplingPlan::uniform(H.Sites.numSites(), 0.1));
    ReportCollector Masked(
        H.Sites, SamplingPlan::uniform(H.Sites.numSites(), 0.1), &Mask);
    RawReport A = H.collect(Full, Seed);
    RawReport B = H.collect(Masked, Seed);

    // Retained sites: identical observation counts and identical
    // true-predicate counts.
    for (const auto &[Site, Count] : B.SiteObservations) {
      EXPECT_TRUE(Mask[Site]) << "masked site " << Site << " observed";
      EXPECT_EQ(Count, siteCount(A, Site)) << "seed " << Seed;
    }
    for (const auto &[Pred, Count] : B.TruePredicates) {
      const PredicateInfo &Info = H.Sites.predicate(Pred);
      EXPECT_TRUE(Mask[Info.Site]);
      EXPECT_EQ(Count, Harness::countFor(A, Pred))
          << "seed " << Seed << " pred " << Pred;
    }
    // And the full run saw everything the masked run saw at retained
    // sites: counts there are equal, so any difference is masked-only.
    for (const auto &[Site, Count] : A.SiteObservations)
      if (Mask[Site]) {
        EXPECT_EQ(siteCount(B, Site), Count) << "seed " << Seed;
      }
  }
}

TEST(CollectorTest, UninitializedComparandSkipsObservation) {
  // 'b' is declared after the assignment to 'a' executes on the first
  // pass... construct: inside a loop, a's assignment runs while b's slot
  // is stale from the previous iteration's block exit. The collector must
  // simply skip non-int comparands rather than crash.
  Harness H(R"(fn main() {
  int i = 0;
  while (i < 2) {
    int a = 1;
    a = i;
    int b = 2;
    i = i + b - 1;
  }
})");
  ReportCollector Collector(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  RawReport Report = H.collect(Collector, 1);
  EXPECT_FALSE(Report.TruePredicates.empty());
}

namespace {

/// The scalar-pairs node with the most sites, and those sites.
std::vector<uint32_t> widestPairsNode(const SiteTable &Sites) {
  std::map<int, std::vector<uint32_t>> ByNode;
  for (const SiteInfo &Site : Sites.sites())
    if (Site.SchemeKind == Scheme::ScalarPairs)
      ByNode[Site.NodeId].push_back(Site.Id);
  std::vector<uint32_t> Widest;
  for (const auto &[Node, NodeSites] : ByNode)
    if (NodeSites.size() > Widest.size())
      Widest = NodeSites;
  return Widest;
}

const char *const LoopProgram = R"(
fn step(int x) {
  if (x > 3) { return x - 1; }
  return x + 1;
}
fn main() {
  int total = 0;
  int limit = 9;
  for (int i = 0; i < 300; i = i + 1) {
    int v = step(i % 7);
    total = total + v % limit;
    if (v % 2 == 0) { total = total + 1; }
  }
  println(total);
})";

} // namespace

TEST(CollectorTest, MixedRateNodeKeepsEachSiteOnItsOwnStream) {
  // Only adaptive plans mix rates within a node: here the first site of the
  // widest scalar-pairs node trains as rarely reached (rate 1) and every
  // other site as hot (rate 1/10). The rate-1 site must see every reach
  // without drawing, and every other site must sample exactly as it does
  // under a uniform 1/10 plan, where the node holds no rate-1 site.
  Harness H(LoopProgram);
  std::vector<uint32_t> Node = widestPairsNode(H.Sites);
  ASSERT_GE(Node.size(), 3u);
  std::vector<double> MeanReach(H.Sites.numSites(), 1000.0);
  MeanReach[Node[0]] = 10.0;
  SamplingPlan Mixed = SamplingPlan::adaptive(MeanReach);
  ASSERT_EQ(Mixed.rate(Node[0]), 1.0);
  ASSERT_EQ(Mixed.rate(Node[1]), 0.1);

  for (uint64_t Seed : {3ull, 41ull, 977ull}) {
    ReportCollector MixedCollector(H.Sites, Mixed);
    ReportCollector UniformCollector(
        H.Sites, SamplingPlan::uniform(H.Sites.numSites(), 0.1));
    RawReport A = H.collect(MixedCollector, Seed);
    RawReport B = H.collect(UniformCollector, Seed);
    EXPECT_EQ(siteCount(A, Node[0]), 300u) << "seed " << Seed;
    uint32_t Sampled = 0;
    for (uint32_t Site = 0; Site < H.Sites.numSites(); ++Site)
      if (Site != Node[0]) {
        EXPECT_EQ(siteCount(A, Site), siteCount(B, Site))
            << "seed " << Seed << " site " << Site;
        Sampled += siteCount(A, Site);
      }
    EXPECT_GT(Sampled, 0u) << "seed " << Seed;
    RawReport OnVM = H.collectOnVM(MixedCollector, Seed);
    EXPECT_EQ(OnVM.SiteObservations, A.SiteObservations) << "seed " << Seed;
    EXPECT_EQ(OnVM.TruePredicates, A.TruePredicates) << "seed " << Seed;
  }
}

TEST(CollectorTest, VanishingRateSeedsEachReachedNodeOnce) {
  // At 1e-20 every draw saturates: no site ever samples. The VM still
  // calls the collector once per node reached, to seed that node's
  // streams, and never again in the run.
  Harness H(LoopProgram);
  ReportCollector Collector(H.Sites,
                            SamplingPlan::uniform(H.Sites.numSites(), 1e-20));
  ReportCollector Reference(H.Sites, SamplingPlan::full(H.Sites.numSites()));
  for (uint64_t Seed : {1ull, 2ull, 3ull}) {
    CallCounter Reaches(Reference, /*ExposeAccel=*/false);
    H.collectOnVM(Reference, Seed, &Reaches);
    for (const auto &[NodeId, Count] : Reaches.CallsByNode)
      ASSERT_GT(H.Sites.sitesForNode(NodeId).Count, 0u) << NodeId;

    CallCounter Calls(Collector);
    RawReport Report = H.collectOnVM(Collector, Seed, &Calls);
    EXPECT_TRUE(Report.SiteObservations.empty()) << "seed " << Seed;
    EXPECT_TRUE(Report.TruePredicates.empty()) << "seed " << Seed;
    EXPECT_EQ(Calls.Calls, Reaches.CallsByNode.size()) << "seed " << Seed;
    for (const auto &[NodeId, Count] : Calls.CallsByNode)
      EXPECT_EQ(Count, 1u) << "seed " << Seed << " node " << NodeId;
  }
}

TEST(CollectorTest, FullyMaskedNodeCostsNoCall) {
  // Masking every site of a node removes it from the collector's view: the
  // VM consumes its reaches without a call, at any rate.
  Harness H(LoopProgram);
  std::vector<uint32_t> Node = widestPairsNode(H.Sites);
  ASSERT_FALSE(Node.empty());
  const int NodeId = H.Sites.site(Node[0]).NodeId;
  std::vector<uint8_t> Mask(H.Sites.numSites(), 1);
  for (uint32_t Site : Node)
    Mask[Site] = 0;
  for (double Rate : {1.0, 0.1}) {
    ReportCollector Collector(
        H.Sites, SamplingPlan::uniform(H.Sites.numSites(), Rate), &Mask);
    CallCounter Calls(Collector);
    RawReport Report = H.collectOnVM(Collector, 5, &Calls);
    EXPECT_GT(Calls.Calls, 0u) << "rate " << Rate;
    EXPECT_EQ(Calls.CallsByNode.count(NodeId), 0u) << "rate " << Rate;
    for (uint32_t Site : Node)
      EXPECT_EQ(siteCount(Report, Site), 0u) << "rate " << Rate;
  }
}

TEST(CollectorTest, ReachStatsKeepTheFastPath) {
  // Counting reaches must not take the VM off the countdown: with stats on
  // it makes exactly the calls it makes with stats off, and the per-scheme
  // counts match a brute-force tally from an observer that sees every
  // reach. The plan mixes rates 1, 1/2, 1/20 and 1/100 across the sites.
  const Subject &Subj = mossSubject();
  auto Prog = compileSubjectSource(Subj.Source, Subj.Name);
  CompiledProgram Code = compileProgram(*Prog);
  SiteTable Sites = SiteTable::build(*Prog);
  std::vector<double> MeanReach(Sites.numSites());
  const double Means[] = {50.0, 200.0, 2000.0, 1e6};
  for (uint32_t Site = 0; Site < Sites.numSites(); ++Site)
    MeanReach[Site] = Means[Site % 4];
  SamplingPlan Plan = SamplingPlan::adaptive(MeanReach);

  ReportCollector Off(Sites, Plan), On(Sites, Plan), Slow(Sites, Plan);
  On.enableReachStats();
  CallCounter OffCalls(Off), OnCalls(On);
  CallCounter Brute(Slow, /*ExposeAccel=*/false);
  std::array<uint64_t, 3> Reaches{}, Samples{};
  std::array<double, 3> Expected{};
  Rng Seeder(0x57A7);
  for (int Run = 0; Run < 20; ++Run) {
    Rng InputRng(Seeder.next());
    RunConfig Config;
    Config.Args = Subj.GenerateInput(InputRng);
    Config.OverrunPad = static_cast<size_t>(InputRng.nextBelow(8));
    uint64_t SampleSeed = Seeder.next();
    RawReport Reports[3];
    ExecutionObserver *Observers[3] = {&OffCalls, &OnCalls, &Brute};
    ReportCollector *Collectors[3] = {&Off, &On, &Slow};
    for (int I = 0; I < 3; ++I) {
      Config.Observer = Observers[I];
      Collectors[I]->beginRun(SampleSeed);
      runCompiled(Code, Config);
      Reports[I] = Collectors[I]->takeReport();
    }
    for (int I = 1; I < 3; ++I) {
      ASSERT_EQ(Reports[I].SiteObservations, Reports[0].SiteObservations);
      ASSERT_EQ(Reports[I].TruePredicates, Reports[0].TruePredicates);
    }
    for (const auto &[Site, Count] : Reports[2].SiteObservations)
      Samples[static_cast<size_t>(Sites.site(Site).SchemeKind)] += Count;
  }
  for (const auto &[NodeId, Count] : Brute.CallsByNode) {
    SiteTable::SiteRange Range = Sites.sitesForNode(NodeId);
    for (uint32_t Site = Range.First; Site < Range.First + Range.Count;
         ++Site) {
      auto Kind = static_cast<size_t>(Sites.site(Site).SchemeKind);
      Reaches[Kind] += Count;
      Expected[Kind] += static_cast<double>(Count) * Plan.rate(Site);
    }
  }

  EXPECT_EQ(OnCalls.Calls, OffCalls.Calls);
  EXPECT_LT(OnCalls.Calls, Brute.Calls);
  const ReportCollector::ReachStats &Stats = On.reachStats();
  for (size_t Kind = 0; Kind < 3; ++Kind) {
    EXPECT_GT(Reaches[Kind], 0u) << Kind;
    EXPECT_EQ(Stats.Reaches[Kind], Reaches[Kind]) << Kind;
    EXPECT_EQ(Stats.Samples[Kind], Samples[Kind]) << Kind;
    EXPECT_NEAR(Stats.ExpectedSamples[Kind], Expected[Kind],
                1e-9 * Expected[Kind])
        << Kind;
  }
  // Off counts nothing.
  EXPECT_EQ(Off.reachStats().Reaches[0], 0u);
}
