//===- tests/instrument/SitesTest.cpp - Site enumeration tests ------------===//

#include "instrument/Sites.h"

#include "lang/Sema.h"

#include <gtest/gtest.h>

using namespace sbi;

namespace {

std::unique_ptr<Program> compile(std::string_view Source) {
  std::vector<Diagnostic> Diags;
  auto Prog = parseAndAnalyze(Source, Diags);
  EXPECT_TRUE(Prog != nullptr) << renderDiagnostics(Diags);
  return Prog;
}

size_t countScheme(const SiteTable &Table, Scheme S) {
  size_t N = 0;
  for (const SiteInfo &Site : Table.sites())
    N += Site.SchemeKind == S ? 1 : 0;
  return N;
}

} // namespace

TEST(SitesTest, IfIsOneBranchSiteWithTwoPredicates) {
  auto Prog = compile("fn main() { if (1 < 2) { } }");
  SiteTable Table = SiteTable::build(*Prog);
  EXPECT_EQ(countScheme(Table, Scheme::Branches), 1u);
  const SiteInfo &Site = Table.site(0);
  EXPECT_EQ(Site.NumPredicates, 2u);
  EXPECT_EQ(Table.predicate(Site.FirstPredicate).Op, PredicateOp::IsTrue);
  EXPECT_EQ(Table.predicate(Site.FirstPredicate + 1).Op,
            PredicateOp::IsFalse);
}

TEST(SitesTest, LoopsAreBranchSites) {
  auto Prog = compile(R"(fn main() {
  while (0) { }
  for (int i = 0; i < 3; i = i + 1) { }
})");
  SiteTable Table = SiteTable::build(*Prog);
  // while + for conditions. The for's init/step assignments add
  // scalar-pairs sites but no branch sites beyond the condition.
  EXPECT_EQ(countScheme(Table, Scheme::Branches), 2u);
}

TEST(SitesTest, ShortCircuitOperatorsAreBranchSites) {
  auto Prog = compile("fn main() { int x = (1 < 2) && (3 < 4) || (5 < 6); }");
  SiteTable Table = SiteTable::build(*Prog);
  EXPECT_EQ(countScheme(Table, Scheme::Branches), 2u); // One &&, one ||.
}

TEST(SitesTest, ScalarReturningCallsGetSixPredicates) {
  auto Prog = compile(R"(
fn f() { return 1; }
fn main() { int x = f(); })");
  SiteTable Table = SiteTable::build(*Prog);
  ASSERT_EQ(countScheme(Table, Scheme::Returns), 1u);
  for (const SiteInfo &Site : Table.sites()) {
    if (Site.SchemeKind == Scheme::Returns) {
      EXPECT_EQ(Site.NumPredicates, 6u);
    }
  }
}

TEST(SitesTest, IntReturningIntrinsicsAreReturnSites) {
  auto Prog = compile("fn main() { int x = strcmp(\"a\", \"b\"); }");
  SiteTable Table = SiteTable::build(*Prog);
  EXPECT_EQ(countScheme(Table, Scheme::Returns), 1u);
}

TEST(SitesTest, VoidIntrinsicsAreNotReturnSites) {
  auto Prog = compile("fn main() { println(1); exit(0); }");
  SiteTable Table = SiteTable::build(*Prog);
  EXPECT_EQ(countScheme(Table, Scheme::Returns), 0u);
}

TEST(SitesTest, ScalarPairsOneSitePerComparand) {
  auto Prog = compile(R"(fn main() {
  int a = 0;
  int b = 0;
  b = 7;
})");
  SiteTable Table = SiteTable::build(*Prog);
  // Assignment b = 7: one pair site for 'a' plus one per collected
  // constant ({0, 7} -> 2 constants). Declarations with initializers also
  // mint pair sites: a = 0 pairs with constants only, b = 0 pairs with a +
  // constants.
  size_t Pairs = countScheme(Table, Scheme::ScalarPairs);
  // a-decl: 2 (constants 0,7); b-decl: 1 (a) + 2; assignment: 1 (a) + 2.
  EXPECT_EQ(Pairs, 8u);
  for (const SiteInfo &Site : Table.sites()) {
    if (Site.SchemeKind == Scheme::ScalarPairs) {
      EXPECT_EQ(Site.NumPredicates, 6u);
    }
  }
}

TEST(SitesTest, ConstantsAreCappedAndDeduplicated) {
  auto Prog = compile(R"(fn main() {
  int x = 0;
  x = 1; x = 1; x = 2; x = 3; x = 4; x = 5; x = 6; x = 7; x = 8; x = 9;
})");
  SiteOptions Opts;
  Opts.MaxConstantsPerFunction = 3;
  SiteTable Table = SiteTable::build(*Prog, Opts);
  // Each int assignment pairs with at most 3 constants (and no other int
  // vars exist).
  for (const SiteInfo &Site : Table.sites())
    if (Site.SchemeKind == Scheme::ScalarPairs) {
      EXPECT_TRUE(Site.PairIsConstant);
      EXPECT_LE(Site.PairConstant, 2); // Smallest three constants: 0, 1, 2.
    }
}

TEST(SitesTest, SchemesCanBeDisabled) {
  auto Prog = compile(R"(fn main() {
  int a = 0;
  if (a < 1) { a = len("x"); }
})");
  SiteOptions NoBranches;
  NoBranches.Branches = false;
  EXPECT_EQ(countScheme(SiteTable::build(*Prog, NoBranches),
                        Scheme::Branches),
            0u);
  SiteOptions NoReturns;
  NoReturns.Returns = false;
  EXPECT_EQ(countScheme(SiteTable::build(*Prog, NoReturns), Scheme::Returns),
            0u);
  SiteOptions NoPairs;
  NoPairs.ScalarPairs = false;
  EXPECT_EQ(countScheme(SiteTable::build(*Prog, NoPairs),
                        Scheme::ScalarPairs),
            0u);
}

TEST(SitesTest, ExcludedFunctionPrefixSkipsInstrumentation) {
  auto Prog = compile(R"(
fn __lib_helper(int x) {
  if (x > 0) { return x; }
  return 0 - x;
}
fn main() { int y = __lib_helper(0 - 3); })");
  SiteTable Table = SiteTable::build(*Prog);
  for (const SiteInfo &Site : Table.sites())
    EXPECT_NE(Site.Function, "__lib_helper");
  // The call site in main is still a returns site.
  EXPECT_EQ(countScheme(Table, Scheme::Returns), 1u);
}

TEST(SitesTest, NodeRangeLookup) {
  auto Prog = compile(R"(fn main() {
  int a = 0;
  int b = 0;
  a = b + 1;
})");
  SiteTable Table = SiteTable::build(*Prog);
  auto &Assign = static_cast<AssignStmt &>(*Prog->Functions[0]->Body->Body[2]);
  SiteTable::SiteRange Range = Table.sitesForNode(Assign.Id);
  EXPECT_GT(Range.Count, 0u);
  for (uint32_t I = 0; I < Range.Count; ++I) {
    EXPECT_EQ(Table.site(Range.First + I).NodeId, Assign.Id);
    EXPECT_EQ(Table.site(Range.First + I).SchemeKind, Scheme::ScalarPairs);
  }
}

TEST(SitesTest, UnknownNodeHasEmptyRange) {
  auto Prog = compile("fn main() { }");
  SiteTable Table = SiteTable::build(*Prog);
  EXPECT_EQ(Table.sitesForNode(-1).Count, 0u);
  EXPECT_EQ(Table.sitesForNode(999999).Count, 0u);
}

TEST(SitesTest, PredicatesAreContiguousPerSite) {
  auto Prog = compile(R"(fn main() {
  int a = 0;
  if (a < 1) { a = strcmp("x", "y"); }
  while (a > 0) { a = a - 1; }
})");
  SiteTable Table = SiteTable::build(*Prog);
  uint32_t Expected = 0;
  for (const SiteInfo &Site : Table.sites()) {
    EXPECT_EQ(Site.FirstPredicate, Expected);
    Expected += Site.NumPredicates;
  }
  EXPECT_EQ(Expected, Table.numPredicates());
}

TEST(SitesTest, PredicateTextIsReadable) {
  auto Prog = compile(R"(fn main() {
  int limit = 10;
  int i = 0;
  if (i < limit) { }
})");
  SiteTable Table = SiteTable::build(*Prog);
  bool Found = false;
  for (const PredicateInfo &Pred : Table.predicates())
    if (Pred.Text == "i < limit is TRUE")
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(SitesTest, FunctionAndLineAttributed) {
  auto Prog = compile("fn helper(int x) {\n  if (x) { }\n  return 0;\n}\n"
                      "fn main() { helper(1); }");
  SiteTable Table = SiteTable::build(*Prog);
  bool Found = false;
  for (const SiteInfo &Site : Table.sites())
    if (Site.SchemeKind == Scheme::Branches && Site.Function == "helper") {
      EXPECT_EQ(Site.Line, 2);
      Found = true;
    }
  EXPECT_TRUE(Found);
}
