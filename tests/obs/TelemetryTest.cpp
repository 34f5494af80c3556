//===- tests/obs/TelemetryTest.cpp - Observability layer tests ------------===//
//
// Covers the telemetry subsystem: log2 histogram bucketing at the edges,
// counter thread-safety, deterministic and well-formed JSON emission, and
// the double-registration abort that keeps two layers from silently
// aliasing one metric. The phase table's feed, ScopedSpan, is covered in
// TracerTest.cpp.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <thread>
#include <vector>

using namespace sbi;

// --- Histogram bucketing ---------------------------------------------------

TEST(HistogramTest, BucketIndexEdges) {
  EXPECT_EQ(Histogram::bucketIndex(0), 0u);
  EXPECT_EQ(Histogram::bucketIndex(1), 1u);
  EXPECT_EQ(Histogram::bucketIndex(2), 2u);
  EXPECT_EQ(Histogram::bucketIndex(3), 2u);
  EXPECT_EQ(Histogram::bucketIndex(4), 3u);
  EXPECT_EQ(Histogram::bucketIndex((1ull << 63) - 1), 63u);
  EXPECT_EQ(Histogram::bucketIndex(1ull << 63), 64u);
  EXPECT_EQ(Histogram::bucketIndex(UINT64_MAX), 64u);
}

TEST(HistogramTest, BucketFloorsInvertBucketIndex) {
  EXPECT_EQ(Histogram::bucketFloor(0), 0u);
  EXPECT_EQ(Histogram::bucketFloor(1), 1u);
  EXPECT_EQ(Histogram::bucketFloor(2), 2u);
  EXPECT_EQ(Histogram::bucketFloor(3), 4u);
  EXPECT_EQ(Histogram::bucketFloor(64), 1ull << 63);
  // Every bucket's floor maps back into that bucket.
  for (size_t I = 0; I < Histogram::NumBuckets; ++I)
    EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketFloor(I)), I) << I;
}

TEST(HistogramTest, RecordsExtremeValues) {
  MetricsRegistry Registry;
  Histogram &H = Registry.registerHistogram("h");
  H.record(0);
  H.record(1);
  H.record(UINT64_MAX);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), UINT64_MAX);
  // Sum wraps mod 2^64 by design: 0 + 1 + (2^64 - 1) == 0.
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.bucketCount(0), 1u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(64), 1u);
  for (size_t I = 2; I < 64; ++I)
    EXPECT_EQ(H.bucketCount(I), 0u) << I;
}

TEST(HistogramTest, EmptyHistogramHasSentinelExtremes) {
  MetricsRegistry Registry;
  Histogram &H = Registry.registerHistogram("h");
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), UINT64_MAX);
  EXPECT_EQ(H.max(), 0u);
}

// --- Counters and gauges ---------------------------------------------------

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  MetricsRegistry Registry;
  Counter &C = Registry.registerCounter("c");
  constexpr int NumThreads = 8;
  constexpr int PerThread = 10000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&C] {
      for (int I = 0; I < PerThread; ++I)
        C.add(1);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(C.value(), static_cast<uint64_t>(NumThreads) * PerThread);
}

TEST(GaugeTest, LastWriteWins) {
  MetricsRegistry Registry;
  Gauge &G = Registry.registerGauge("g");
  G.set(1.5);
  G.set(-2.25);
  EXPECT_EQ(G.value(), -2.25);
}

// --- JSON emission ---------------------------------------------------------

namespace {

/// A minimal JSON validator: accepts exactly the subset toJson() emits
/// (objects, arrays, strings with escapes, numbers, true/false). Returns
/// true iff the whole input is one well-formed value.
class JsonChecker {
public:
  explicit JsonChecker(const std::string &Text) : Text(Text) {}

  bool valid() {
    skipSpace();
    if (!value())
      return false;
    skipSpace();
    return Pos == Text.size();
  }

private:
  bool value() {
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipSpace();
    if (peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      if (!string())
        return false;
      skipSpace();
      if (peek() != ':')
        return false;
      ++Pos;
      skipSpace();
      if (!value())
        return false;
      skipSpace();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipSpace();
    if (peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipSpace();
      if (!value())
        return false;
      skipSpace();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return false; // Raw control characters must be escaped.
      if (C == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos];
        if (E == 'u') {
          for (int I = 1; I <= 4; ++I)
            if (Pos + I >= Text.size() ||
                !std::isxdigit(static_cast<unsigned char>(Text[Pos + I])))
              return false;
          Pos += 4;
        } else if (E != '"' && E != '\\' && E != '/' && E != 'b' &&
                   E != 'f' && E != 'n' && E != 'r' && E != 't') {
          return false;
        }
      }
      ++Pos;
    }
    return false;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }

  bool literal(const char *Word) {
    for (const char *P = Word; *P; ++P, ++Pos)
      if (Pos >= Text.size() || Text[Pos] != *P)
        return false;
    return true;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }

  const std::string &Text;
  size_t Pos = 0;
};

} // namespace

TEST(MetricsJsonTest, EmptyRegistryIsWellFormed) {
  MetricsRegistry Registry;
  std::string Json = Registry.toJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"phases\""), std::string::npos);
}

TEST(MetricsJsonTest, PopulatedRegistryIsWellFormed) {
  MetricsRegistry Registry;
  Registry.registerCounter("runs").add(42);
  Registry.registerGauge("rate").set(0.125);
  Registry.registerGauge("negative").set(-3.5);
  Histogram &H = Registry.registerHistogram("steps");
  H.record(0);
  H.record(7);
  H.record(UINT64_MAX);
  Registry.registerHistogram("empty_hist");
  Registry.recordPhase("campaign", 1'500'000);
  Registry.recordPhase("campaign/run_loop", 1'000'000);
  std::string Json = Registry.toJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\"runs\": 42"), std::string::npos) << Json;
  EXPECT_NE(Json.find("campaign/run_loop"), std::string::npos);
}

TEST(MetricsJsonTest, EscapesHostileLabelText) {
  MetricsRegistry Registry;
  Registry.registerLabel("mode").set(
      std::string("quo\"te back\\slash new\nline tab\t ctrl\x01") +
      std::string(1, '\0') + "end");
  std::string Json = Registry.toJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json;
  EXPECT_NE(Json.find("\\\""), std::string::npos);
  EXPECT_NE(Json.find("\\\\"), std::string::npos);
  EXPECT_NE(Json.find("\\n"), std::string::npos);
  EXPECT_NE(Json.find("\\t"), std::string::npos);
  EXPECT_NE(Json.find("\\u0001"), std::string::npos);
  EXPECT_NE(Json.find("\\u0000"), std::string::npos);
}

TEST(MetricsJsonTest, MatchesDocumentedSchema) {
  // DESIGN.md §9 documents the --metrics-out document shape; this test is
  // the schema's executable form. Top level: exactly the five sections, in
  // order. Phases are {"count", "total_ms"}; counters are non-negative
  // integers; gauges are doubles; labels are strings; histograms are
  // {"count", "sum"[, "min", "max"], "buckets": [{"ge", "count"}...]} with
  // min/max present iff count > 0 and only non-empty buckets listed.
  MetricsRegistry Registry;
  Registry.registerCounter("runs.total").add(42);
  Registry.registerGauge("trace.events_recorded").set(1190);
  Registry.registerLabel("subject").set("moss");
  Histogram &H = Registry.registerHistogram("report.bytes");
  H.record(3);
  H.record(900);
  Registry.registerHistogram("empty_hist");
  Registry.recordPhase("campaign", 1'500'000);
  Registry.recordPhase("campaign/run_loop", 1'000'000);

  json::Value Doc;
  std::string Error;
  ASSERT_TRUE(json::parse(Registry.toJson(), Doc, Error)) << Error;
  ASSERT_TRUE(Doc.isObject());

  ASSERT_EQ(Doc.members().size(), 5u);
  EXPECT_EQ(Doc.members()[0].first, "phases");
  EXPECT_EQ(Doc.members()[1].first, "counters");
  EXPECT_EQ(Doc.members()[2].first, "gauges");
  EXPECT_EQ(Doc.members()[3].first, "labels");
  EXPECT_EQ(Doc.members()[4].first, "histograms");

  const json::Value &Phases = Doc.members()[0].second;
  ASSERT_TRUE(Phases.isObject());
  for (const json::Member &M : Phases.members()) {
    ASSERT_EQ(M.second.members().size(), 2u) << M.first;
    const json::Value *Count = M.second.find("count");
    ASSERT_NE(Count, nullptr);
    EXPECT_TRUE(Count->isInteger());
    const json::Value *TotalMs = M.second.find("total_ms");
    ASSERT_NE(TotalMs, nullptr);
    EXPECT_TRUE(TotalMs->isNumber());
  }
  ASSERT_NE(Phases.find("campaign/run_loop"), nullptr);
  EXPECT_EQ(Phases.find("campaign/run_loop")->find("count")->asInteger(), 1);

  const json::Value &Counters = Doc.members()[1].second;
  ASSERT_TRUE(Counters.isObject());
  for (const json::Member &M : Counters.members()) {
    EXPECT_TRUE(M.second.isInteger()) << M.first;
    EXPECT_GE(M.second.asInteger(), 0) << M.first;
  }
  ASSERT_NE(Counters.find("runs.total"), nullptr);
  EXPECT_EQ(Counters.find("runs.total")->asInteger(), 42);

  const json::Value &Gauges = Doc.members()[2].second;
  ASSERT_TRUE(Gauges.isObject());
  for (const json::Member &M : Gauges.members())
    EXPECT_TRUE(M.second.isNumber()) << M.first;
  ASSERT_NE(Gauges.find("trace.events_recorded"), nullptr);
  EXPECT_DOUBLE_EQ(Gauges.find("trace.events_recorded")->asNumber(), 1190.0);

  const json::Value &Labels = Doc.members()[3].second;
  ASSERT_TRUE(Labels.isObject());
  for (const json::Member &M : Labels.members())
    EXPECT_TRUE(M.second.isString()) << M.first;
  ASSERT_NE(Labels.find("subject"), nullptr);
  EXPECT_EQ(Labels.find("subject")->asString(), "moss");

  const json::Value &Histograms = Doc.members()[4].second;
  ASSERT_TRUE(Histograms.isObject());
  for (const json::Member &M : Histograms.members()) {
    const json::Value &Hist = M.second;
    ASSERT_TRUE(Hist.isObject()) << M.first;
    const json::Value *Count = Hist.find("count");
    ASSERT_NE(Count, nullptr);
    ASSERT_TRUE(Count->isInteger());
    ASSERT_NE(Hist.find("sum"), nullptr);
    bool Populated = Count->asInteger() > 0;
    EXPECT_EQ(Hist.find("min") != nullptr, Populated) << M.first;
    EXPECT_EQ(Hist.find("max") != nullptr, Populated) << M.first;
    const json::Value *Buckets = Hist.find("buckets");
    ASSERT_NE(Buckets, nullptr);
    ASSERT_TRUE(Buckets->isArray());
    int64_t BucketSum = 0;
    for (const json::Value &B : Buckets->array()) {
      ASSERT_TRUE(B.find("ge") && B.find("ge")->isInteger());
      ASSERT_TRUE(B.find("count") && B.find("count")->isInteger());
      EXPECT_GT(B.find("count")->asInteger(), 0); // empty buckets elided
      BucketSum += B.find("count")->asInteger();
    }
    EXPECT_EQ(BucketSum, Count->asInteger()) << M.first;
  }
  const json::Value *Bytes = Histograms.find("report.bytes");
  ASSERT_NE(Bytes, nullptr);
  EXPECT_EQ(Bytes->find("count")->asInteger(), 2);
  EXPECT_EQ(Bytes->find("min")->asInteger(), 3);
  EXPECT_EQ(Bytes->find("max")->asInteger(), 900);
}

TEST(MetricsJsonTest, OutputIsDeterministicAndNameSorted) {
  MetricsRegistry Registry;
  Registry.registerCounter("zebra");
  Registry.registerCounter("aardvark");
  std::string First = Registry.toJson();
  EXPECT_EQ(First, Registry.toJson());
  EXPECT_LT(First.find("aardvark"), First.find("zebra"));
}

// --- Registration discipline -----------------------------------------------

TEST(MetricsRegistryDeathTest, DuplicateRegistrationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry Registry;
  Registry.registerCounter("dup");
  EXPECT_DEATH(Registry.registerCounter("dup"), "registered twice");
  // The name is taken across instrument kinds, too: a gauge may not alias
  // an existing counter.
  EXPECT_DEATH(Registry.registerGauge("dup"), "registered twice");
}

TEST(MetricsRegistryTest, FindReturnsNullForMissingOrMistypedNames) {
  MetricsRegistry Registry;
  Counter &C = Registry.registerCounter("only.counter");
  EXPECT_EQ(Registry.findCounter("only.counter"), &C);
  EXPECT_EQ(Registry.findCounter("nonesuch"), nullptr);
  EXPECT_EQ(Registry.findGauge("only.counter"), nullptr);
  EXPECT_EQ(Registry.findLabel("only.counter"), nullptr);
  EXPECT_EQ(Registry.findHistogram("only.counter"), nullptr);
}

// --- Telemetry switch ------------------------------------------------------

TEST(TelemetryTest, SwitchTogglesProcessWide) {
  ASSERT_FALSE(Telemetry::enabled());
  Telemetry::setEnabled(true);
  EXPECT_TRUE(Telemetry::enabled());
  Telemetry::setEnabled(false);
  EXPECT_FALSE(Telemetry::enabled());
}
