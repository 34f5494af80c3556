//===- tests/obs/TracerTest.cpp - Span tracer tests -----------------------===//
//
// The tracer's buffers and JSON flush, and ScopedSpan as the one scope
// timer: it feeds the trace while tracing is on and the metrics registry's
// phase table while telemetry is on, from one pair of clock reads.
//
//===----------------------------------------------------------------------===//

#include "obs/Telemetry.h"
#include "obs/TraceSink.h"
#include "obs/Tracer.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace sbi;

namespace {

/// Every test runs against the process-wide tracer and registry, so
/// restore the disabled-and-empty state on the way out.
class TracerTest : public ::testing::Test {
protected:
  void SetUp() override {
    Tracer::setEnabled(false);
    Telemetry::setEnabled(false);
    Tracer::instance().setBufferCapacity(1 << 16);
    Tracer::instance().reset();
  }
  void TearDown() override {
    Tracer::setEnabled(false);
    Telemetry::setEnabled(false);
    Tracer::instance().setBufferCapacity(1 << 16);
    Tracer::instance().reset();
  }
};

PhaseStats phaseOf(const char *Name) {
  return Telemetry::metrics().phase(Name);
}

/// Every recorded span named \p Name, across all thread buffers.
std::vector<TraceEvent> spansNamed(const char *Name) {
  std::vector<TraceEvent> Out;
  for (const TraceBuffer *B : Tracer::instance().buffers())
    for (size_t I = 0; I < B->size(); ++I)
      if (!B->event(I).Instant && std::strcmp(B->event(I).Name, Name) == 0)
        Out.push_back(B->event(I));
  return Out;
}

/// Spins until the tracer clock moves, so a span has a nonzero duration.
void tick() {
  uint64_t Start = Tracer::nowNs();
  while (Tracer::nowNs() == Start)
    ;
}

json::Value parseTrace(const std::string &Text) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parse(Text, V, Error)) << Error;
  return V;
}

TEST_F(TracerTest, DisabledRecordsNothing) {
  {
    ScopedSpan Span("noop", "test");
    Span.arg("x", 1);
    Tracer::instance().instant("tick", "test");
  }
  EXPECT_EQ(Tracer::instance().recordedTotal(), 0u);
  EXPECT_EQ(Tracer::instance().droppedTotal(), 0u);
  EXPECT_TRUE(Tracer::instance().buffers().empty());
}

TEST_F(TracerTest, SpanRoundTripsThroughJson) {
  Tracer::setEnabled(true);
  {
    ScopedSpan Outer("outer", "test");
    Outer.arg("runs", 7);
    Outer.arg("shard", 3);
    { ScopedSpan Inner("inner", "test"); }
    Tracer::instance().instant("tick", "test");
  }
  Tracer::setEnabled(false);

  EXPECT_EQ(Tracer::instance().recordedTotal(), 3u);
  json::Value Doc = parseTrace(traceToJson(Tracer::instance()));

  const json::Value *Other = Doc.find("otherData");
  ASSERT_NE(Other, nullptr);
  EXPECT_DOUBLE_EQ(Other->numberOr("recorded_events", -1), 3.0);
  EXPECT_DOUBLE_EQ(Other->numberOr("dropped_events", -1), 0.0);

  const json::Value *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());

  const json::Value *OuterEv = nullptr, *InnerEv = nullptr, *Tick = nullptr;
  for (const json::Value &Ev : Events->array()) {
    std::string Name = Ev.stringOr("name", "");
    if (Name == "outer")
      OuterEv = &Ev;
    else if (Name == "inner")
      InnerEv = &Ev;
    else if (Name == "tick")
      Tick = &Ev;
  }
  ASSERT_NE(OuterEv, nullptr);
  ASSERT_NE(InnerEv, nullptr);
  ASSERT_NE(Tick, nullptr);

  EXPECT_EQ(OuterEv->stringOr("ph", ""), "X");
  EXPECT_EQ(OuterEv->stringOr("cat", ""), "test");
  const json::Value *Args = OuterEv->find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_DOUBLE_EQ(Args->numberOr("runs", -1), 7.0);
  EXPECT_DOUBLE_EQ(Args->numberOr("shard", -1), 3.0);

  // The inner span nests inside the outer one on the same timeline.
  double OuterTs = OuterEv->numberOr("ts", -1);
  double OuterDur = OuterEv->numberOr("dur", -1);
  double InnerTs = InnerEv->numberOr("ts", -1);
  double InnerDur = InnerEv->numberOr("dur", -1);
  EXPECT_LE(OuterTs, InnerTs);
  EXPECT_LE(InnerTs + InnerDur, OuterTs + OuterDur + 0.001);

  EXPECT_EQ(Tick->stringOr("ph", ""), "i");
  EXPECT_DOUBLE_EQ(Tick->numberOr("dur", -1), -1.0); // instants have no dur
}

TEST_F(TracerTest, OverflowDropsAreCounted) {
  Tracer::instance().setBufferCapacity(4);
  Tracer::instance().reset();
  Tracer::setEnabled(true);
  for (int I = 0; I < 10; ++I)
    ScopedSpan Span("tiny", "test");
  Tracer::setEnabled(false);

  EXPECT_EQ(Tracer::instance().recordedTotal(), 4u);
  EXPECT_EQ(Tracer::instance().droppedTotal(), 6u);

  json::Value Doc = parseTrace(traceToJson(Tracer::instance()));
  const json::Value *Other = Doc.find("otherData");
  ASSERT_NE(Other, nullptr);
  EXPECT_DOUBLE_EQ(Other->numberOr("recorded_events", -1), 4.0);
  EXPECT_DOUBLE_EQ(Other->numberOr("dropped_events", -1), 6.0);
}

TEST_F(TracerTest, FlushIsDeterministic) {
  Tracer::setEnabled(true);
  std::vector<std::thread> Workers;
  for (int T = 0; T < 4; ++T) {
    Workers.emplace_back([T] {
      for (int I = 0; I < 50; ++I) {
        ScopedSpan Span("work", "test");
        Span.arg("worker", static_cast<uint64_t>(T));
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  Tracer::setEnabled(false);

  std::string First = traceToJson(Tracer::instance());
  std::string Second = traceToJson(Tracer::instance());
  EXPECT_EQ(First, Second);

  json::Value Doc = parseTrace(First);
  const json::Value *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  // 4 workers x 50 spans, plus process + per-thread metadata events.
  size_t Spans = 0;
  double PrevTs = -1.0;
  for (const json::Value &Ev : Events->array()) {
    if (Ev.stringOr("ph", "") != "X")
      continue;
    ++Spans;
    double Ts = Ev.numberOr("ts", -1);
    EXPECT_GE(Ts, PrevTs); // sorted by start time
    PrevTs = Ts;
  }
  EXPECT_EQ(Spans, 200u);
}

TEST_F(TracerTest, ConcurrentRecordingIsClean) {
  // Exercised under TSan in CI: concurrent producers on distinct buffers
  // plus a reader snapshotting mid-recording must be race-free.
  Tracer::setEnabled(true);
  std::vector<std::thread> Workers;
  for (int T = 0; T < 4; ++T) {
    Workers.emplace_back([] {
      for (int I = 0; I < 500; ++I) {
        ScopedSpan Span("spin", "test");
        Span.arg("n", 1);
      }
    });
  }
  for (int I = 0; I < 20; ++I) {
    std::string Json = traceToJson(Tracer::instance());
    EXPECT_FALSE(Json.empty());
  }
  for (std::thread &W : Workers)
    W.join();
  Tracer::setEnabled(false);
  EXPECT_EQ(Tracer::instance().recordedTotal(), 2000u);
}

TEST_F(TracerTest, ResetDiscardsBuffersAndReacquires) {
  Tracer::setEnabled(true);
  { ScopedSpan Span("before", "test"); }
  EXPECT_EQ(Tracer::instance().recordedTotal(), 1u);

  Tracer::instance().reset();
  EXPECT_EQ(Tracer::instance().recordedTotal(), 0u);
  EXPECT_TRUE(Tracer::instance().buffers().empty());

  // The same thread gets a fresh buffer after the epoch bump.
  { ScopedSpan Span("after", "test"); }
  Tracer::setEnabled(false);
  EXPECT_EQ(Tracer::instance().recordedTotal(), 1u);
  json::Value Doc = parseTrace(traceToJson(Tracer::instance()));
  const json::Value *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  bool SawAfter = false, SawBefore = false;
  for (const json::Value &Ev : Events->array()) {
    SawAfter |= Ev.stringOr("name", "") == "after";
    SawBefore |= Ev.stringOr("name", "") == "before";
  }
  EXPECT_TRUE(SawAfter);
  EXPECT_FALSE(SawBefore);
}

// --- ScopedSpan as the one scope timer -----------------------------------

TEST_F(TracerTest, SwitchesShareOneWordButToggleIndependently) {
  ASSERT_EQ(Telemetry::switches(), 0u);
  Tracer::setEnabled(true);
  EXPECT_TRUE(Tracer::enabled());
  EXPECT_FALSE(Telemetry::enabled());
  Telemetry::setEnabled(true);
  EXPECT_EQ(Telemetry::switches(), Telemetry::MetricsOn | Telemetry::TracingOn);
  Tracer::setEnabled(false);
  EXPECT_FALSE(Tracer::enabled());
  EXPECT_TRUE(Telemetry::enabled());
  Telemetry::setEnabled(false);
  EXPECT_EQ(Telemetry::switches(), 0u);
}

TEST_F(TracerTest, EachSwitchFeedsOnlyItsOwnRecord) {
  // Telemetry alone: a phase, and no trace event.
  PhaseStats Before = phaseOf("span_test_metrics_only");
  Telemetry::setEnabled(true);
  { ScopedSpan Span("span_test_metrics_only", "test"); }
  Telemetry::setEnabled(false);
  EXPECT_EQ(phaseOf("span_test_metrics_only").Count, Before.Count + 1);
  EXPECT_EQ(Tracer::instance().recordedTotal(), 0u);

  // Tracing alone: a trace event, and no phase.
  Tracer::setEnabled(true);
  { ScopedSpan Span("span_test_trace_only", "test"); }
  Tracer::setEnabled(false);
  EXPECT_EQ(spansNamed("span_test_trace_only").size(), 1u);
  EXPECT_EQ(phaseOf("span_test_trace_only").Count, 0u);
}

TEST_F(TracerTest, PhaseTotalEqualsTheEventDurations) {
  PhaseStats Before = phaseOf("span_test_both");
  Telemetry::setEnabled(true);
  Tracer::setEnabled(true);
  for (int I = 0; I < 3; ++I) {
    ScopedSpan Span("span_test_both", "test");
    tick();
  }
  Tracer::setEnabled(false);
  Telemetry::setEnabled(false);

  PhaseStats After = phaseOf("span_test_both");
  std::vector<TraceEvent> Events = spansNamed("span_test_both");
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(After.Count - Before.Count, 3u);
  uint64_t DurNs = 0;
  for (const TraceEvent &Ev : Events) {
    EXPECT_GT(Ev.DurNs, 0u);
    DurNs += Ev.DurNs;
  }
  // One pair of clock reads per scope feeds both records.
  EXPECT_EQ(After.TotalNanos - Before.TotalNanos, DurNs);
}

TEST_F(TracerTest, BothSwitchesOffRecordsNothing) {
  ASSERT_EQ(Telemetry::switches(), 0u);
  {
    ScopedSpan Span("span_test_off", "test");
    Span.arg("x", 1);
  }
  // The switches are read once, at construction: turning them on inside
  // a scope that opened with both off records nothing either.
  {
    ScopedSpan Span("span_test_off", "test");
    Telemetry::setEnabled(true);
    Tracer::setEnabled(true);
  }
  Tracer::setEnabled(false);
  Telemetry::setEnabled(false);
  EXPECT_EQ(phaseOf("span_test_off").Count, 0u);
  EXPECT_EQ(phaseOf("span_test_off").TotalNanos, 0u);
  EXPECT_EQ(Tracer::instance().recordedTotal(), 0u);
  EXPECT_TRUE(Tracer::instance().buffers().empty());
}

TEST_F(TracerTest, ConcurrentSpansCountExactly) {
  // Run under ASan and TSan in CI: eight threads close spans into their
  // own buffers and one shared phase entry at once.
  constexpr int NumThreads = 8;
  constexpr int PerThread = 1000;
  PhaseStats Before = phaseOf("span_test_concurrent");
  Telemetry::setEnabled(true);
  Tracer::setEnabled(true);
  std::vector<std::thread> Workers;
  for (int T = 0; T < NumThreads; ++T)
    Workers.emplace_back([] {
      for (int I = 0; I < PerThread; ++I)
        ScopedSpan Span("span_test_concurrent", "test");
    });
  for (std::thread &W : Workers)
    W.join();
  Tracer::setEnabled(false);
  Telemetry::setEnabled(false);

  PhaseStats After = phaseOf("span_test_concurrent");
  std::vector<TraceEvent> Events = spansNamed("span_test_concurrent");
  EXPECT_EQ(After.Count - Before.Count,
            static_cast<uint64_t>(NumThreads * PerThread));
  EXPECT_EQ(Events.size(), static_cast<size_t>(NumThreads * PerThread));
  EXPECT_EQ(Tracer::instance().droppedTotal(), 0u);
  uint64_t DurNs = 0;
  for (const TraceEvent &Ev : Events)
    DurNs += Ev.DurNs;
  EXPECT_EQ(After.TotalNanos - Before.TotalNanos, DurNs);
}

} // namespace
