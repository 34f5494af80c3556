//===- obs/Tracer.h - Span tracing into per-thread ring buffers -----------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flight-recorder half of the observability layer. Where the metrics
/// registry (obs/Metrics.h) answers "how much, in total", the tracer
/// answers "when, on which thread": begin/end spans and instant events
/// with monotonic timestamps, recorded into per-thread fixed-capacity
/// buffers and drained by obs/TraceSink.h into Chrome trace_event JSON
/// that loads in Perfetto / chrome://tracing.
///
/// The contract mirrors Telemetry::enabled():
///
///   - Tracing is off by default. Its switch is one bit of the word that
///     also holds telemetry's (obs/Telemetry.h), so every recording
///     call-site guards on one relaxed atomic load and the untraced fast
///     path is a single predictable branch.
///   - Recording is wait-free per thread: each OS thread owns one buffer,
///     appends are plain stores followed by one release store of the
///     count, and no lock is ever taken after a buffer exists. A full
///     buffer drops new events and counts the drops — recording can never
///     block or reallocate mid-campaign.
///   - Name / category / argument-name strings must be string literals
///     (only the pointer is stored). Values are u64.
///
/// ScopedSpan is the one scope timer, for the trace and the metrics
/// registry's phase table alike. It reads both switches once at
/// construction; with both off it does nothing more. Otherwise it reads
/// the clock at construction and destruction, appends one complete event
/// (begin + duration, one event-sized store on the owning thread's buffer)
/// when tracing is on, and adds one count and the same duration to the
/// phase named after the span when telemetry is on.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_OBS_TRACER_H
#define SBI_OBS_TRACER_H

#include "obs/Telemetry.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sbi {

/// One recorded event. 120 bytes; copied into the owning thread's buffer.
struct TraceEvent {
  /// The most u64 arguments one event holds: the widest span, one
  /// elimination iteration, carries five work counts.
  static constexpr uint8_t MaxArgs = 5;

  /// Span or instant name (string literal).
  const char *Name = nullptr;
  /// Category (string literal): "harness", "analysis", "feedback", "vm"...
  const char *Cat = nullptr;
  /// Nanoseconds since the tracer epoch (steady clock).
  uint64_t StartNs = 0;
  /// Span duration; 0 for instants.
  uint64_t DurNs = 0;
  /// Up to MaxArgs u64 arguments with literal names.
  const char *ArgName[MaxArgs] = {};
  uint64_t ArgVal[MaxArgs] = {};
  uint8_t NumArgs = 0;
  /// True for instant events (rendered as "i" phase, not "X").
  bool Instant = false;
};

/// One thread's fixed-capacity event buffer. Single producer (the owning
/// thread); readers synchronize through the release/acquire count, so a
/// sink may snapshot a buffer while its thread is still recording and see
/// a consistent prefix.
class TraceBuffer {
public:
  uint32_t tid() const { return Tid; }
  size_t capacity() const { return Events.size(); }

  /// Events visible to a reader (acquire; pairs with append's release).
  size_t size() const { return Count.load(std::memory_order_acquire); }
  const TraceEvent &event(size_t I) const { return Events[I]; }

  /// Events rejected because the buffer was full.
  uint64_t dropped() const {
    return Dropped.load(std::memory_order_relaxed);
  }

  /// Owning-thread only. Full buffers drop (and count) new events rather
  /// than wrap: the head of a campaign is worth more than its tail, and
  /// never overwriting keeps readers race-free.
  void append(const TraceEvent &Ev) {
    size_t N = Count.load(std::memory_order_relaxed);
    if (N >= Events.size()) {
      Dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Events[N] = Ev;
    Count.store(N + 1, std::memory_order_release);
  }

private:
  friend class Tracer;
  TraceBuffer(uint32_t Tid, size_t Capacity)
      : Events(Capacity), Tid(Tid) {}

  std::vector<TraceEvent> Events;
  std::atomic<size_t> Count{0};
  std::atomic<uint64_t> Dropped{0};
  uint32_t Tid;
};

class Tracer {
public:
  /// Turns span recording on or off process-wide.
  static void setEnabled(bool On) {
    Telemetry::setSwitch(Telemetry::TracingOn, On);
  }
  static bool enabled() {
    return Telemetry::switches() & Telemetry::TracingOn;
  }

  /// The process-wide tracer every ScopedSpan records into.
  static Tracer &instance();

  /// Nanoseconds since the process-wide tracer epoch.
  static uint64_t nowNs();

  /// Capacity, in events, of buffers created after this call (default
  /// 1 << 16 per thread). Existing buffers keep their size.
  void setBufferCapacity(size_t NumEvents);

  /// The calling thread's buffer, created on first use. Buffer creation
  /// takes the registry lock once per thread per epoch; recording after
  /// that is lock-free.
  TraceBuffer &threadBuffer();

  /// Records an instant event on the calling thread.
  void instant(const char *Name, const char *Cat);

  /// Stable snapshot handles for the sink. Buffers are never destroyed
  /// while their epoch is current, so the pointers stay valid until
  /// reset().
  std::vector<const TraceBuffer *> buffers() const;

  /// Totals across all buffers (events recorded, events dropped on
  /// overflow).
  uint64_t recordedTotal() const;
  uint64_t droppedTotal() const;

  /// Test-only: discards every buffer and bumps the epoch so threads
  /// re-acquire on next use. Callers must guarantee no thread is
  /// concurrently recording (the tests record, join, then reset).
  void reset();

private:
  Tracer() = default;

  mutable std::mutex Mu;
  std::vector<std::unique_ptr<TraceBuffer>> Buffers;
  size_t Capacity = 1 << 16;
  std::atomic<uint64_t> Epoch{1};
};

/// RAII scope timer: one complete event on the constructing thread's
/// buffer while tracing is on, one count and duration in the phase named
/// after the span while telemetry is on. The switches are read once, at
/// construction; with both off the scope reads no clock and records
/// nothing.
class ScopedSpan {
public:
  ScopedSpan(const char *Name, const char *Cat)
      : On(Telemetry::switches()) {
    if (On)
      open(Name, Cat);
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Attaches a u64 argument to the trace event (at most
  /// TraceEvent::MaxArgs; extras are ignored). \p Name must be a string
  /// literal. Callable any time before destruction.
  void arg(const char *Name, uint64_t Val) {
    if (!Buf || Ev.NumArgs >= TraceEvent::MaxArgs)
      return;
    Ev.ArgName[Ev.NumArgs] = Name;
    Ev.ArgVal[Ev.NumArgs] = Val;
    ++Ev.NumArgs;
  }

  ~ScopedSpan() {
    if (On)
      close();
  }

private:
  // Out of line, so each call site inlines only the switch test.
  void open(const char *Name, const char *Cat);
  void close();

  unsigned On; // Telemetry::switches() at construction.
  TraceBuffer *Buf = nullptr; // Null unless tracing was on.
  TraceEvent Ev;
};

} // namespace sbi

#endif // SBI_OBS_TRACER_H
