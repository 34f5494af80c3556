//===- obs/Tracer.cpp - Span tracing into per-thread ring buffers ---------===//

#include "obs/Tracer.h"

using namespace sbi;

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

uint64_t Tracer::nowNs() {
  // One epoch per process so timestamps from every thread share an origin.
  static const std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());
}

void Tracer::setBufferCapacity(size_t NumEvents) {
  std::lock_guard<std::mutex> Lock(Mu);
  Capacity = NumEvents > 0 ? NumEvents : 1;
}

namespace {
// Cached per-thread buffer pointer plus the tracer epoch it was acquired
// under; reset() bumps the epoch, invalidating every cache at once.
struct TlsSlot {
  TraceBuffer *Buf = nullptr;
  uint64_t Epoch = 0;
};
thread_local TlsSlot Slot;
} // namespace

TraceBuffer &Tracer::threadBuffer() {
  uint64_t Now = Epoch.load(std::memory_order_acquire);
  if (Slot.Buf && Slot.Epoch == Now)
    return *Slot.Buf;
  std::lock_guard<std::mutex> Lock(Mu);
  auto Tid = static_cast<uint32_t>(Buffers.size());
  Buffers.emplace_back(new TraceBuffer(Tid, Capacity));
  Slot.Buf = Buffers.back().get();
  Slot.Epoch = Epoch.load(std::memory_order_relaxed);
  return *Slot.Buf;
}

void ScopedSpan::open(const char *Name, const char *Cat) {
  if (On & Telemetry::TracingOn)
    Buf = &Tracer::instance().threadBuffer();
  Ev.Name = Name;
  Ev.Cat = Cat;
  Ev.StartNs = Tracer::nowNs();
}

void ScopedSpan::close() {
  // One end-time read feeds both records, so a phase's total is exactly
  // the sum of its spans' durations.
  Ev.DurNs = Tracer::nowNs() - Ev.StartNs;
  if (Buf)
    Buf->append(Ev);
  if (On & Telemetry::MetricsOn)
    Telemetry::metrics().recordPhase(Ev.Name, Ev.DurNs);
}

void Tracer::instant(const char *Name, const char *Cat) {
  if (!enabled())
    return;
  TraceEvent Ev;
  Ev.Name = Name;
  Ev.Cat = Cat;
  Ev.StartNs = nowNs();
  Ev.Instant = true;
  threadBuffer().append(Ev);
}

std::vector<const TraceBuffer *> Tracer::buffers() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<const TraceBuffer *> Out;
  Out.reserve(Buffers.size());
  for (const auto &B : Buffers)
    Out.push_back(B.get());
  return Out;
}

uint64_t Tracer::recordedTotal() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Total = 0;
  for (const auto &B : Buffers)
    Total += B->size();
  return Total;
}

uint64_t Tracer::droppedTotal() const {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Total = 0;
  for (const auto &B : Buffers)
    Total += B->dropped();
  return Total;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  Buffers.clear();
  Epoch.fetch_add(1, std::memory_order_acq_rel);
}
