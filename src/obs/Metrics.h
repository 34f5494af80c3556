//===- obs/Metrics.h - Process-wide metrics registry ----------------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage half of the observability layer: a zero-dependency registry
/// of named instruments that every pipeline stage (campaign driver,
/// analysis engines, execution engines, report renderers) shares.
///
///   - Counter:   monotonically increasing uint64, relaxed-atomic, safe to
///                bump from any number of campaign workers.
///   - Gauge:     a last-write-wins double ("runs per second", realized
///                sampling rates).
///   - Label:     a last-write-wins string (sampling-plan name).
///   - Histogram: log2-bucketed uint64 distribution (per-run step counts,
///                overrun pads, per-worker run counts). Bucket i holds the
///                values whose bit width is i: bucket 0 is exactly {0},
///                bucket 1 is {1}, bucket 2 is [2,3], ... bucket 64 is
///                [2^63, 2^64-1].
///   - Phases:    call count and accumulated wall time per span name,
///                added by each ScopedSpan (obs/Tracer.h) that closes
///                while telemetry is on. Phase keys are therefore exactly
///                the span names a trace of the same run holds.
///
/// Instruments are registered once by name and live for the process;
/// registering the same name twice aborts with a diagnostic, so two layers
/// can never silently alias one metric. Pipeline code therefore registers
/// through function-local statics and may run any number of campaigns per
/// process. The whole registry serializes to JSON (see toJson) for
/// `sbi --metrics-out=FILE` and the bench binaries.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_OBS_METRICS_H
#define SBI_OBS_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace sbi {

class MetricsRegistry;

/// Monotonic event count; relaxed atomics make it safe from any thread.
class Counter {
public:
  void add(uint64_t N = 1) { Val.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Val.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> Val{0};
};

/// Last-write-wins double.
class Gauge {
public:
  void set(double V) { Val.store(V, std::memory_order_relaxed); }
  double value() const { return Val.load(std::memory_order_relaxed); }

private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> Val{0.0};
};

/// Last-write-wins string (mutex-guarded; set rarely, read at emit time).
class Label {
public:
  void set(std::string V) {
    std::lock_guard<std::mutex> Lock(Mu);
    Val = std::move(V);
  }
  std::string value() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Val;
  }

private:
  friend class MetricsRegistry;
  Label() = default;
  mutable std::mutex Mu;
  std::string Val;
};

/// Log2-bucketed distribution of uint64 samples.
class Histogram {
public:
  /// Bucket indices are bit widths: 0 (value 0) through 64 (top half of
  /// the uint64 range).
  static constexpr size_t NumBuckets = 65;

  /// Index of the bucket \p V falls into (its bit width).
  static size_t bucketIndex(uint64_t V);

  /// Smallest value of bucket \p I (0, 1, 2, 4, 8, ...).
  static uint64_t bucketFloor(size_t I);

  void record(uint64_t V);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Undefined (returns UINT64_MAX / 0 respectively) when count() == 0.
  uint64_t min() const { return Min.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  uint64_t bucketCount(size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

private:
  friend class MetricsRegistry;
  Histogram() = default;
  std::array<std::atomic<uint64_t>, NumBuckets> Buckets{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
};

/// Calls and wall time accumulated under one phase (span) name.
struct PhaseStats {
  uint64_t Count = 0;
  uint64_t TotalNanos = 0;
};

/// Named instruments, registered once each, plus phase timings. One
/// process-wide instance backs the pipeline (global()); tests may create
/// their own isolated registries.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  /// The process-wide registry the pipeline reports into.
  static MetricsRegistry &global();

  /// Each name may be registered exactly once across all four instrument
  /// kinds; a duplicate aborts with a diagnostic naming the metric.
  Counter &registerCounter(const std::string &Name);
  Gauge &registerGauge(const std::string &Name);
  Label &registerLabel(const std::string &Name);
  Histogram &registerHistogram(const std::string &Name);

  /// Lookup by name; null when absent (or registered as another kind).
  const Counter *findCounter(const std::string &Name) const;
  const Gauge *findGauge(const std::string &Name) const;
  const Label *findLabel(const std::string &Name) const;
  const Histogram *findHistogram(const std::string &Name) const;

  /// Adds one call of \p Nanos wall time to phase \p Name (phases need
  /// no registration).
  void recordPhase(std::string_view Name, uint64_t Nanos);

  /// Phase stats for \p Name; {0,0} when the phase never ran.
  PhaseStats phase(std::string_view Name) const;

  /// The whole registry as one deterministic (name-sorted) JSON object
  /// with "phases", "counters", "gauges", "labels", and "histograms" keys.
  std::string toJson() const;

  /// Writes toJson() (plus a trailing newline) to \p Path; false on I/O
  /// failure.
  bool writeJsonFile(const std::string &Path) const;

private:
  template <typename T>
  T &registerIn(std::map<std::string, std::unique_ptr<T>> &Into,
                const std::string &Name);
  bool nameTaken(const std::string &Name) const;

  mutable std::mutex Mu;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Label>> Labels;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
  std::map<std::string, PhaseStats, std::less<>> Phases;
};

} // namespace sbi

#endif // SBI_OBS_METRICS_H
