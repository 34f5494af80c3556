//===- obs/Telemetry.h - Observability switches and JSON emitter ----------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The facade of the observability layer. Telemetry is off by default and
/// costs nothing on the hot paths when off:
///
///   - Both observability switches (telemetry here, tracing in
///     obs/Tracer.h) are bits of one atomic word, so ScopedSpan, the one
///     scope timer, checks both with a single relaxed load and otherwise
///     does no work.
///   - Execution engines count steps in a local (they must, for the step
///     limit) and flush into the registry once per run, only when enabled.
///   - With telemetry on, every ScopedSpan adds its count and duration to
///     the registry's phase named after the span.
///   - Optional dense instrumentation (the collector's reach counting) is
///     only switched on by layers that checked enabled() first.
///   - O(1)-per-campaign summary gauges are maintained unconditionally so
///     renderers (the HTML report header) always have them.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_OBS_TELEMETRY_H
#define SBI_OBS_TELEMETRY_H

#include "obs/Metrics.h"

#include <atomic>
#include <string>

namespace sbi {

class Telemetry {
public:
  /// The bits of switches(): telemetry (enabled()) and tracing
  /// (Tracer::enabled()).
  enum : unsigned { MetricsOn = 1u, TracingOn = 2u };

  /// Turns the optional instrumentation on or off process-wide.
  static void setEnabled(bool On) { setSwitch(MetricsOn, On); }
  static bool enabled() { return switches() & MetricsOn; }

  /// Both switches, read with one relaxed load.
  static unsigned switches() {
    return Switches.load(std::memory_order_relaxed);
  }

  /// Sets or clears one switch bit and leaves the other as it was.
  static void setSwitch(unsigned Bit, bool On) {
    if (On)
      Switches.fetch_or(Bit, std::memory_order_relaxed);
    else
      Switches.fetch_and(~Bit, std::memory_order_relaxed);
  }

  /// The process-wide registry (MetricsRegistry::global()).
  static MetricsRegistry &metrics() { return MetricsRegistry::global(); }

  /// Serializes the process-wide registry to JSON.
  static std::string toJson() { return metrics().toJson(); }

  /// Writes the process-wide registry to \p Path as JSON; false on I/O
  /// failure.
  static bool writeJson(const std::string &Path) {
    return metrics().writeJsonFile(Path);
  }

private:
  static std::atomic<unsigned> Switches;
};

} // namespace sbi

#endif // SBI_OBS_TELEMETRY_H
