//===- obs/TraceSink.cpp - Chrome trace_event JSON export -----------------===//

#include "obs/TraceSink.h"

#include "obs/Metrics.h"
#include "obs/Telemetry.h"
#include "obs/Tracer.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>

using namespace sbi;

namespace {

// One event plus enough ordering context to make the flush deterministic:
// buffer appends give each event a per-thread sequence number, and the
// global sort key (StartNs, DurNs desc, Tid, Seq) has no ties two distinct
// events can share.
struct OrderedEvent {
  const TraceEvent *Ev;
  uint32_t Tid;
  size_t Seq;
};

void appendEscaped(std::string &Out, const char *Text) {
  for (; *Text; ++Text) {
    char C = *Text;
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += format("\\u%04x", static_cast<unsigned char>(C));
    } else {
      Out += C;
    }
  }
}

// trace_event timestamps are microseconds; keep nanosecond precision as
// three decimals so adjacent VM spans stay distinguishable.
std::string micros(uint64_t Ns) {
  return format("%llu.%03u",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned>(Ns % 1000));
}

void appendArgs(std::string &Out, const TraceEvent &Ev) {
  Out += "\"args\":{";
  for (uint8_t I = 0; I < Ev.NumArgs; ++I) {
    if (I)
      Out += ',';
    Out += '"';
    appendEscaped(Out, Ev.ArgName[I]);
    Out += format("\":%llu", static_cast<unsigned long long>(Ev.ArgVal[I]));
  }
  Out += '}';
}

} // namespace

std::string sbi::traceToJson(const Tracer &T) {
  std::vector<const TraceBuffer *> Buffers = T.buffers();

  std::vector<OrderedEvent> Events;
  uint64_t Dropped = 0;
  for (const TraceBuffer *B : Buffers) {
    size_t N = B->size(); // Acquire: the first N slots are fully written.
    for (size_t I = 0; I < N; ++I)
      Events.push_back({&B->event(I), B->tid(), I});
    Dropped += B->dropped();
  }

  std::stable_sort(Events.begin(), Events.end(),
                   [](const OrderedEvent &A, const OrderedEvent &B) {
                     if (A.Ev->StartNs != B.Ev->StartNs)
                       return A.Ev->StartNs < B.Ev->StartNs;
                     // Longer spans first so parents precede children that
                     // begin at the same tick.
                     if (A.Ev->DurNs != B.Ev->DurNs)
                       return A.Ev->DurNs > B.Ev->DurNs;
                     if (A.Tid != B.Tid)
                       return A.Tid < B.Tid;
                     return A.Seq < B.Seq;
                   });

  if (Telemetry::enabled()) {
    // Gauges, not counters: flushing twice reports totals, not sums of
    // totals.
    static Gauge &RecordedGauge =
        MetricsRegistry::global().registerGauge("trace.events_recorded");
    static Gauge &DroppedGauge =
        MetricsRegistry::global().registerGauge("trace.events_dropped");
    RecordedGauge.set(static_cast<double>(Events.size()));
    DroppedGauge.set(static_cast<double>(Dropped));
  }

  std::string Out;
  Out.reserve(128 + Events.size() * 96);
  Out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  Out += format("\"recorded_events\":%llu,\"dropped_events\":%llu",
                static_cast<unsigned long long>(Events.size()),
                static_cast<unsigned long long>(Dropped));
  Out += "},\"traceEvents\":[\n";

  bool First = true;
  auto sep = [&] {
    if (!First)
      Out += ",\n";
    First = false;
  };

  sep();
  Out += "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{"
         "\"name\":\"sbi\"}}";
  for (const TraceBuffer *B : Buffers) {
    sep();
    Out += format("{\"ph\":\"M\",\"pid\":1,\"tid\":%u,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"sbi-%u\"}}",
                  B->tid(), B->tid());
  }

  for (const OrderedEvent &E : Events) {
    const TraceEvent &Ev = *E.Ev;
    sep();
    Out += "{\"name\":\"";
    appendEscaped(Out, Ev.Name ? Ev.Name : "");
    Out += "\",\"cat\":\"";
    appendEscaped(Out, Ev.Cat ? Ev.Cat : "");
    Out += format("\",\"pid\":1,\"tid\":%u,\"ts\":%s,", E.Tid,
                  micros(Ev.StartNs).c_str());
    if (Ev.Instant) {
      Out += "\"ph\":\"i\",\"s\":\"t\",";
    } else {
      Out += format("\"ph\":\"X\",\"dur\":%s,", micros(Ev.DurNs).c_str());
    }
    appendArgs(Out, Ev);
    Out += '}';
  }

  Out += "\n]}\n";
  return Out;
}

bool sbi::writeTraceFile(const Tracer &T, const std::string &Path) {
  std::string Json = traceToJson(T);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
  Ok = std::fclose(F) == 0 && Ok;
  return Ok;
}
