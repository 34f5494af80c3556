//===- obs/Metrics.cpp - Process-wide metrics registry --------------------===//

#include "obs/Metrics.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace sbi;

size_t Histogram::bucketIndex(uint64_t V) {
  return static_cast<size_t>(std::bit_width(V));
}

uint64_t Histogram::bucketFloor(size_t I) {
  return I == 0 ? 0 : 1ull << (I - 1);
}

void Histogram::record(uint64_t V) {
  Buckets[bucketIndex(V)].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(V, std::memory_order_relaxed);
  uint64_t Seen = Min.load(std::memory_order_relaxed);
  while (V < Seen &&
         !Min.compare_exchange_weak(Seen, V, std::memory_order_relaxed))
    ;
  Seen = Max.load(std::memory_order_relaxed);
  while (V > Seen &&
         !Max.compare_exchange_weak(Seen, V, std::memory_order_relaxed))
    ;
}

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry Registry;
  return Registry;
}

bool MetricsRegistry::nameTaken(const std::string &Name) const {
  return Counters.count(Name) || Gauges.count(Name) || Labels.count(Name) ||
         Histograms.count(Name);
}

template <typename T>
T &MetricsRegistry::registerIn(std::map<std::string, std::unique_ptr<T>> &Into,
                               const std::string &Name) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (nameTaken(Name)) {
    std::fprintf(stderr,
                 "sbi: MetricsRegistry: metric '%s' registered twice; each "
                 "layer must register its metrics once (aliasing would "
                 "silently merge unrelated measurements)\n",
                 Name.c_str());
    std::abort();
  }
  auto &Slot = Into[Name];
  Slot.reset(new T());
  return *Slot;
}

Counter &MetricsRegistry::registerCounter(const std::string &Name) {
  return registerIn(Counters, Name);
}
Gauge &MetricsRegistry::registerGauge(const std::string &Name) {
  return registerIn(Gauges, Name);
}
Label &MetricsRegistry::registerLabel(const std::string &Name) {
  return registerIn(Labels, Name);
}
Histogram &MetricsRegistry::registerHistogram(const std::string &Name) {
  return registerIn(Histograms, Name);
}

const Counter *MetricsRegistry::findCounter(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Counters.find(Name);
  return It == Counters.end() ? nullptr : It->second.get();
}
const Gauge *MetricsRegistry::findGauge(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Gauges.find(Name);
  return It == Gauges.end() ? nullptr : It->second.get();
}
const Label *MetricsRegistry::findLabel(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Labels.find(Name);
  return It == Labels.end() ? nullptr : It->second.get();
}
const Histogram *
MetricsRegistry::findHistogram(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Histograms.find(Name);
  return It == Histograms.end() ? nullptr : It->second.get();
}

void MetricsRegistry::recordPhase(std::string_view Name, uint64_t Nanos) {
  std::lock_guard<std::mutex> Lock(Mu);
  // Heterogeneous lookup: a phase that already exists costs no string.
  auto It = Phases.find(Name);
  if (It == Phases.end())
    It = Phases.emplace(std::string(Name), PhaseStats{}).first;
  ++It->second.Count;
  It->second.TotalNanos += Nanos;
}

PhaseStats MetricsRegistry::phase(std::string_view Name) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Phases.find(Name);
  return It == Phases.end() ? PhaseStats{} : It->second;
}

namespace {

void appendEscaped(std::string &Out, const std::string &Text) {
  for (char C : Text) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void appendKey(std::string &Out, const std::string &Name) {
  Out += '"';
  appendEscaped(Out, Name);
  Out += "\": ";
}

std::string formatDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  return Buf;
}

} // namespace

std::string MetricsRegistry::toJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\n";

  Out += "  \"phases\": {";
  bool First = true;
  for (const auto &[Path, Stats] : Phases) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    ";
    appendKey(Out, Path);
    Out += "{\"count\": " + std::to_string(Stats.Count) +
           ", \"total_ms\": " +
           formatDouble(static_cast<double>(Stats.TotalNanos) / 1e6) + "}";
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"counters\": {";
  First = true;
  for (const auto &[Name, C] : Counters) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    ";
    appendKey(Out, Name);
    Out += std::to_string(C->value());
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"gauges\": {";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    ";
    appendKey(Out, Name);
    Out += formatDouble(G->value());
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"labels\": {";
  First = true;
  for (const auto &[Name, L] : Labels) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    ";
    appendKey(Out, Name);
    Out += '"';
    appendEscaped(Out, L->value());
    Out += '"';
  }
  Out += First ? "},\n" : "\n  },\n";

  Out += "  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    ";
    appendKey(Out, Name);
    uint64_t Count = H->count();
    Out += "{\"count\": " + std::to_string(Count) +
           ", \"sum\": " + std::to_string(H->sum());
    if (Count > 0)
      Out += ", \"min\": " + std::to_string(H->min()) +
             ", \"max\": " + std::to_string(H->max());
    Out += ", \"buckets\": [";
    bool FirstBucket = true;
    for (size_t I = 0; I < Histogram::NumBuckets; ++I) {
      uint64_t N = H->bucketCount(I);
      if (N == 0)
        continue;
      if (!FirstBucket)
        Out += ", ";
      FirstBucket = false;
      Out += "{\"ge\": " + std::to_string(Histogram::bucketFloor(I)) +
             ", \"count\": " + std::to_string(N) + "}";
    }
    Out += "]}";
  }
  Out += First ? "}\n" : "\n  }\n";

  Out += "}";
  return Out;
}

bool MetricsRegistry::writeJsonFile(const std::string &Path) const {
  std::string Json = toJson();
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  bool Ok = std::fwrite(Json.data(), 1, Json.size(), F) == Json.size();
  Ok = std::fputc('\n', F) != EOF && Ok;
  Ok = std::fclose(F) == 0 && Ok;
  return Ok;
}
