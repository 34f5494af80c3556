//===- tests/instrument/CallCounter.h - Counting observer for tests -------===//
//
// An observer that forwards every event to a ReportCollector and counts the
// calls an engine makes, in total and per AST node. Exposing the
// collector's fast-path handle lets the VM skip it exactly as it would skip
// the collector itself; hiding the handle makes the engine call on every
// reach, so the per-node counts become reach counts.
//
//===----------------------------------------------------------------------===//

#ifndef SBI_TESTS_INSTRUMENT_CALLCOUNTER_H
#define SBI_TESTS_INSTRUMENT_CALLCOUNTER_H

#include "instrument/Collector.h"

#include <map>

namespace sbi {

class CallCounter : public ExecutionObserver {
public:
  explicit CallCounter(ReportCollector &Inner, bool ExposeAccel = true)
      : Inner(Inner), ExposeAccel(ExposeAccel) {}

  void onBranch(int NodeId, bool Taken) override {
    count(NodeId);
    Inner.onBranch(NodeId, Taken);
  }
  void onScalarReturn(int NodeId, int64_t Result) override {
    count(NodeId);
    Inner.onScalarReturn(NodeId, Result);
  }
  void onScalarAssign(int NodeId, int64_t NewValue,
                      const FrameView &Frame) override {
    count(NodeId);
    Inner.onScalarAssign(NodeId, NewValue, Frame);
  }
  const SamplingAccel *samplingAccel() const override {
    return ExposeAccel ? Inner.samplingAccel() : nullptr;
  }

  uint64_t Calls = 0;
  std::map<int, uint64_t> CallsByNode;

private:
  void count(int NodeId) {
    ++Calls;
    ++CallsByNode[NodeId];
  }

  ReportCollector &Inner;
  bool ExposeAccel;
};

} // namespace sbi

#endif // SBI_TESTS_INSTRUMENT_CALLCOUNTER_H
