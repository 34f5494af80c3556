//===- runtime/Observer.h - Execution observation hooks -------------------===//
//
// Part of the SBI project: a reproduction of "Scalable Statistical Bug
// Isolation" (Liblit et al., PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface through which the interpreter reports the dynamic events
/// that the paper's three instrumentation schemes observe (Section 2):
/// branch outcomes, scalar function-return values, and scalar assignments.
/// The interpreter calls these hooks unconditionally; sampling decisions
/// (the "coin flip" of the sampling transformation) are the observer's job,
/// which keeps the runtime layer independent of the instrument layer.
///
//===----------------------------------------------------------------------===//

#ifndef SBI_RUNTIME_OBSERVER_H
#define SBI_RUNTIME_OBSERVER_H

#include "lang/AST.h"
#include "runtime/Value.h"

#include <cstddef>
#include <cstdint>

namespace sbi {

/// Read-only access to variable storage at one moment of execution; lets
/// the scalar-pairs scheme read the in-scope variables y_i when x = ... is
/// executed. Locals are a raw span so engines that keep frame locals inside
/// a shared arena (the bytecode VM) can expose them without materializing a
/// vector; the view is transient and must not outlive the observer call.
class FrameView {
public:
  FrameView(const std::vector<Value> &Globals, const std::vector<Value> &Locals)
      : Globals(Globals), Locals(Locals.data()), NumLocals(Locals.size()) {}

  FrameView(const std::vector<Value> &Globals, const Value *Locals,
            size_t NumLocals)
      : Globals(Globals), Locals(Locals), NumLocals(NumLocals) {}

  const Value &get(VarSlot Slot) const {
    if (Slot.IsGlobal) {
      assert(Slot.Index >= 0 &&
             static_cast<size_t>(Slot.Index) < Globals.size() &&
             "variable slot out of range");
      return Globals[static_cast<size_t>(Slot.Index)];
    }
    assert(Slot.Index >= 0 && static_cast<size_t>(Slot.Index) < NumLocals &&
           "variable slot out of range");
    return Locals[static_cast<size_t>(Slot.Index)];
  }

private:
  const std::vector<Value> &Globals;
  const Value *Locals;
  size_t NumLocals;
};

/// The sampling fast-path handle an observer may expose so an execution
/// engine can hoist the geometric skip countdown (Section 2's sparse
/// sampling transformation) into its dispatch loop. It is one countdown per
/// AST node: how many more reaches of the node pass before any of its sites
/// is next due to sample. A reach whose countdown is neither 0 nor Uninit is
/// not due, and skipReach consumes it with one decrement, however many
/// sites the node carries. Otherwise the engine calls the observer: 0 means
/// some site is due, Uninit that this is the node's first reach of the run
/// (the observer seeds its sites' RNG streams). The observer then records
/// the due sites, redraws only those, and resets the countdown to the
/// nearest next sample. Its own entry points make the same skipReach test,
/// so each site draws at the same moments from the same stream whether or
/// not an engine uses the handle, and reports stay bit-identical.
struct SamplingAccel {
  /// Countdown value meaning "not reached yet this run".
  static constexpr uint64_t Uninit = UINT64_MAX;

  /// Per-node countdowns indexed by AST node id, owned by the observer and
  /// stable for its lifetime. Nodes at or past NumNodes always go to the
  /// observer.
  uint64_t *Countdown = nullptr;
  size_t NumNodes = 0;

  /// Consumes one reach of \p NodeId with a single decrement and returns
  /// true when the reach is not due; returns false, changing nothing, when
  /// the observer has to run.
  bool skipReach(int NodeId) const {
    auto Node = static_cast<size_t>(static_cast<uint32_t>(NodeId));
    if (Node >= NumNodes)
      return false;
    uint64_t &Left = Countdown[Node];
    if (Left == 0 || Left == Uninit)
      return false;
    --Left;
    return true;
  }
};

/// Dynamic-event callbacks keyed by AST node id.
class ExecutionObserver {
public:
  virtual ~ExecutionObserver();

  /// A conditional (if/while/for test or &&/|| left operand) evaluated to
  /// \p Taken at the node with id \p NodeId.
  virtual void onBranch(int NodeId, bool Taken);

  /// The call expression \p NodeId returned the scalar \p Result.
  virtual void onScalarReturn(int NodeId, int64_t Result);

  /// The assignment or initialized declaration \p NodeId stored the scalar
  /// \p NewValue into an int variable; \p Frame reads other variables.
  virtual void onScalarAssign(int NodeId, int64_t NewValue,
                              const FrameView &Frame);

  /// Optional sampling fast path (see SamplingAccel). The default — and any
  /// observer that must see every event — returns null, which puts engines
  /// on the always-call path. Engines query once per run.
  virtual const SamplingAccel *samplingAccel() const { return nullptr; }
};

} // namespace sbi

#endif // SBI_RUNTIME_OBSERVER_H
