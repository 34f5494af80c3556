//===- vm/VM.cpp - MicroC bytecode virtual machine -------------------------===//
//
// The dispatch loop runs over CompiledProgram::Flat — every chunk fused and
// concatenated with absolute jump targets — in one of two interchangeable
// forms selected at configure time:
//
//   - Direct-threaded (SBI_VM_COMPUTED_GOTO): each handler ends by jumping
//     through a label table indexed by the next opcode, so the indirect
//     branch is replicated per handler and the branch predictor learns the
//     per-opcode successor distribution. GCC/Clang only.
//   - Portable switch: the classic fetch/switch loop, for compilers without
//     labels-as-values and for the forced-fallback CI configuration.
//
// Handler bodies are written once and stamped into whichever skeleton is
// active via the VM_CASE/VM_NEXT macros; observable behaviour is identical
// by construction, and the engine differential tests hold both forms to the
// interpreter's semantics.
//
// Frames do not own locals: all locals live in one arena vector, each frame
// addressing a contiguous [LocalsBase, LocalsBase + NumLocals) slice, so a
// call is an arena extension instead of a vector allocation. The arena only
// grows inside Call (which refreshes the cached base pointer) and shrinks
// inside Return (which never reallocates), so the pointer stays valid
// between frame changes.
//
// Sampling fast path: when the observer exposes a SamplingAccel, an
// observed event is first offered to its per-node countdown. A reach that
// is not due is consumed by one in-place decrement — the decrement
// ReportCollector's own entry point would have applied — whatever the
// node's fan width. The observer virtual call happens only when the
// countdown is exhausted (some site of the node is due) or uninitialized
// (the node's first reach this run, which seeds its sites' RNG streams).
// Reports therefore stay bit-identical at fixed seeds.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "lang/Intrinsics.h"
#include "obs/Telemetry.h"
#include "obs/Tracer.h"
#include "runtime/Semantics.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace sbi;

namespace {

/// Inline int x int evaluation of \p Op, mirroring semBinaryOp exactly
/// (wrapping arithmetic, INT64_MIN / -1 results, int Eq/Ne as value
/// equality). Returns false — leaving the slow semBinaryOp call to run and
/// trap — only for division/remainder by zero. And/Or never reach Binary.
inline bool intBinFast(BinaryOp Op, int64_t A, int64_t B, int64_t &R) {
  auto WA = static_cast<uint64_t>(A);
  auto WB = static_cast<uint64_t>(B);
  switch (Op) {
  case BinaryOp::Add:
    R = static_cast<int64_t>(WA + WB);
    return true;
  case BinaryOp::Sub:
    R = static_cast<int64_t>(WA - WB);
    return true;
  case BinaryOp::Mul:
    R = static_cast<int64_t>(WA * WB);
    return true;
  case BinaryOp::Div:
    if (B == 0)
      return false;
    R = (A == INT64_MIN && B == -1) ? INT64_MIN : A / B;
    return true;
  case BinaryOp::Rem:
    if (B == 0)
      return false;
    R = (A == INT64_MIN && B == -1) ? 0 : A % B;
    return true;
  case BinaryOp::Lt:
    R = A < B ? 1 : 0;
    return true;
  case BinaryOp::Le:
    R = A <= B ? 1 : 0;
    return true;
  case BinaryOp::Gt:
    R = A > B ? 1 : 0;
    return true;
  case BinaryOp::Ge:
    R = A >= B ? 1 : 0;
    return true;
  case BinaryOp::Eq:
    R = A == B ? 1 : 0;
    return true;
  case BinaryOp::Ne:
    R = A != B ? 1 : 0;
    return true;
  default:
    return false;
  }
}

/// Inline declared-kind admission test, mirroring semCheckKind's table.
inline bool kindOk(VarKind DeclaredKind, const Value &V) {
  switch (DeclaredKind) {
  case VarKind::Int:
    return V.isInt();
  case VarKind::Str:
    return V.isStr() || V.isNull();
  case VarKind::Arr:
    return V.isArr() || V.isNull();
  case VarKind::Rec:
    return V.isRec() || V.isNull();
  }
  return false;
}

class VM final : public EvalSink {
public:
  VM(const CompiledProgram &Compiled, const RunConfig &Config)
      : Compiled(Compiled), Config(Config) {
    Operands.reserve(256);
    LocalsArena.reserve(1024);
    Frames.reserve(static_cast<size_t>(std::max(Config.MaxCallDepth, 1)));
  }

  RunOutcome run();

  // --- EvalSink -----------------------------------------------------------
  void trap(TrapKind Kind, std::string Message) override {
    if (Stopped)
      return;
    Stopped = true;
    Outcome.Trap = Kind;
    Outcome.TrapLine = CurLine;
    Outcome.TrapMessage = std::move(Message);
    captureStack();
  }

  void emitOutput(const std::string &Text) override {
    semAppendOutput(Outcome.Output, Text);
  }

  void exitRun(int Code) override {
    Outcome.ExitCode = Code;
    Stopped = true;
  }

  void recordBug(int BugId) override {
    Outcome.BugsTriggered.push_back(BugId);
  }

  const std::vector<std::string> &inputArgs() const override {
    return Config.Args;
  }

  size_t overrunPad() const override { return Config.OverrunPad; }

private:
  /// A call record. Locals live in LocalsArena, not here, so frames are
  /// plain words and a push costs no allocation.
  struct Frame {
    const Chunk *C = nullptr; ///< For stack-trace names and NumLocals.
    size_t LocalsBase = 0;    ///< This frame's slice of LocalsArena.
    size_t RetPc = 0;         ///< Absolute pc to resume the caller at.
    /// Line of the call instruction (for outer stack frames).
    int CallLine = 0;
  };

  void captureStack();
  void execute(size_t StartPc, const Chunk &Entry);

  /// Pops the operand stack; underflow is a hard BadBytecode trap (not an
  /// assert) so corrupted or hand-mangled bytecode cannot read freed
  /// memory in Release builds — the same defensive posture as the
  /// MaxCallDepth guard.
  Value pop() {
    if (Operands.empty()) {
      trap(TrapKind::BadBytecode, "operand stack underflow");
      return Value();
    }
    Value V = std::move(Operands.back());
    Operands.pop_back();
    return V;
  }

  /// True when the observed event at \p NodeId is consumed without calling
  /// the observer: the node is not due, and one decrement of its countdown
  /// — the decrement the observer itself would apply — records the skip,
  /// however many sites the node carries.
  bool sampleSkip(int NodeId) { return Accel.skipReach(NodeId); }

  void observeBranch(int NodeId, bool Taken) {
    if (Config.Observer && !sampleSkip(NodeId))
      Config.Observer->onBranch(NodeId, Taken);
  }

  const CompiledProgram &Compiled;
  const RunConfig &Config;
  /// The observer's countdowns, copied once per run; empty (every reach
  /// goes to the observer) when it exposes none.
  SamplingAccel Accel;
  RunOutcome Outcome;
  bool Stopped = false;
  std::vector<Value> Globals;
  std::vector<Value> Operands;
  std::vector<Value> LocalsArena;
  std::vector<Frame> Frames;
  uint64_t Steps = 0;
  int CurLine = 0;
};

} // namespace

void VM::captureStack() {
  Outcome.StackTrace.clear();
  int InnerLine = CurLine;
  for (auto It = Frames.rbegin(); It != Frames.rend(); ++It) {
    Outcome.StackTrace.push_back(
        format("%s@%d", It->C->Name.c_str(), InnerLine));
    InnerLine = It->CallLine;
  }
}

RunOutcome VM::run() {
  Globals.resize(Compiled.NumGlobals);
  if (const SamplingAccel *Handle =
          Config.Observer ? Config.Observer->samplingAccel() : nullptr)
    Accel = *Handle;
  execute(Compiled.InitStart, Compiled.InitChunk);

  if (!Stopped) {
    assert(Compiled.MainChunk >= 0);
    auto Main = static_cast<size_t>(Compiled.MainChunk);
    execute(Compiled.FlatStart[Main], Compiled.Chunks[Main]);
    if (!Stopped && !Operands.empty()) {
      Value Result = pop();
      if (Result.isInt())
        Outcome.ExitCode = static_cast<int>(Result.asInt());
    }
  }

  std::sort(Outcome.BugsTriggered.begin(), Outcome.BugsTriggered.end());
  Outcome.BugsTriggered.erase(std::unique(Outcome.BugsTriggered.begin(),
                                          Outcome.BugsTriggered.end()),
                              Outcome.BugsTriggered.end());
  Outcome.Steps = Steps;
  // Telemetry is a once-per-run flush of the locally maintained dispatch
  // count; the dispatch loop itself carries no telemetry.
  if (Telemetry::enabled()) {
    static Counter &RunsCounter =
        Telemetry::metrics().registerCounter("vm.runs");
    static Counter &DispatchCounter =
        Telemetry::metrics().registerCounter("vm.dispatches");
    RunsCounter.add(1);
    DispatchCounter.add(Steps);
  }
  return std::move(Outcome);
}

// The two dispatch skeletons. VM_NEXT() ends a handler: it performs the
// common per-instruction prologue (stop check, pc bounds check, fetch, line
// bookkeeping, step budget) and transfers to the next handler — via the
// label table under computed goto, via the enclosing for/switch otherwise.
#if SBI_VM_COMPUTED_GOTO

#define VM_PROLOGUE()                                                        \
  do {                                                                       \
    if (Stopped)                                                             \
      return;                                                                \
    if (Pc >= CodeSize) {                                                    \
      trap(TrapKind::BadBytecode, "program counter out of range");           \
      return;                                                                \
    }                                                                        \
    In = Code + Pc;                                                          \
    ++Pc;                                                                    \
    CurLine = In->Line;                                                      \
    if (++Steps >= Config.StepLimit) {                                       \
      trap(TrapKind::StepLimit, "step limit exceeded");                      \
      return;                                                                \
    }                                                                        \
  } while (0)

#define VM_CASE(name) Op_##name:
#define VM_NEXT()                                                            \
  do {                                                                       \
    VM_PROLOGUE();                                                           \
    goto *Labels[static_cast<size_t>(In->Op)];                               \
  } while (0)

#else // Portable switch fallback.

#define VM_CASE(name) case Opcode::name:
#define VM_NEXT() break

#endif

void VM::execute(size_t StartPc, const Chunk &Entry) {
  Operands.clear();
  Frames.clear();
  LocalsArena.clear();
  LocalsArena.resize(static_cast<size_t>(Entry.NumLocals));
  Frame Top;
  Top.C = &Entry;
  Top.CallLine = Entry.Line;
  Frames.push_back(Top);

  const Instr *Code = Compiled.Flat.data();
  const size_t CodeSize = Compiled.Flat.size();
  const Instr *In = nullptr;
  Value *Locals = LocalsArena.data();
  size_t Pc = StartPc;

#if SBI_VM_COMPUTED_GOTO
  static const void *const Labels[] = {
#define SBI_VM_OPCODE_LABEL(name) &&Op_##name,
      SBI_VM_OPCODES(SBI_VM_OPCODE_LABEL)
#undef SBI_VM_OPCODE_LABEL
  };
  VM_NEXT();
#else
  for (;;) {
    if (Stopped)
      return;
    if (Pc >= CodeSize) {
      trap(TrapKind::BadBytecode, "program counter out of range");
      return;
    }
    In = Code + Pc;
    ++Pc;
    CurLine = In->Line;
    if (++Steps >= Config.StepLimit) {
      trap(TrapKind::StepLimit, "step limit exceeded");
      return;
    }
    switch (In->Op) {
#endif

  VM_CASE(PushInt) {
    Operands.push_back(
        Value::makeInt(Compiled.IntPool[static_cast<size_t>(In->A)]));
  }
  VM_NEXT();

  VM_CASE(PushStr) {
    Operands.push_back(Compiled.StrValues[static_cast<size_t>(In->A)]);
  }
  VM_NEXT();

  VM_CASE(PushNull) {
    Operands.push_back(Value::makeNull());
  }
  VM_NEXT();

  VM_CASE(PushUnit) {
    Operands.push_back(Value());
  }
  VM_NEXT();

  VM_CASE(Pop) {
    pop();
  }
  VM_NEXT();

  VM_CASE(Dup) {
    if (Operands.empty())
      trap(TrapKind::BadBytecode, "operand stack underflow");
    else
      Operands.push_back(Operands.back());
  }
  VM_NEXT();

  VM_CASE(LoadLocal) {
    const Value &V = Locals[static_cast<size_t>(In->A)];
    if (V.isUnit()) {
      trap(TrapKind::KindError,
           format("use of uninitialized variable '%s'",
                  Compiled.StrPool[static_cast<size_t>(In->B)].c_str()));
    } else {
      Operands.push_back(V);
    }
  }
  VM_NEXT();

  VM_CASE(LoadGlobal) {
    const Value &V = Globals[static_cast<size_t>(In->A)];
    if (V.isUnit()) {
      trap(TrapKind::KindError,
           format("use of uninitialized variable '%s'",
                  Compiled.StrPool[static_cast<size_t>(In->B)].c_str()));
    } else {
      Operands.push_back(V);
    }
  }
  VM_NEXT();

  VM_CASE(StoreLocal) {
    if (!Operands.empty() &&
        kindOk(static_cast<VarKind>(In->C), Operands.back())) {
      Locals[static_cast<size_t>(In->A)] = std::move(Operands.back());
      Operands.pop_back();
      VM_NEXT();
    }
    Value V = pop();
    if (!Stopped &&
        semCheckKind(static_cast<VarKind>(In->C), V,
                     Compiled.StrPool[static_cast<size_t>(In->B)], *this))
      Locals[static_cast<size_t>(In->A)] = std::move(V);
  }
  VM_NEXT();

  VM_CASE(StoreGlobal) {
    if (!Operands.empty() &&
        kindOk(static_cast<VarKind>(In->C), Operands.back())) {
      Globals[static_cast<size_t>(In->A)] = std::move(Operands.back());
      Operands.pop_back();
      VM_NEXT();
    }
    Value V = pop();
    if (!Stopped &&
        semCheckKind(static_cast<VarKind>(In->C), V,
                     Compiled.StrPool[static_cast<size_t>(In->B)], *this))
      Globals[static_cast<size_t>(In->A)] = std::move(V);
  }
  VM_NEXT();

  VM_CASE(Binary) {
    size_t N = Operands.size();
    if (N >= 2 && Operands[N - 2].isInt() && Operands[N - 1].isInt()) {
      int64_t R;
      if (intBinFast(static_cast<BinaryOp>(In->A), Operands[N - 2].asInt(),
                     Operands[N - 1].asInt(), R)) {
        Operands.pop_back();
        Operands.back() = Value::makeInt(R);
        VM_NEXT();
      }
    }
    Value Rhs = pop();
    Value Lhs = pop();
    Operands.push_back(
        semBinaryOp(static_cast<BinaryOp>(In->A), Lhs, Rhs, *this));
  }
  VM_NEXT();

  VM_CASE(Unary) {
    Value V = pop();
    Operands.push_back(semUnaryOp(static_cast<UnaryOp>(In->A), V, *this));
  }
  VM_NEXT();

  VM_CASE(ToBool) {
    if (!Operands.empty() && Operands.back().isInt()) {
      Operands.back() =
          Value::makeInt(Operands.back().asInt() != 0 ? 1 : 0);
      VM_NEXT();
    }
    Value V = pop();
    bool B = semTruthy(V, *this);
    Operands.push_back(Value::makeInt(B ? 1 : 0));
  }
  VM_NEXT();

  VM_CASE(Jump) {
    Pc = static_cast<size_t>(In->A);
  }
  VM_NEXT();

  VM_CASE(ObsJumpIfFalse) {
    if (!Operands.empty() && Operands.back().isInt()) {
      bool Taken = Operands.back().asInt() != 0;
      Operands.pop_back();
      observeBranch(In->B, Taken);
      if (!Taken)
        Pc = static_cast<size_t>(In->A);
      VM_NEXT();
    }
    Value V = pop();
    bool Taken = semTruthy(V, *this);
    if (!Stopped) {
      observeBranch(In->B, Taken);
      if (!Taken)
        Pc = static_cast<size_t>(In->A);
    }
  }
  VM_NEXT();

  VM_CASE(ObsJumpIfTrue) {
    if (!Operands.empty() && Operands.back().isInt()) {
      bool Taken = Operands.back().asInt() != 0;
      Operands.pop_back();
      observeBranch(In->B, Taken);
      if (Taken)
        Pc = static_cast<size_t>(In->A);
      VM_NEXT();
    }
    Value V = pop();
    bool Taken = semTruthy(V, *this);
    if (!Stopped) {
      observeBranch(In->B, Taken);
      if (Taken)
        Pc = static_cast<size_t>(In->A);
    }
  }
  VM_NEXT();

  VM_CASE(JumpIfFalse) {
    if (!Operands.empty() && Operands.back().isInt()) {
      bool Taken = Operands.back().asInt() != 0;
      Operands.pop_back();
      if (!Taken)
        Pc = static_cast<size_t>(In->A);
      VM_NEXT();
    }
    Value V = pop();
    bool Taken = semTruthy(V, *this);
    if (!Stopped && !Taken)
      Pc = static_cast<size_t>(In->A);
  }
  VM_NEXT();

  VM_CASE(JumpIfTrue) {
    if (!Operands.empty() && Operands.back().isInt()) {
      bool Taken = Operands.back().asInt() != 0;
      Operands.pop_back();
      if (Taken)
        Pc = static_cast<size_t>(In->A);
      VM_NEXT();
    }
    Value V = pop();
    bool Taken = semTruthy(V, *this);
    if (!Stopped && Taken)
      Pc = static_cast<size_t>(In->A);
  }
  VM_NEXT();

  VM_CASE(IndexLoad) {
    Value Subscript = pop();
    Value Base = pop();
    Value *Element = semResolveElement(Base, Subscript, *this);
    Operands.push_back(Element ? *Element : Value());
  }
  VM_NEXT();

  VM_CASE(IndexStore) {
    Value V = pop();
    Value Subscript = pop();
    Value Base = pop();
    if (Value *Element = semResolveElement(Base, Subscript, *this))
      *Element = std::move(V);
  }
  VM_NEXT();

  VM_CASE(FieldLoad) {
    Value Base = pop();
    Operands.push_back(semLoadField(
        Base, Compiled.StrPool[static_cast<size_t>(In->A)], *this));
  }
  VM_NEXT();

  VM_CASE(FieldStore) {
    Value V = pop();
    Value Base = pop();
    semStoreField(Base, Compiled.StrPool[static_cast<size_t>(In->A)],
                  std::move(V), *this);
  }
  VM_NEXT();

  VM_CASE(NewRec) {
    const RecordDecl *Decl = Compiled.Records[static_cast<size_t>(In->A)];
    auto Rec = std::make_shared<RecordObj>();
    Rec->Decl = Decl;
    Rec->Fields.assign(Decl->Fields.size(), Value::makeNull());
    Operands.push_back(Value::makeRec(std::move(Rec)));
  }
  VM_NEXT();

  VM_CASE(Call) {
    const Chunk &Callee = Compiled.Chunks[static_cast<size_t>(In->A)];
    if (static_cast<int>(Frames.size()) >= Config.MaxCallDepth) {
      trap(TrapKind::StackOverflow,
           format("call depth exceeded calling '%s'", Callee.Name.c_str()));
    } else {
      size_t Base = LocalsArena.size();
      LocalsArena.resize(Base + static_cast<size_t>(Callee.NumLocals));
      size_t NumArgs = static_cast<size_t>(In->B);
      for (size_t I = NumArgs; I > 0; --I)
        LocalsArena[Base + I - 1] = pop();
      if (!Stopped) {
        Frame NewFrame;
        NewFrame.C = &Callee;
        NewFrame.LocalsBase = Base;
        NewFrame.RetPc = Pc;
        NewFrame.CallLine = In->Line;
        Frames.push_back(NewFrame);
        Locals = LocalsArena.data() + Base;
        Pc = static_cast<size_t>(Compiled.FlatStart[static_cast<size_t>(In->A)]);
      }
    }
  }
  VM_NEXT();

  VM_CASE(CallIntrinsic) {
    size_t NumArgs = static_cast<size_t>(In->B);
    if (Operands.size() < NumArgs) {
      trap(TrapKind::BadBytecode, "operand stack underflow");
    } else {
      // The arguments already sit contiguously on top of the operand
      // stack, in call order — evaluate the intrinsic in place, then
      // replace them with the result. No intrinsic touches the operand
      // stack, so the pointer stays valid across the call.
      Value Result =
          semCallIntrinsic(In->A, intrinsicInfo(In->A).Name,
                           Operands.data() + (Operands.size() - NumArgs),
                           *this);
      Operands.resize(Operands.size() - NumArgs);
      Operands.push_back(std::move(Result));
    }
  }
  VM_NEXT();

  VM_CASE(ObserveCall) {
    if (Operands.empty())
      trap(TrapKind::BadBytecode, "operand stack underflow");
    else if (Config.Observer && Operands.back().isInt() &&
             !sampleSkip(In->A))
      Config.Observer->onScalarReturn(In->A, Operands.back().asInt());
  }
  VM_NEXT();

  VM_CASE(ObserveAssign) {
    Value V = pop();
    if (Config.Observer && V.isInt() && !sampleSkip(In->A))
      Config.Observer->onScalarAssign(
          In->A, V.asInt(),
          FrameView(Globals, Locals,
                    static_cast<size_t>(Frames.back().C->NumLocals)));
  }
  VM_NEXT();

  VM_CASE(Return) {
    Value Result = pop();
    Frame Done = Frames.back();
    Frames.pop_back();
    LocalsArena.resize(Done.LocalsBase); // Shrink: never reallocates.
    Operands.push_back(std::move(Result));
    if (Frames.empty())
      return;
    Pc = Done.RetPc;
    Locals = LocalsArena.data() + Frames.back().LocalsBase;
  }
  VM_NEXT();

  VM_CASE(Halt) {
    Frames.clear();
    return;
  }
  VM_NEXT();

  // The fused LoadLocal+conditional-jump handlers read the local in place:
  // an int local (the overwhelmingly common case — loop counters and flag
  // tests) branches with zero operand-stack traffic. The unfused sequence's
  // trap order is preserved: uninitialized (Unit) locals trap as the load
  // would, non-int non-unit locals trap through semTruthy as the jump
  // would.
  VM_CASE(LocalObsJumpIfFalse) {
    const Value &V = Locals[static_cast<size_t>(In->C)];
    if (V.isInt()) {
      bool Taken = V.asInt() != 0;
      observeBranch(In->B, Taken);
      if (!Taken)
        Pc = static_cast<size_t>(In->A);
    } else if (V.isUnit()) {
      trap(TrapKind::KindError,
           format("use of uninitialized variable '%s'",
                  Compiled.StrPool[static_cast<size_t>(In->D)].c_str()));
    } else {
      semTruthy(V, *this); // Traps KindError.
    }
  }
  VM_NEXT();

  VM_CASE(LocalObsJumpIfTrue) {
    const Value &V = Locals[static_cast<size_t>(In->C)];
    if (V.isInt()) {
      bool Taken = V.asInt() != 0;
      observeBranch(In->B, Taken);
      if (Taken)
        Pc = static_cast<size_t>(In->A);
    } else if (V.isUnit()) {
      trap(TrapKind::KindError,
           format("use of uninitialized variable '%s'",
                  Compiled.StrPool[static_cast<size_t>(In->D)].c_str()));
    } else {
      semTruthy(V, *this); // Traps KindError.
    }
  }
  VM_NEXT();

  VM_CASE(LocalJumpIfFalse) {
    const Value &V = Locals[static_cast<size_t>(In->C)];
    if (V.isInt()) {
      if (V.asInt() == 0)
        Pc = static_cast<size_t>(In->A);
    } else if (V.isUnit()) {
      trap(TrapKind::KindError,
           format("use of uninitialized variable '%s'",
                  Compiled.StrPool[static_cast<size_t>(In->D)].c_str()));
    } else {
      semTruthy(V, *this); // Traps KindError.
    }
  }
  VM_NEXT();

  VM_CASE(LocalJumpIfTrue) {
    const Value &V = Locals[static_cast<size_t>(In->C)];
    if (V.isInt()) {
      if (V.asInt() != 0)
        Pc = static_cast<size_t>(In->A);
    } else if (V.isUnit()) {
      trap(TrapKind::KindError,
           format("use of uninitialized variable '%s'",
                  Compiled.StrPool[static_cast<size_t>(In->D)].c_str()));
    } else {
      semTruthy(V, *this); // Traps KindError.
    }
  }
  VM_NEXT();

  VM_CASE(PushIntBinary) {
    int64_t K = Compiled.IntPool[static_cast<size_t>(In->B)];
    if (!Operands.empty() && Operands.back().isInt()) {
      int64_t R;
      if (intBinFast(static_cast<BinaryOp>(In->A), Operands.back().asInt(),
                     K, R)) {
        Operands.back() = Value::makeInt(R);
        VM_NEXT();
      }
    }
    Value Rhs = Value::makeInt(K);
    Value Lhs = pop();
    Operands.push_back(
        semBinaryOp(static_cast<BinaryOp>(In->A), Lhs, Rhs, *this));
  }
  VM_NEXT();

  VM_CASE(LocalBinary) {
    const Value &Rhs = Locals[static_cast<size_t>(In->B)];
    if (Rhs.isInt() && !Operands.empty() && Operands.back().isInt()) {
      int64_t R;
      if (intBinFast(static_cast<BinaryOp>(In->A), Operands.back().asInt(),
                     Rhs.asInt(), R)) {
        Operands.back() = Value::makeInt(R);
        VM_NEXT();
      }
    }
    if (Rhs.isUnit()) {
      trap(TrapKind::KindError,
           format("use of uninitialized variable '%s'",
                  Compiled.StrPool[static_cast<size_t>(In->D)].c_str()));
    } else {
      Value Lhs = pop();
      Operands.push_back(
          semBinaryOp(static_cast<BinaryOp>(In->A), Lhs, Rhs, *this));
    }
  }
  VM_NEXT();

#if !SBI_VM_COMPUTED_GOTO
    }
  }
#endif
}

#undef VM_CASE
#undef VM_NEXT
#ifdef VM_PROLOGUE
#undef VM_PROLOGUE
#endif

RunOutcome sbi::runCompiled(const CompiledProgram &Compiled,
                            const RunConfig &Config) {
  ScopedSpan Span("vm_execute", "vm");
  RunOutcome Outcome = VM(Compiled, Config).run();
  Span.arg("steps", Outcome.Steps);
  return Outcome;
}
