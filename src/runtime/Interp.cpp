//===- runtime/Interp.cpp - MicroC tree-walking interpreter ---------------===//

#include "runtime/Interp.h"

#include "obs/Telemetry.h"
#include "obs/Tracer.h"
#include "runtime/Semantics.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace sbi;

ExecutionObserver::~ExecutionObserver() = default;
void ExecutionObserver::onBranch(int, bool) {}
void ExecutionObserver::onScalarReturn(int, int64_t) {}
void ExecutionObserver::onScalarAssign(int, int64_t, const FrameView &) {}

const char *sbi::trapKindName(TrapKind Kind) {
  switch (Kind) {
  case TrapKind::None:
    return "none";
  case TrapKind::NullDeref:
    return "null-dereference";
  case TrapKind::OutOfBounds:
    return "out-of-bounds";
  case TrapKind::DivByZero:
    return "division-by-zero";
  case TrapKind::KindError:
    return "kind-error";
  case TrapKind::BadArg:
    return "bad-argument";
  case TrapKind::OutOfMemory:
    return "out-of-memory";
  case TrapKind::ExplicitTrap:
    return "explicit-trap";
  case TrapKind::StepLimit:
    return "step-limit";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::BadBytecode:
    return "bad-bytecode";
  }
  return "?";
}

namespace {

enum class Flow { Normal, Break, Continue, Return };

/// The tree-walking engine; implements EvalSink so the shared semantics in
/// runtime/Semantics.cpp can report traps and effects.
class Interpreter final : public EvalSink {
public:
  Interpreter(const Program &Prog, const RunConfig &Config)
      : Prog(Prog), Config(Config) {}

  RunOutcome run();

  // --- EvalSink ---------------------------------------------------------
  void trap(TrapKind Kind, std::string Message) override {
    if (Stopped)
      return;
    Stopped = true;
    Outcome.Trap = Kind;
    Outcome.TrapLine = EvalLine;
    Outcome.TrapMessage = std::move(Message);
    captureStack(EvalLine);
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
  struct Frame {
    const FuncDecl *Func = nullptr;
    std::vector<Value> Locals;
    int CurLine = 0;
  };

  void captureStack(int Line);

  /// Accounts one interpreter step; traps when the budget is exhausted.
  void step(int Line) {
    EvalLine = Line;
    if (++Steps >= Config.StepLimit)
      trap(TrapKind::StepLimit, "step limit exceeded");
  }

  std::vector<Value> &localsOrEmpty() {
    return Stack.empty() ? EmptyLocals : Stack.back().Locals;
  }

  Value &slotStorage(VarSlot Slot) {
    std::vector<Value> &Storage =
        Slot.IsGlobal ? Globals : Stack.back().Locals;
    assert(Slot.Index >= 0 &&
           static_cast<size_t>(Slot.Index) < Storage.size() &&
           "variable slot out of range");
    return Storage[static_cast<size_t>(Slot.Index)];
  }

  bool storeSlot(VarSlot Slot, VarKind DeclaredKind, const Value &V,
                 const std::string &Name) {
    if (!semCheckKind(DeclaredKind, V, Name, *this))
      return false;
    slotStorage(Slot) = V;
    return true;
  }

  Flow execStmt(const Stmt &S);
  Flow execBlock(const BlockStmt &Block);
  void execAssign(const AssignStmt &Assign);
  void execVarDecl(const VarDeclStmt &Decl);

  Value eval(const Expr &E);
  Value evalBinary(const BinaryExpr &Bin);
  Value evalCall(const CallExpr &Call);
  Value callFunction(const FuncDecl &Func, std::vector<Value> Args);
  Value *resolveElement(const IndexExpr &Index);

  const Program &Prog;
  const RunConfig &Config;
  RunOutcome Outcome;
  bool Stopped = false;
  std::vector<Value> Globals;
  std::vector<Frame> Stack;
  std::vector<Value> EmptyLocals;
  Value ReturnValue;
  uint64_t Steps = 0;
  int EvalLine = 0;
};

} // namespace

void Interpreter::captureStack(int Line) {
  Outcome.StackTrace.clear();
  int InnerLine = Line;
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
    Outcome.StackTrace.push_back(
        format("%s@%d", It->Func->Name.c_str(), InnerLine));
    InnerLine = It->CurLine;
  }
}

RunOutcome Interpreter::run() {
  Globals.resize(Prog.Globals.size());
  for (const auto &Global : Prog.Globals) {
    EvalLine = Global->Line;
    Value Init = Global->Init ? eval(*Global->Init)
                              : defaultValueFor(Global->Kind);
    if (Stopped)
      break;
    EvalLine = Global->Line;
    if (!semCheckKind(Global->Kind, Init, Global->Name, *this))
      break;
    Globals[static_cast<size_t>(Global->Slot)] = std::move(Init);
  }

  if (!Stopped) {
    const FuncDecl *Main = Prog.findFunction("main");
    assert(Main && "Sema guarantees main exists");
    Value Result = callFunction(*Main, {});
    if (!Stopped && Result.isInt())
      Outcome.ExitCode = static_cast<int>(Result.asInt());
  }

  std::sort(Outcome.BugsTriggered.begin(), Outcome.BugsTriggered.end());
  Outcome.BugsTriggered.erase(std::unique(Outcome.BugsTriggered.begin(),
                                          Outcome.BugsTriggered.end()),
                              Outcome.BugsTriggered.end());
  Outcome.Steps = Steps;
  // Telemetry is a once-per-run flush of the locally maintained step
  // count; the per-step hot path carries no telemetry at all.
  if (Telemetry::enabled()) {
    static Counter &RunsCounter =
        Telemetry::metrics().registerCounter("interp.runs");
    static Counter &StepsCounter =
        Telemetry::metrics().registerCounter("interp.steps");
    RunsCounter.add(1);
    StepsCounter.add(Steps);
  }
  return std::move(Outcome);
}

Flow Interpreter::execBlock(const BlockStmt &Block) {
  for (const StmtPtr &Child : Block.Body) {
    Flow F = execStmt(*Child);
    if (F != Flow::Normal || Stopped)
      return F;
  }
  return Flow::Normal;
}

void Interpreter::execAssign(const AssignStmt &Assign) {
  Value V = eval(*Assign.Value);
  if (Stopped)
    return;

  switch (Assign.Target->Kind) {
  case ExprKind::VarRef: {
    const auto &Var = static_cast<const VarRefExpr &>(*Assign.Target);
    EvalLine = Assign.Line;
    if (!storeSlot(Var.Slot, Var.DeclaredKind, V, Var.Name))
      return;
    if (Config.Observer && Assign.TargetIsIntVar && V.isInt())
      Config.Observer->onScalarAssign(
          Assign.Id, V.asInt(), FrameView(Globals, localsOrEmpty()));
    return;
  }

  case ExprKind::Index: {
    const auto &Index = static_cast<const IndexExpr &>(*Assign.Target);
    if (Value *Element = resolveElement(Index))
      *Element = std::move(V);
    return;
  }

  case ExprKind::Field: {
    const auto &Field = static_cast<const FieldExpr &>(*Assign.Target);
    Value Base = eval(*Field.Base);
    if (Stopped)
      return;
    EvalLine = Field.Line;
    semStoreField(Base, Field.FieldName, std::move(V), *this);
    return;
  }

  default:
    assert(false && "Sema rejects other assignment targets");
  }
}

void Interpreter::execVarDecl(const VarDeclStmt &Decl) {
  Value Init =
      Decl.Init ? eval(*Decl.Init) : defaultValueFor(Decl.DeclKind);
  if (Stopped)
    return;
  EvalLine = Decl.Line;
  if (!storeSlot(Decl.Slot, Decl.DeclKind, Init, Decl.Name))
    return;
  if (Config.Observer && Decl.DeclKind == VarKind::Int && Decl.Init &&
      Init.isInt())
    Config.Observer->onScalarAssign(Decl.Id, Init.asInt(),
                                    FrameView(Globals, localsOrEmpty()));
}

Flow Interpreter::execStmt(const Stmt &S) {
  if (Stopped)
    return Flow::Normal;
  if (!Stack.empty())
    Stack.back().CurLine = S.Line;
  step(S.Line);
  if (Stopped)
    return Flow::Normal;

  switch (S.Kind) {
  case StmtKind::Expr:
    eval(*static_cast<const ExprStmt &>(S).E);
    return Flow::Normal;

  case StmtKind::Assign:
    execAssign(static_cast<const AssignStmt &>(S));
    return Flow::Normal;

  case StmtKind::VarDecl:
    execVarDecl(static_cast<const VarDeclStmt &>(S));
    return Flow::Normal;

  case StmtKind::Block:
    return execBlock(static_cast<const BlockStmt &>(S));

  case StmtKind::If: {
    const auto &If = static_cast<const IfStmt &>(S);
    Value Cond = eval(*If.Cond);
    if (Stopped)
      return Flow::Normal;
    EvalLine = If.Cond->Line;
    bool Taken = semTruthy(Cond, *this);
    if (Stopped)
      return Flow::Normal;
    if (Config.Observer)
      Config.Observer->onBranch(If.Id, Taken);
    if (Taken)
      return execStmt(*If.Then);
    if (If.Else)
      return execStmt(*If.Else);
    return Flow::Normal;
  }

  case StmtKind::While: {
    const auto &While = static_cast<const WhileStmt &>(S);
    while (!Stopped) {
      Value Cond = eval(*While.Cond);
      if (Stopped)
        return Flow::Normal;
      EvalLine = While.Cond->Line;
      bool Taken = semTruthy(Cond, *this);
      if (Stopped)
        return Flow::Normal;
      if (Config.Observer)
        Config.Observer->onBranch(While.Id, Taken);
      if (!Taken)
        return Flow::Normal;
      Flow F = execStmt(*While.Body);
      if (F == Flow::Break)
        return Flow::Normal;
      if (F == Flow::Return)
        return F;
      step(While.Line);
    }
    return Flow::Normal;
  }

  case StmtKind::For: {
    const auto &For = static_cast<const ForStmt &>(S);
    if (For.Init) {
      execStmt(*For.Init);
      if (Stopped)
        return Flow::Normal;
    }
    while (!Stopped) {
      bool Taken = true;
      if (For.Cond) {
        Value Cond = eval(*For.Cond);
        if (Stopped)
          return Flow::Normal;
        EvalLine = For.Cond->Line;
        Taken = semTruthy(Cond, *this);
        if (Stopped)
          return Flow::Normal;
      }
      if (Config.Observer)
        Config.Observer->onBranch(For.Id, Taken);
      if (!Taken)
        return Flow::Normal;
      Flow F = execStmt(*For.Body);
      if (F == Flow::Break)
        return Flow::Normal;
      if (F == Flow::Return)
        return F;
      if (For.Step) {
        execStmt(*For.Step);
        if (Stopped)
          return Flow::Normal;
      }
      step(For.Line);
    }
    return Flow::Normal;
  }

  case StmtKind::Return: {
    const auto &Return = static_cast<const ReturnStmt &>(S);
    if (Return.Value) {
      Value V = eval(*Return.Value);
      if (Stopped)
        return Flow::Normal;
      ReturnValue = std::move(V);
    } else {
      ReturnValue = Value();
    }
    return Flow::Return;
  }

  case StmtKind::Break:
    return Flow::Break;

  case StmtKind::Continue:
    return Flow::Continue;
  }
  return Flow::Normal;
}

Value Interpreter::eval(const Expr &E) {
  if (Stopped)
    return Value();
  step(E.Line);
  if (Stopped)
    return Value();

  switch (E.Kind) {
  case ExprKind::IntLit:
    return Value::makeInt(static_cast<const IntLitExpr &>(E).Value);

  case ExprKind::StrLit:
    return Value::makeStr(static_cast<const StrLitExpr &>(E).Value);

  case ExprKind::NullLit:
    return Value::makeNull();

  case ExprKind::VarRef: {
    const auto &Var = static_cast<const VarRefExpr &>(E);
    const Value &V = slotStorage(Var.Slot);
    if (V.isUnit()) {
      trap(TrapKind::KindError,
           format("use of uninitialized variable '%s'", Var.Name.c_str()));
      return Value();
    }
    return V;
  }

  case ExprKind::Unary: {
    const auto &Unary = static_cast<const UnaryExpr &>(E);
    Value V = eval(*Unary.Operand);
    if (Stopped)
      return Value();
    EvalLine = E.Line;
    return semUnaryOp(Unary.Op, V, *this);
  }

  case ExprKind::Binary:
    return evalBinary(static_cast<const BinaryExpr &>(E));

  case ExprKind::Index: {
    Value *Element = resolveElement(static_cast<const IndexExpr &>(E));
    return Element ? *Element : Value();
  }

  case ExprKind::Field: {
    const auto &Field = static_cast<const FieldExpr &>(E);
    Value Base = eval(*Field.Base);
    if (Stopped)
      return Value();
    EvalLine = E.Line;
    return semLoadField(Base, Field.FieldName, *this);
  }

  case ExprKind::Call:
    return evalCall(static_cast<const CallExpr &>(E));

  case ExprKind::New: {
    const auto &New = static_cast<const NewExpr &>(E);
    auto Rec = std::make_shared<RecordObj>();
    Rec->Decl = New.Record;
    // Fields start null, modeling uninitialized heap memory: using a field
    // before assigning it is itself a (detectable) bug pattern.
    Rec->Fields.assign(New.Record->Fields.size(), Value::makeNull());
    return Value::makeRec(std::move(Rec));
  }
  }
  return Value();
}

Value Interpreter::evalBinary(const BinaryExpr &Bin) {
  // Short-circuit operators are implicit conditionals and thus branch
  // instrumentation sites (Section 2).
  if (Bin.Op == BinaryOp::And || Bin.Op == BinaryOp::Or) {
    Value Lhs = eval(*Bin.Lhs);
    if (Stopped)
      return Value();
    EvalLine = Bin.Lhs->Line;
    bool LhsTrue = semTruthy(Lhs, *this);
    if (Stopped)
      return Value();
    if (Config.Observer)
      Config.Observer->onBranch(Bin.Id, LhsTrue);
    if (Bin.Op == BinaryOp::And && !LhsTrue)
      return Value::makeInt(0);
    if (Bin.Op == BinaryOp::Or && LhsTrue)
      return Value::makeInt(1);
    Value Rhs = eval(*Bin.Rhs);
    if (Stopped)
      return Value();
    EvalLine = Bin.Rhs->Line;
    bool RhsTrue = semTruthy(Rhs, *this);
    if (Stopped)
      return Value();
    return Value::makeInt(RhsTrue ? 1 : 0);
  }

  Value Lhs = eval(*Bin.Lhs);
  if (Stopped)
    return Value();
  Value Rhs = eval(*Bin.Rhs);
  if (Stopped)
    return Value();
  EvalLine = Bin.Line;
  return semBinaryOp(Bin.Op, Lhs, Rhs, *this);
}

Value *Interpreter::resolveElement(const IndexExpr &Index) {
  Value Base = eval(*Index.Base);
  if (Stopped)
    return nullptr;
  Value Subscript = eval(*Index.Subscript);
  if (Stopped)
    return nullptr;
  EvalLine = Index.Line;
  return semResolveElement(Base, Subscript, *this);
}

Value Interpreter::evalCall(const CallExpr &Call) {
  std::vector<Value> Args;
  Args.reserve(Call.Args.size());
  for (const ExprPtr &Arg : Call.Args) {
    Args.push_back(eval(*Arg));
    if (Stopped)
      return Value();
  }

  EvalLine = Call.Line;
  Value Result;
  if (Call.Target)
    Result = callFunction(*Call.Target, std::move(Args));
  else
    Result = semCallIntrinsic(Call.IntrinsicId, Call.Callee.c_str(),
                              Args.data(), *this);
  if (Stopped)
    return Value();

  // "returns" scheme (Section 2): report the sign of scalar return values.
  if (Config.Observer && Result.isInt())
    Config.Observer->onScalarReturn(Call.Id, Result.asInt());
  return Result;
}

Value Interpreter::callFunction(const FuncDecl &Func,
                                std::vector<Value> Args) {
  if (static_cast<int>(Stack.size()) >= Config.MaxCallDepth) {
    trap(TrapKind::StackOverflow,
         format("call depth exceeded calling '%s'", Func.Name.c_str()));
    return Value();
  }

  Frame NewFrame;
  NewFrame.Func = &Func;
  NewFrame.CurLine = Func.Line;
  NewFrame.Locals.resize(static_cast<size_t>(Func.NumLocals));
  for (size_t I = 0; I < Args.size(); ++I)
    NewFrame.Locals[I] = std::move(Args[I]);
  Stack.push_back(std::move(NewFrame));

  ReturnValue = Value();
  Flow F = execBlock(*Func.Body);
  Value Result = F == Flow::Return ? std::move(ReturnValue) : Value();
  Stack.pop_back();
  return Result;
}

RunOutcome sbi::runProgram(const Program &Prog, const RunConfig &Config) {
  ScopedSpan Span("interp_execute", "interp");
  RunOutcome Outcome = Interpreter(Prog, Config).run();
  Span.arg("steps", Outcome.Steps);
  return Outcome;
}
