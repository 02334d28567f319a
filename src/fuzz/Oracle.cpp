//===- fuzz/Oracle.cpp ----------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "core/Compiler.h"
#include "ssa/Ssa.h"

#include <sstream>

using namespace virgil;
using namespace virgil::fuzz;

const char *fuzz::outcomeName(Outcome Kind) {
  switch (Kind) {
  case Outcome::Agree:
    return "agree";
  case Outcome::CompileError:
    return "compile-error";
  case Outcome::ValueDivergence:
    return "value-divergence";
  case Outcome::DiagDivergence:
    return "diag-divergence";
  case Outcome::Timeout:
    return "timeout";
  case Outcome::Crash:
    return "crash";
  }
  return "?";
}

std::string StrategyRun::toString() const {
  std::ostringstream OS;
  OS << Name << ": ";
  if (Crashed)
    OS << "crash: " << TrapMessage;
  else if (TimedOut)
    OS << "timeout";
  else if (Trapped)
    OS << "trap: " << TrapMessage;
  else if (HasResult)
    OS << "result " << Result;
  else
    OS << "void";
  if (!Output.empty())
    OS << " (output " << Output.size() << " bytes)";
  return OS.str();
}

namespace {

/// The fuel trap message shared by the interpreter and the VM.
const char *const BudgetMsg = "instruction budget exceeded";

StrategyRun fromInterp(const char *Name, const InterpResult &R) {
  StrategyRun S;
  S.Name = Name;
  S.Trapped = R.Trapped;
  S.TrapMessage = R.TrapMessage;
  S.Output = R.Output;
  if (R.Trapped && R.TrapMessage.find(BudgetMsg) != std::string::npos) {
    S.TimedOut = true;
    S.Trapped = false;
  }
  if (!R.Trapped && R.Result.kind() == Value::Kind::Int) {
    S.HasResult = true;
    S.Result = R.Result.asInt();
  }
  return S;
}

StrategyRun fromVm(const char *Name, const VmResult &R) {
  StrategyRun S;
  S.Name = Name;
  S.Trapped = R.Trapped;
  S.TrapMessage = R.TrapMessage;
  S.Output = R.Output;
  S.HasInstrs = true;
  S.Instrs = R.Counters.Instrs;
  if (R.Trapped && R.TrapMessage.find(BudgetMsg) != std::string::npos) {
    S.TimedOut = true;
    S.Trapped = false;
  }
  if (!R.Trapped && R.HasResult) {
    S.HasResult = true;
    S.Result = (int64_t)(int32_t)R.ResultBits;
  }
  return S;
}

StrategyRun crashed(const char *Name, const std::string &What) {
  StrategyRun S;
  S.Name = Name;
  S.Crashed = true;
  S.TrapMessage = What;
  return S;
}

/// Runs the strategies of one compiled program, appending to \p Runs.
/// \p Suffix names the pipeline ("", "/no-opt", "/share", ...). With
/// \p NormAndVmOnly only the stages a compile leg can affect run (the
/// poly and mono IR are identical either way, so re-running them would
/// test nothing).
void runStrategies(Program &P, const OracleConfig &Config,
                   const std::string &Suffix,
                   std::vector<StrategyRun> &Runs,
                   bool NormAndVmOnly = false) {
  uint64_t MaxInstrs = Config.MaxInstrs;
  auto interpOn = [&](IrModule &M, const std::string &Name) {
    try {
      Interpreter I(M);
      if (MaxInstrs)
        I.setMaxInstrs(MaxInstrs);
      Runs.push_back(fromInterp(Name.c_str(), I.run()));
    } catch (const std::exception &E) {
      Runs.push_back(crashed(Name.c_str(), E.what()));
    } catch (...) {
      Runs.push_back(crashed(Name.c_str(), "unknown exception"));
    }
  };
  if (!NormAndVmOnly) {
    interpOn(P.polyIr(), "poly-interp" + Suffix);
    interpOn(P.monoIr(), "mono-interp" + Suffix);
  }
  interpOn(P.normIr(), "norm-interp" + Suffix);
  // With \p Reuse the leg follows the warm-pool reuse protocol: run
  // once to dirty every piece of state a request can touch, reset, run
  // again, and report the second run. It must be indistinguishable
  // from a fresh VM.
  auto vmOn = [&](const char *Leg, const VmOptions &Opts, bool Reuse) {
    std::string Name = Leg + Suffix;
    try {
      Vm V(P.bytecode(), Opts);
      if (MaxInstrs)
        V.setMaxInstrs(MaxInstrs);
      if (Reuse) {
        V.snapshotForReuse();
        (void)V.run();
        V.resetForReuse();
        if (MaxInstrs)
          V.setMaxInstrs(MaxInstrs); // resetForReuse re-arms from VmOptions
      }
      Runs.push_back(fromVm(Name.c_str(), V.run()));
    } catch (const std::exception &E) {
      Runs.push_back(crashed(Name.c_str(), E.what()));
    } catch (...) {
      Runs.push_back(crashed(Name.c_str(), "unknown exception"));
    }
    Runs.back().Pipeline = Suffix;
  };
  // With the vm+jit strategy the plain legs pin the JIT off so they are
  // a true interpreter reference; otherwise they follow Config.Vm
  // (which defaults to the process environment).
  bool Jit = Config.wants(Feature::Jit);
  VmOptions PlainOpts = Config.Vm;
  if (Jit)
    PlainOpts.Jit = VmOptions::JitMode::Off;
  VmOptions JitOpts = Config.Vm;
  JitOpts.Jit = VmOptions::JitMode::On;
  JitOpts.JitThreshold = 0;
  vmOn("vm", PlainOpts, false);
  if (Jit) {
    vmOn("vm+jit", JitOpts, false);
    JitOpts.JitThreshold = kOracleJitMidThreshold;
    vmOn("vm+jit-warm", JitOpts, false);
  }
  if (Config.VmPooled)
    vmOn("vm+pool", PlainOpts, true);
  if (Config.VmPooled && Jit)
    vmOn("vm+pool+jit", JitOpts, true);
}

} // namespace

OracleReport DifferentialOracle::check(const std::string &Source) const {
  OracleReport Report;

  // Requested compile legs are a true on-vs-off differential: every
  // compile forces each requested knob off (instead of following the
  // process default) except the one leg \p Forced turns on.
  auto compileOne = [&](bool Optimize,
                        const FeatureInfo *Forced) -> std::unique_ptr<Program> {
    CompilerOptions Options;
    Options.Optimize = Optimize;
    for (const FeatureInfo &F : features())
      if (F.Leg && Config.wants(F.Id))
        setFeature(Options, F.Id, &F == Forced);
    // Arm strict-SSA verification for the /ssa compile: a malformed phi
    // or a dominance violation should fail loudly at the pass boundary,
    // not surface later as an unexplained value divergence.
    bool Arm = Forced && Forced->Id == Feature::Ssa;
    bool PrevVerify = ssa::ssaVerifyEnabled();
    if (Arm)
      ssa::setSsaVerifyEnabled(true);
    Compiler C(Options);
    std::string Error;
    auto P = C.compile("fuzz", Source, &Error);
    if (Arm)
      ssa::setSsaVerifyEnabled(PrevVerify);
    if (!P && Report.CompileError.empty())
      Report.CompileError = Error;
    return P;
  };

  // One pipeline: its baseline compile, then one compile per requested
  // leg whose knob the pipeline runs. False once a compile fails.
  auto runPipeline = [&](bool Optimize) {
    std::string Base = Optimize ? "" : "/no-opt";
    auto P = compileOne(Optimize, nullptr);
    if (!P) {
      // Compiling the same source must not depend on the optimizer.
      Report.Kind = Outcome::CompileError;
      Report.Detail = Optimize ? "program failed to compile"
                               : "compiles optimized but not unoptimized";
      return false;
    }
    runStrategies(*P, Config, Base, Report.Runs);
    for (const FeatureInfo &F : features()) {
      if (!F.Leg || !Config.wants(F.Id) || (!Optimize && F.OptPass))
        continue;
      auto PLeg = compileOne(Optimize, &F);
      if (!PLeg) {
        // Compiling must not depend on the knob.
        Report.Kind = Outcome::CompileError;
        Report.Detail = std::string("compiles with ") + F.Flag +
                        " off but not on" + (Optimize ? "" : " (no-opt)");
        return false;
      }
      runStrategies(*PLeg, Config, Base + F.Leg, Report.Runs,
                    /*NormAndVmOnly=*/true);
    }
    return true;
  };
  if (!runPipeline(/*Optimize=*/true) ||
      (Config.CompareNoOpt && !runPipeline(/*Optimize=*/false)))
    return Report;

  // Classify: crash > timeout > diag-divergence > value-divergence.
  const StrategyRun &Ref = Report.Runs[0];
  for (const StrategyRun &S : Report.Runs) {
    if (S.Crashed) {
      Report.Kind = Outcome::Crash;
      Report.Detail = S.toString();
      return Report;
    }
  }
  for (const StrategyRun &S : Report.Runs) {
    if (S.TimedOut) {
      Report.Kind = Outcome::Timeout;
      Report.Detail = S.toString();
      return Report;
    }
  }
  // Trap agreement compares the TrapKind prefix ("null deref",
  // "bounds", ...) rather than the full message: engines may attach
  // different detail text to the same trap, and that is not a
  // semantic divergence.
  auto trapKindOf = [](const StrategyRun &S) {
    return S.TrapMessage.substr(0, S.TrapMessage.find(':'));
  };
  for (const StrategyRun &S : Report.Runs) {
    if (S.Trapped != Ref.Trapped ||
        (S.Trapped && trapKindOf(S) != trapKindOf(Ref))) {
      Report.Kind = Outcome::DiagDivergence;
      Report.Detail = Ref.toString() + " vs " + S.toString();
      return Report;
    }
  }
  if (!Ref.Trapped) {
    for (const StrategyRun &S : Report.Runs) {
      if (S.HasResult != Ref.HasResult || S.Result != Ref.Result ||
          S.Output != Ref.Output) {
        Report.Kind = Outcome::ValueDivergence;
        Report.Detail = Ref.toString() + " vs " + S.toString();
        return Report;
      }
    }
  }
  // VM legs of the same pipeline must agree on the exact executed
  // instruction count: the JIT's accounting contract (fused ops count
  // as two, fuel burns at the same program points) and the pool's
  // invisibility contract both promise it. Different pipelines
  // legitimately execute different instruction streams.
  for (size_t I = 0; I != Report.Runs.size(); ++I) {
    const StrategyRun &A = Report.Runs[I];
    if (!A.HasInstrs)
      continue;
    for (size_t J = I + 1; J != Report.Runs.size(); ++J) {
      const StrategyRun &B = Report.Runs[J];
      if (!B.HasInstrs || B.Pipeline != A.Pipeline)
        continue;
      if (A.Instrs != B.Instrs) {
        Report.Kind = Outcome::ValueDivergence;
        Report.Detail = A.Name + ": " + std::to_string(A.Instrs) +
                        " instrs vs " + B.Name + ": " +
                        std::to_string(B.Instrs) + " instrs";
        return Report;
      }
    }
  }
  return Report;
}
