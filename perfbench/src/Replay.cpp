//===- perfbench/src/Replay.cpp - Traced per-layer replay -------------------===//

#include "Replay.h"

#include "core/Compiler.h"
#include "ir/IrVerifier.h"
#include "lower/Lower.h"
#include "parse/Parser.h"
#include "server/Protocol.h"
#include "service/BytecodeCache.h"
#include "vm/BytecodeEmitter.h"

#include <algorithm>
#include <filesystem>
#include <memory>

using namespace perfbench;
using namespace virgil;

namespace {

/// Sums of the counts the layers report, over every replayed run.
struct Counts {
  double Runs = 0;
  double LowerInstrs = 0, MonoInstrs = 0, MonoFuncsOut = 0, NormInstrs = 0;
  double ShareFuncsAfter = 0, BytecodeInstrs = 0, SerializedBytes = 0;
  double Inlined = 0, Devirtualized = 0, AllocsElided = 0, SccpFolded = 0;
  double LoadsEliminated = 0;
  double JitCompiles = 0, JitCompileNs = 0, JitCodeBytes = 0, JitOsr = 0;
  double JitDeopts = 0;
  double IcHits = 0, IcMisses = 0, Instrs = 0, IndirectCalls = 0;
  double HeapObjects = 0, GcMinor = 0, GcMajor = 0, GcPauseNs = 0;
  double SlotsPromoted = 0;
};

size_t bytecodeInstrs(const BcModule &M) {
  size_t N = 0;
  for (const BcFunction &F : M.Functions)
    N += F.Code.size();
  return N;
}

double msOf(int64_t Ns) { return (double)Ns / 1e6; }

/// One program through the whole pipeline, layer by layer. Returns the
/// loaded (deserialized) module the VM legs run, or null with the
/// failure already counted.
std::unique_ptr<LoadedModule> compileTraced(const ReplayOp &Op, int Root,
                                            uint64_t Req, Tracer &T,
                                            BytecodeCache &Cache, Counts &C,
                                            OpTally &Tally) {
  // Declaration order mirrors Program: the type store and arenas
  // outlive every IR module and the bytecode that point into them.
  TypeStore Types;
  StringInterner Idents;
  Arena Nodes;
  SourceFile File(Op.Name, Op.Source);
  DiagEngine Diags(&File);
  auto Verify = [&](const IrModule &M) {
    ScopedSpan S(&T, "ir.verify", Root, Req);
    return verifyModule(M).empty();
  };
  auto Fail = [&] {
    Tally.record(OpStatus::ProgramError);
    return nullptr;
  };

  Module *Ast = nullptr;
  {
    ScopedSpan S(&T, "parse", Root, Req);
    Parser P(File, Nodes, Idents, Diags);
    Ast = P.parseModule();
  }
  if (Diags.hasErrors())
    return Fail();
  Sema TheSema(*Ast, Types, Idents, Diags, Nodes);
  bool Ok;
  {
    ScopedSpan S(&T, "sema", Root, Req);
    Ok = TheSema.run();
  }
  if (!Ok)
    return Fail();
  IrModule Poly(Types);
  {
    ScopedSpan S(&T, "lower", Root, Req);
    Lowerer L(TheSema.resolver(), Poly);
    Ok = L.run();
  }
  if (!Ok || !Verify(Poly))
    return Fail();
  C.LowerInstrs += (double)computeStats(Poly).NumInstrs;

  std::unique_ptr<IrModule> Mono;
  MonoStats MS;
  {
    ScopedSpan S(&T, "mono", Root, Req);
    Monomorphizer M(Poly);
    Mono = M.run();
    MS = M.stats();
  }
  if (!Mono || !Verify(*Mono))
    return Fail();
  C.MonoFuncsOut += (double)MS.OutputFunctions;

  OptStats Opt;
  {
    ScopedSpan S(&T, "opt.mono", Root, Req);
    Opt = optimizeModule(*Mono, OptOptions());
  }
  // IR sizes are taken where Compiler::compile banks its Stats: mono
  // after its optimization, normalized after optimization and sharing.
  C.MonoInstrs += (double)computeStats(*Mono).NumInstrs;
  std::unique_ptr<IrModule> Norm;
  {
    ScopedSpan S(&T, "normalize", Root, Req);
    Normalizer N(*Mono);
    Norm = N.run();
  }
  if (!Norm || !Verify(*Norm))
    return Fail();
  {
    ScopedSpan S(&T, "opt.norm", Root, Req);
    Opt += optimizeModule(*Norm, OptOptions());
  }
  C.Inlined += (double)Opt.CallsInlined;
  C.Devirtualized += (double)Opt.CallsDevirtualized;
  C.AllocsElided += (double)Opt.AllocsElided;
  C.SccpFolded += (double)Opt.SccpFolded;
  C.LoadsEliminated += (double)Opt.LoadsEliminated;

  size_t FuncsAfter = Norm->Functions.size();
  if (defaultMonoShareEnabled()) {
    ShareStats SS;
    {
      ScopedSpan S(&T, "mono.share", Root, Req);
      SS = shareSpecializations(*Norm);
    }
    if (!Verify(*Norm))
      return Fail();
    FuncsAfter = SS.FunctionsAfter;
  }
  C.ShareFuncsAfter += (double)FuncsAfter;
  C.NormInstrs += (double)computeStats(*Norm).NumInstrs;

  std::unique_ptr<BcModule> Bc;
  {
    ScopedSpan S(&T, "vm.emit", Root, Req);
    Bc = emitBytecode(*Norm);
  }
  C.BytecodeInstrs += (double)bytecodeInstrs(*Bc);

  uint64_t Key = Cache.keyFor(Op.Source, CompilerOptions());
  {
    ScopedSpan S(&T, "service.store", Root, Req);
    Ok = Cache.store(Key, *Bc);
  }
  std::error_code Ec;
  C.SerializedBytes += (double)std::filesystem::file_size(
      Cache.entryPath(Key), Ec);
  std::unique_ptr<LoadedModule> L;
  {
    ScopedSpan S(&T, "service.load", Root, Req);
    L = Cache.load(Key);
  }
  if (!Ok || !L)
    return Fail();
  return L;
}

/// Protocol encode/decode round trip of one request and its response.
bool codecRoundTrip(const ReplayOp &Op, const VmResult &VR) {
  server::ExecuteRequest Req;
  Req.Name = Op.Name;
  Req.Source = Op.Source;
  server::ExecuteRequest ReqBack;
  server::ExecuteResponse Resp;
  Resp.HasResult = VR.HasResult;
  Resp.ResultBits = VR.ResultBits;
  Resp.Output = VR.Output;
  Resp.Instrs = VR.Counters.Instrs;
  server::ExecuteResponse RespBack;
  return server::decodeExecuteRequest(server::encodeExecuteRequest(Req),
                                      &ReqBack) &&
         server::decodeExecuteResponse(server::encodeExecuteResponse(Resp),
                                       &RespBack) &&
         ReqBack.Source == Req.Source && RespBack.Output == Resp.Output;
}

void addRun(Counts &C, const VmResult &R) {
  C.Runs += 1;
  C.JitCompiles += (double)R.Jit.Compiles;
  C.JitCompileNs += (double)R.Jit.CompileNs;
  C.JitCodeBytes += (double)R.Jit.CodeBytes;
  C.JitOsr += (double)R.Jit.OsrEntries;
  C.JitDeopts += (double)R.Jit.Deopts;
  C.IcHits += (double)R.Counters.IcHits;
  C.IcMisses += (double)R.Counters.IcMisses;
  C.Instrs += (double)R.Counters.Instrs;
  C.IndirectCalls += (double)R.Counters.IndirectCalls;
  C.HeapObjects += (double)R.Counters.HeapObjects;
  C.GcMinor += (double)R.Heap.MinorCollections;
  C.GcMajor += (double)R.Heap.MajorCollections;
  C.GcPauseNs += (double)(R.Heap.MinorPauses.SumNs + R.Heap.MajorPauses.SumNs);
  C.SlotsPromoted += (double)R.Heap.SlotsPromoted;
}

/// Per request, the summed self time (in \p Scale units) of the spans
/// named \p Name in it.
std::map<uint64_t, double> selfPerRequest(const Tracer &T,
                                          const std::string &Name,
                                          double Scale) {
  std::vector<int64_t> Self = T.selfTimesNs();
  std::map<uint64_t, double> PerReq;
  const std::vector<Span> &Spans = T.spans();
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Name == Spans[I].Name)
      PerReq[Spans[I].Req] += (double)Self[I] * Scale;
  return PerReq;
}

double medianOver(const std::map<uint64_t, double> &PerReq) {
  std::vector<double> V;
  for (const auto &[Req, X] : PerReq)
    V.push_back(X);
  return median(V);
}

} // namespace

void perfbench::replayLayers(const std::vector<ReplayOp> &Ops, int Passes,
                             const std::string &CacheDir, Tracer &T,
                             OpTally &Tally,
                             std::map<std::string, double> &Out) {
  BytecodeCache Cache(CacheDir);
  Counts C;
  double CompiledOps = 0;
  // Per program: run times with the JIT tier on (the default) and off.
  std::vector<std::vector<double>> OnMs(Ops.size()), OffMs(Ops.size());
  double OffInstrs = 0, OffNs = 0;
  VmOptions JitOff;
  JitOff.Jit = VmOptions::JitMode::Off;

  for (int Pass = 0; Pass != Passes; ++Pass) {
    for (size_t I = 0; I != Ops.size(); ++I) {
      const ReplayOp &Op = Ops[I];
      uint64_t Req = (uint64_t)Pass * Ops.size() + I;
      ScopedSpan Root(&T, "replay.program", -1, Req);
      std::unique_ptr<LoadedModule> L =
          compileTraced(Op, Root.id(), Req, T, Cache, C, Tally);
      if (!L)
        continue;
      CompiledOps += 1;
      const BcModule &M = L->module();
      // The Vm constructor prepares the module itself; this standalone
      // call, with the options it uses, times that share of it, and
      // vm.construct_self_us is reported without it.
      VmOptions Defaults;
      {
        ScopedSpan S(&T, "vm.prepare", Root.id(), Req);
        PreparedModule PM = prepareModule(
            M, PrepareOptions{Defaults.Fuse, Defaults.InlineCache,
                              Defaults.Generational});
      }
      std::unique_ptr<Vm> V;
      {
        ScopedSpan S(&T, "vm.construct", Root.id(), Req);
        V = std::make_unique<Vm>(M, Defaults);
      }
      V->snapshotForReuse();
      VmResult VR;
      int64_t RunNs;
      {
        ScopedSpan S(&T, "vm.run", Root.id(), Req);
        VR = V->run();
        RunNs = nowNs() - T.spans()[(size_t)S.id()].StartNs;
      }
      {
        ScopedSpan S(&T, "exec.pool_reset", Root.id(), Req);
        V->resetForReuse();
      }
      bool CodecOk;
      {
        ScopedSpan S(&T, "net.codec", Root.id(), Req);
        CodecOk = codecRoundTrip(Op, VR);
      }
      addRun(C, VR);
      OnMs[I].push_back(msOf(RunNs));

      Vm Off(M, JitOff);
      int64_t Off0 = nowNs();
      VmResult OR = Off.run();
      int64_t OffRun = nowNs() - Off0;
      OffMs[I].push_back(msOf(OffRun));
      OffInstrs += (double)OR.Counters.Instrs;
      OffNs += (double)OffRun;

      if (!CodecOk)
        Tally.record(OpStatus::Transport);
      else if (VR.Trapped || OR.Trapped)
        Tally.record(OpStatus::ProgramError);
      else if (!matches(*Op.Ref, VR.HasResult, VR.ResultBits, VR.Output) ||
               !matches(*Op.Ref, OR.HasResult, OR.ResultBits, OR.Output))
        Tally.record(OpStatus::Mismatch);
      else
        Tally.record(OpStatus::Ok);
    }
  }

  static const struct {
    const char *Metric, *Span;
    double Scale; // ns -> metric unit
  } SelfTimes[] = {
      {"parse.self_ms", "parse", 1e-6},
      {"sema.self_ms", "sema", 1e-6},
      {"lower.self_ms", "lower", 1e-6},
      {"mono.self_ms", "mono", 1e-6},
      {"opt.mono_self_ms", "opt.mono", 1e-6},
      {"normalize.self_ms", "normalize", 1e-6},
      {"opt.norm_self_ms", "opt.norm", 1e-6},
      {"mono.share_self_ms", "mono.share", 1e-6},
      {"ir.verify_self_ms", "ir.verify", 1e-6},
      {"vm.emit_self_ms", "vm.emit", 1e-6},
      {"service.store_self_ms", "service.store", 1e-6},
      {"service.load_self_us", "service.load", 1e-3},
      {"vm.prepare_self_us", "vm.prepare", 1e-3},
      {"vm.run_self_us", "vm.run", 1e-3},
      {"exec.pool_reset_self_us", "exec.pool_reset", 1e-3},
      {"net.codec_self_us", "net.codec", 1e-3},
  };
  for (const auto &S : SelfTimes)
    Out[S.Metric] = medianOver(selfPerRequest(T, S.Span, S.Scale));
  // Vm::Vm includes a prepareModule call; report construction without it.
  std::map<uint64_t, double> Construct =
      selfPerRequest(T, "vm.construct", 1e-3);
  std::map<uint64_t, double> Prepare = selfPerRequest(T, "vm.prepare", 1e-3);
  for (auto &[Req, Us] : Construct)
    Us = std::max(0.0, Us - Prepare[Req]);
  Out["vm.construct_self_us"] = medianOver(Construct);

  double N = CompiledOps ? CompiledOps : 1;
  Out["lower.ir_instrs"] = C.LowerInstrs / N;
  Out["mono.ir_instrs"] = C.MonoInstrs / N;
  Out["mono.funcs_out"] = C.MonoFuncsOut / N;
  Out["normalize.ir_instrs"] = C.NormInstrs / N;
  Out["mono.share_funcs_after"] = C.ShareFuncsAfter / N;
  Out["vm.bytecode_instrs"] = C.BytecodeInstrs / N;
  Out["service.serialized_bytes"] = C.SerializedBytes / N;
  Out["opt.inlined"] = C.Inlined / N;
  Out["opt.devirtualized"] = C.Devirtualized / N;
  Out["opt.allocs_elided"] = C.AllocsElided / N;
  Out["ssa.sccp_folded"] = C.SccpFolded / N;
  Out["ssa.loads_eliminated"] = C.LoadsEliminated / N;

  double R = C.Runs ? C.Runs : 1;
  Out["jit.compiles_per_op"] = C.JitCompiles / R;
  Out["jit.compile_ms"] = C.JitCompileNs / 1e6 / R;
  Out["jit.code_bytes"] = C.JitCodeBytes / R;
  Out["jit.osr_entries"] = C.JitOsr / R;
  Out["jit.deopts"] = C.JitDeopts / R;
  Out["vm.ic_hit_ratio"] =
      C.IcHits + C.IcMisses ? C.IcHits / (C.IcHits + C.IcMisses) : 0;
  Out["vm.instrs"] = C.Instrs / R;
  Out["vm.indirect_calls"] = C.IndirectCalls / R;
  Out["vm.heap_objects"] = C.HeapObjects / R;
  Out["vm.gc_minor"] = C.GcMinor / R;
  Out["vm.gc_major"] = C.GcMajor / R;
  Out["vm.gc_pause_ms"] = C.GcPauseNs / 1e6 / R;
  Out["vm.gc_slots_promoted"] = C.SlotsPromoted / R;

  std::vector<double> Speedups;
  for (size_t I = 0; I != Ops.size(); ++I)
    if (!OnMs[I].empty())
      Speedups.push_back(median(OffMs[I]) / median(OnMs[I]));
  Out["jit.speedup"] = geomean(Speedups);
  Out["vm.interp_minstr_s"] = OffNs ? OffInstrs / (OffNs / 1e9) / 1e6 : 0;
}
