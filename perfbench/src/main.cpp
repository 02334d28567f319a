//===- perfbench/src/main.cpp - The repo benchmark -------------------------===//
///
/// \file
/// Runs one workload against the virgil library from outside and prints
/// one row of end-to-end metrics (or, with --trace 1, the per-layer
/// metrics of a traced replay), checking every operation against its
/// reference. The last line of stdout is the result JSON.
///
///   perfbench --workload serve-cold --seed 1 --seconds 45 --trace 0
///
/// serve-cold starts server::Server in process on a Unix socket and
/// drives it closed-loop from one client thread over a fixed number of
/// connections; run-hot compiles kernels once and runs each on a fresh
/// VM per operation. See perfbench/README.md for why each workload
/// exists and which layers it stresses.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Inputs.h"
#include "Replay.h"

#include "core/Compiler.h"
#include "server/Client.h"
#include "server/Server.h"

#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>

using namespace perfbench;
using namespace virgil;
namespace fs = std::filesystem;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Must match BENCHMARK.json's end_to_end and per_layer lists.
const MetricDef EndToEnd[] = {
    {"latency_p50_ms", "ms"}, {"latency_p99_ms", "ms"},
    {"throughput_rps", "1/s"}, {"run_geomean_ms", "ms"},
    {"vm_minstr_s", "Minstr/s"}, {"success_pct", "%"},
    {"setup_s", "s"}, {"peak_rss_mb", "MB"},
};

const MetricDef PerLayer[] = {
    {"parse.self_ms", "ms"},
    {"sema.self_ms", "ms"},
    {"lower.self_ms", "ms"},
    {"mono.self_ms", "ms"},
    {"opt.mono_self_ms", "ms"},
    {"normalize.self_ms", "ms"},
    {"opt.norm_self_ms", "ms"},
    {"mono.share_self_ms", "ms"},
    {"ir.verify_self_ms", "ms"},
    {"vm.emit_self_ms", "ms"},
    {"lower.ir_instrs", "count"},
    {"mono.ir_instrs", "count"},
    {"mono.funcs_out", "count"},
    {"normalize.ir_instrs", "count"},
    {"mono.share_funcs_after", "count"},
    {"vm.bytecode_instrs", "count"},
    {"opt.inlined", "count"},
    {"opt.devirtualized", "count"},
    {"opt.allocs_elided", "count"},
    {"ssa.sccp_folded", "count"},
    {"ssa.loads_eliminated", "count"},
    {"service.store_self_ms", "ms"},
    {"service.serialized_bytes", "bytes"},
    {"service.load_self_us", "us"},
    {"service.cache_hit_ratio", "ratio"},
    {"exec.pool_hit_ratio", "ratio"},
    {"exec.pool_reset_self_us", "us"},
    {"vm.prepare_self_us", "us"},
    {"vm.construct_self_us", "us"},
    {"vm.run_self_us", "us"},
    {"net.codec_self_us", "us"},
    {"server.overhead_ms", "ms"},
    {"server.queue_wait_p50_ms", "ms"},
    {"jit.compiles_per_op", "count"},
    {"jit.compile_ms", "ms"},
    {"jit.code_bytes", "bytes"},
    {"jit.osr_entries", "count"},
    {"jit.deopts", "count"},
    {"jit.speedup", "ratio"},
    {"vm.interp_minstr_s", "Minstr/s"},
    {"vm.ic_hit_ratio", "ratio"},
    {"vm.instrs", "count"},
    {"vm.indirect_calls", "count"},
    {"vm.heap_objects", "count"},
    {"vm.gc_minor", "count"},
    {"vm.gc_major", "count"},
    {"vm.gc_pause_ms", "ms"},
    {"vm.gc_slots_promoted", "count"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};

/// Cold set-ups per run; setup_s is their median (see coldSetups).
constexpr int kSetupReps = 9;
/// The load: one client thread over kConnections connections, against a
/// server with kWorkers workers and kIoThreads event-loop threads.
constexpr int kConnections = 2;
constexpr int kWorkers = 2;
constexpr int kIoThreads = 1;
/// serve-cold requests the traced replay walks through every layer.
constexpr size_t kColdReplayOps = 24;
constexpr int kReplayPasses = 3;
/// Operations a timed run needs at least, so p99 has ten samples
/// beyond it; a run keeps going past --seconds (up to kMaxStretch times
/// as long) until it has them.
constexpr size_t kMinSamples = 1000;
constexpr double kMaxStretch = 3;
constexpr int kBusyRetries = 50;
constexpr int kRecvTimeoutMs = 30000;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".bench_build";
  /// Self-test hook: corrupt the first operation's reference so the run
  /// must report it.
  bool InjectMismatch = false;
};

/// Scratch directory of this run (sockets, caches); removed on exit.
std::string RunDir;

/// Reports \p Msg and exits without a result line. Server threads may
/// still be running, so skip destructors and just end the process.
[[noreturn]] void die(const std::string &Msg) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  if (!RunDir.empty()) {
    std::error_code Ec;
    fs::remove_all(RunDir, Ec);
  }
  std::_Exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  auto Need = [&](int &I) -> const char * {
    if (I + 1 >= Argc)
      die(std::string("missing value for ") + Argv[I]);
    return Argv[++I];
  };
  for (int I = 1; I < Argc; ++I) {
    std::string F = Argv[I];
    if (F == "--workload")
      A.Workload = Need(I);
    else if (F == "--seed")
      A.Seed = std::strtoull(Need(I), nullptr, 10);
    else if (F == "--seconds")
      A.Seconds = std::atof(Need(I));
    else if (F == "--trace")
      A.Trace = std::atoi(Need(I)) != 0;
    else if (F == "--out-dir")
      A.OutDir = Need(I);
    else if (F == "--inject-mismatch")
      A.InjectMismatch = true;
    else
      die("unknown argument '" + F + "'");
  }
  if (A.Seconds <= 0)
    die("--seconds must be positive");
  return A;
}

/// CPUs this process may run on (what nproc prints).
int nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return CPU_COUNT(&Set);
  return (int)std::thread::hardware_concurrency();
}

double secondsSince(int64_t StartNs) { return (double)(nowNs() - StartNs) / 1e9; }

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return (double)U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/// The number after the nested keys \p Path in a flat JSON document
/// (each key searched for after the previous one); 0 when absent.
double jsonNumber(const std::string &Doc,
                  std::initializer_list<const char *> Path) {
  size_t Pos = 0;
  for (const char *Key : Path) {
    Pos = Doc.find(std::string("\"") + Key + "\":", Pos);
    if (Pos == std::string::npos)
      return 0;
    Pos += std::strlen(Key) + 3;
  }
  return std::strtod(Doc.c_str() + Pos, nullptr);
}

std::string hex(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if ((unsigned char)C < 0x20) {
      Out += ' ';
      continue;
    }
    Out += C;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Serving
//===----------------------------------------------------------------------===//

/// One request to send: which input program, its source, its reference.
struct ReqSpec {
  uint32_t Prog = 0;
  std::string Name;
  std::string Source;
  const Expected *Ref = nullptr;
};

/// The completed operations of one timed leg, one entry per operation.
struct Samples {
  std::vector<double> AtS; ///< Completion time since the leg started.
  std::vector<double> LatMs;
  std::vector<uint32_t> Prog;
  /// VM time and instructions: the server's ExecuteMs and Instrs for
  /// served requests, the run itself for run-hot.
  std::vector<double> VmMs;
  std::vector<double> Instrs;
  /// Client latency minus the server's own CompileMs + ExecuteMs.
  std::vector<double> OverheadMs;
  double WallS = 0;

  void add(double At, double Lat, uint32_t P, double Vm, double N) {
    AtS.push_back(At);
    LatMs.push_back(Lat);
    Prog.push_back(P);
    VmMs.push_back(Vm);
    Instrs.push_back(N);
  }
};

/// A server::Server plus the connections that drive it, living in one
/// scratch directory (Unix socket + bytecode cache) that is removed
/// again on destruction.
class ServerRig {
public:
  explicit ServerRig(const std::string &Dir) : Dir(Dir) {
    fs::remove_all(Dir);
    fs::create_directories(Dir);
    server::ServerConfig C;
    C.UnixPath = Dir + "/s.sock";
    C.Workers = kWorkers;
    C.IoThreads = kIoThreads;
    C.CacheDir = Dir + "/cache";
    S = std::make_unique<server::Server>(C);
    std::string Err;
    if (!S->start(&Err))
      die("server did not start: " + Err);
    Conns.resize((size_t)kConnections);
    for (server::Client &Cl : Conns)
      if (!Cl.connectUnix(C.UnixPath, &Err))
        die("cannot connect: " + Err);
  }
  ~ServerRig() {
    Conns.clear();
    S->stop();
    S.reset();
    std::error_code Ec;
    fs::remove_all(Dir, Ec);
  }
  ServerRig(const ServerRig &) = delete;
  ServerRig &operator=(const ServerRig &) = delete;

  server::Server &server() { return *S; }
  std::vector<server::Client> &conns() { return Conns; }

private:
  std::string Dir;
  std::unique_ptr<server::Server> S;
  std::vector<server::Client> Conns;
};

/// Closed loop over every connection of \p Rig from this one thread:
/// each connection sends its next request as soon as its previous one
/// is answered. Stops issuing after \p MaxOps operations, or once
/// \p Seconds have passed and \p MinSamples answers are in (stretching
/// to kMaxStretch x \p Seconds at most). Every answer is checked
/// against its reference and counted in \p Tally.
Samples serveLoop(ServerRig &Rig, const std::function<ReqSpec(size_t)> &Spec,
                  size_t MaxOps, double Seconds, size_t MinSamples,
                  Tracer *T, uint64_t ReqBase, OpTally &Tally) {
  struct ConnState {
    bool Live = true;
    bool InFlight = false;
    ReqSpec R;
    uint64_t Req = 0;
    int64_t SentNs = 0;
    int Retries = 0;
    int Span = -1;
    std::string Payload;
  };
  std::vector<server::Client> &Conns = Rig.conns();
  std::vector<ConnState> St(Conns.size());
  Samples Out;
  size_t NextOp = 0;
  int64_t Start = nowNs();

  auto WantMore = [&] {
    if (NextOp >= MaxOps)
      return false;
    double El = secondsSince(Start);
    if (El < Seconds)
      return true;
    return Out.LatMs.size() < MinSamples && El < Seconds * kMaxStretch;
  };
  auto Send = [&](size_t C) {
    ConnState &S = St[C];
    std::string Err;
    if (!Conns[C].sendFrame((uint8_t)server::MsgType::ExecuteReq, S.Payload,
                            &Err)) {
      Tally.record(OpStatus::Transport);
      S.Live = S.InFlight = false;
      if (T)
        T->end(S.Span);
      return;
    }
    S.InFlight = true;
  };
  auto SendNext = [&](size_t C) {
    ConnState &S = St[C];
    if (!S.Live || !WantMore())
      return;
    S.R = Spec(NextOp);
    S.Req = ReqBase + NextOp++;
    S.Retries = 0;
    S.SentNs = nowNs();
    S.Span = T ? T->begin("client.request", -1, S.Req) : -1;
    server::ExecuteRequest Req;
    Req.Name = S.R.Name;
    Req.Source = S.R.Source;
    {
      ScopedSpan E(T, "net.encode", S.Span, S.Req);
      S.Payload = server::encodeExecuteRequest(Req);
    }
    Send(C);
  };
  auto Finish = [&](ConnState &S, OpStatus Status) {
    Tally.record(Status);
    S.InFlight = false;
    if (T)
      T->end(S.Span);
  };

  for (size_t C = 0; C != Conns.size(); ++C)
    SendNext(C);
  for (;;) {
    std::vector<pollfd> Fds;
    std::vector<size_t> Idx;
    for (size_t C = 0; C != Conns.size(); ++C)
      if (St[C].InFlight) {
        Fds.push_back({Conns[C].fd(), POLLIN, 0});
        Idx.push_back(C);
      }
    if (Fds.empty())
      break;
    int N = ::poll(Fds.data(), Fds.size(), kRecvTimeoutMs);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0) { // no answer in time: the in-flight requests failed
      for (size_t C : Idx) {
        Finish(St[C], OpStatus::Transport);
        St[C].Live = false;
      }
      break;
    }
    for (size_t K = 0; K != Fds.size(); ++K) {
      if (!Fds[K].revents)
        continue;
      size_t C = Idx[K];
      ConnState &S = St[C];
      net::Frame F;
      std::string Err;
      if (!Conns[C].recvFrame(&F, &Err)) {
        Finish(S, OpStatus::Transport);
        S.Live = false;
        continue;
      }
      if (F.Type == (uint8_t)server::MsgType::BusyResp) {
        if (++S.Retries > kBusyRetries) {
          Finish(S, OpStatus::Refused);
          SendNext(C);
        } else {
          ::usleep(200);
          Send(C);
        }
        continue;
      }
      int64_t DoneNs = nowNs();
      server::ExecuteResponse R;
      bool Decoded;
      {
        ScopedSpan D(T, "net.decode", S.Span, S.Req);
        Decoded = F.Type == (uint8_t)server::MsgType::ExecuteResp &&
                  server::decodeExecuteResponse(F.Payload, &R);
      }
      OpStatus Status = OpStatus::Ok;
      if (!Decoded)
        Status = OpStatus::Transport;
      else if (R.O != server::Outcome::Ok)
        Status = OpStatus::ProgramError;
      else if (!matches(*S.R.Ref, R.HasResult, R.ResultBits, R.Output))
        Status = OpStatus::Mismatch;
      if (Status == OpStatus::Ok) {
        double Ms = (double)(DoneNs - S.SentNs) / 1e6;
        Out.add((double)(DoneNs - Start) / 1e9, Ms, S.R.Prog, R.ExecuteMs,
                (double)R.Instrs);
        Out.OverheadMs.push_back(Ms - R.CompileMs - R.ExecuteMs);
      }
      Finish(S, Status);
      SendNext(C);
    }
  }
  Out.WallS = secondsSince(Start);
  return Out;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

/// Geometric mean over programs of each program's median latency.
double programGeomean(const std::vector<double> &Lat,
                      const std::vector<uint32_t> &Prog) {
  std::map<uint32_t, std::vector<double>> By;
  for (size_t I = 0; I != Lat.size(); ++I)
    By[Prog[I]].push_back(Lat[I]);
  std::vector<double> Medians;
  for (const auto &[P, V] : By)
    Medians.push_back(median(V));
  return geomean(Medians);
}

struct Row {
  std::map<std::string, double> M;
  std::map<std::string, std::string> Note; ///< sample counts etc.
};

/// The timed leg is cut into this many equal windows; latency p50,
/// throughput and VM rate are the median over windows, so a burst of
/// interference from outside the process moves one window, not the
/// result.
constexpr int kWindows = 5;

/// The end-to-end metrics of a timed leg. p99 is taken per run of
/// consecutive operations (in completion order) at least kMinSamples
/// long, and the median over them is reported: a burst of interference
/// inflates one chunk's tail, not the result. Refuses the run when a
/// chunk's p99 lacks kMinTailSamples samples beyond it. The per-program
/// geomean uses the whole leg.
void endToEndMetrics(const Samples &S, Row &R) {
  size_t N = S.LatMs.size();
  size_t Chunks = std::max<size_t>(1, N / kMinSamples);
  std::vector<double> P99s;
  size_t Beyond = 0;
  for (size_t C = 0; C != Chunks; ++C) {
    Percentile P = percentile(
        std::vector<double>(S.LatMs.begin() + (long)(N * C / Chunks),
                            S.LatMs.begin() + (long)(N * (C + 1) / Chunks)),
        0.99);
    if (!P.Ok)
      die("p99 needs " + std::to_string(kMinTailSamples) +
          " samples beyond it; the run has " + std::to_string(P.Samples) +
          " samples (" + std::to_string(P.Beyond) + " beyond p99)");
    P99s.push_back(P.Value);
    Beyond += P.Beyond;
  }
  std::vector<std::vector<double>> Lat(kWindows);
  std::vector<double> VmMs(kWindows), Instrs(kWindows);
  for (size_t I = 0; I != S.LatMs.size(); ++I) {
    int W = std::min(kWindows - 1, (int)(S.AtS[I] / S.WallS * kWindows));
    Lat[(size_t)W].push_back(S.LatMs[I]);
    VmMs[(size_t)W] += S.VmMs[I];
    Instrs[(size_t)W] += S.Instrs[I];
  }
  std::vector<double> P50s, Rates, Minstr;
  for (int W = 0; W != kWindows; ++W) {
    P50s.push_back(median(Lat[(size_t)W]));
    Rates.push_back((double)Lat[(size_t)W].size() / (S.WallS / kWindows));
    if (VmMs[(size_t)W] > 0)
      Minstr.push_back(Instrs[(size_t)W] / VmMs[(size_t)W] / 1e3);
  }
  std::string Win = ", median of " + std::to_string(kWindows) + " windows";
  std::printf("windows:");
  for (int W = 0; W != kWindows; ++W)
    std::printf(" [p50 %.4g ms, %.5g 1/s]", P50s[(size_t)W], Rates[(size_t)W]);
  std::printf("\n");
  R.M["latency_p50_ms"] = median(P50s);
  R.Note["latency_p50_ms"] = "n=" + std::to_string(S.LatMs.size()) + Win;
  R.M["latency_p99_ms"] = median(P99s);
  R.Note["latency_p99_ms"] = "n=" + std::to_string(N) + ", beyond=" +
                             std::to_string(Beyond) + ", median of " +
                             std::to_string(Chunks) + " chunks";
  R.M["throughput_rps"] = median(Rates);
  R.Note["throughput_rps"] = "over " + std::to_string(S.WallS) + " s" + Win;
  R.M["vm_minstr_s"] = median(Minstr);
  R.Note["vm_minstr_s"] = Win.substr(2);
  R.M["run_geomean_ms"] = programGeomean(S.LatMs, S.Prog);
  R.Note["run_geomean_ms"] =
      std::to_string(std::set<uint32_t>(S.Prog.begin(), S.Prog.end()).size()) +
      " programs";
}

void printInputs(const InputSet &In) {
  std::printf("inputs: {\"workload\":\"%s\",\"seed\":%llu,"
              "\"input_hash\":\"%s\",\"schedule_ops\":%zu,\"programs\":[",
              In.Workload.c_str(), (unsigned long long)In.Seed,
              hex(In.Hash).c_str(), In.Schedule.size());
  for (size_t I = 0; I != In.Programs.size(); ++I) {
    const InputProgram &P = In.Programs[I];
    std::printf("%s{\"name\":\"%s\",\"bytes\":%zu,\"reason\":\"%s\"}",
                I ? "," : "", jsonEscape(P.Name).c_str(), P.Source.size(),
                jsonEscape(P.Reason).c_str());
  }
  std::printf("]}\n");
}

void printRow(const std::string &Workload, const Row &R,
              const MetricDef *Defs, size_t N) {
  std::printf("row: %s", Workload.c_str());
  for (size_t I = 0; I != N; ++I) {
    auto It = R.M.find(Defs[I].Name);
    std::printf(" | %s %.6g %s", Defs[I].Name,
                It == R.M.end() ? 0.0 : It->second, Defs[I].Unit);
    auto NIt = R.Note.find(Defs[I].Name);
    if (NIt != R.Note.end())
      std::printf(" (%s)", NIt->second.c_str());
  }
  std::printf("\n");
}

void printResult(const Row &R, const MetricDef *Defs, size_t N,
                 const OpTally &Tally) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Tally.failed() == 0 ? "true" : "false",
              (unsigned long long)Tally.Attempted,
              (unsigned long long)Tally.failed());
  for (size_t I = 0; I != N; ++I) {
    auto It = R.M.find(Defs[I].Name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Defs[I].Name,
                It == R.M.end() ? 0.0 : It->second, Defs[I].Unit);
  }
  std::printf("}}\n");
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Context {
  Args A;
  InputSet In;
  OpTally Tally;
  Row R;
  Tracer T;
};

/// What a forked set-up repetition reports back.
struct SetupReport {
  double Seconds = 0;
  OpTally Tally;
};

/// Runs \p Setup kSetupReps times and records the median of the seconds
/// it returns as setup_s. Every repetition but the last runs in a child
/// forked for it, before this process has started a server or built a
/// VM, so each one is a cold start that pays the first-use costs (first
/// Vm, JIT arena, allocator growth) in full; the last one runs here and
/// is the set-up the run goes on to use. Operations the children check
/// are counted in Cx.Tally like this process's own.
void coldSetups(Context &Cx, const std::function<double()> &Setup) {
  std::vector<double> SetupS;
  for (int Rep = 1; Rep < kSetupReps; ++Rep) {
    int Fd[2];
    if (::pipe(Fd) != 0)
      die("pipe: " + std::string(std::strerror(errno)));
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t Pid = ::fork();
    if (Pid < 0)
      die("fork: " + std::string(std::strerror(errno)));
    if (Pid == 0) {
      ::close(Fd[0]);
      RunDir += "/setup" + std::to_string(Rep);
      Cx.Tally = OpTally();
      SetupReport R;
      R.Seconds = Setup();
      R.Tally = Cx.Tally;
      std::error_code Ec;
      fs::remove_all(RunDir, Ec);
      bool Sent = ::write(Fd[1], &R, sizeof(R)) == (ssize_t)sizeof(R);
      std::_Exit(Sent ? 0 : 2);
    }
    ::close(Fd[1]);
    SetupReport R;
    bool Got = ::read(Fd[0], &R, sizeof(R)) == (ssize_t)sizeof(R);
    ::close(Fd[0]);
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    if (!Got || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
      die("set-up repetition " + std::to_string(Rep) + " failed");
    SetupS.push_back(R.Seconds);
    Cx.Tally.Attempted += R.Tally.Attempted;
    for (size_t I = 0; I != std::size(R.Tally.ByStatus); ++I)
      Cx.Tally.ByStatus[I] += R.Tally.ByStatus[I];
  }
  SetupS.push_back(Setup());
  Cx.R.M["setup_s"] = median(SetupS);
  auto [Min, Max] = std::minmax_element(SetupS.begin(), SetupS.end());
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "median of %zu cold set-ups, %.4g to %.4g",
                SetupS.size(), *Min, *Max);
  Cx.R.Note["setup_s"] = Buf;
}

/// Input generation, the first step of every set-up: the inputs are
/// built again from the seed and must hash as the references' did.
void regenerateInputs(const Context &Cx) {
  InputSet Again;
  std::string Err;
  if (!makeInputs(Cx.A.Workload, Cx.A.Seed, &Again, &Err) ||
      Again.Hash != Cx.In.Hash)
    die("input generation is not deterministic: " + Err);
}

/// Server-side per-layer metrics from the STATS document and the
/// responses of a served leg.
void serverLayerMetrics(ServerRig &Rig, const Samples &S, Row &R) {
  std::string Doc = Rig.server().statsJson();
  double CH = jsonNumber(Doc, {"cache", "hits"});
  double CM = jsonNumber(Doc, {"cache", "misses"});
  double PH = jsonNumber(Doc, {"vm_pool", "hits"});
  double PM = jsonNumber(Doc, {"vm_pool", "misses"});
  R.M["service.cache_hit_ratio"] = CH + CM ? CH / (CH + CM) : 0;
  R.M["exec.pool_hit_ratio"] = PH + PM ? PH / (PH + PM) : 0;
  R.M["server.queue_wait_p50_ms"] =
      jsonNumber(Doc, {"latency_ms", "queue_wait", "p50_ms"});
  R.M["server.overhead_ms"] = median(S.OverheadMs);
}

std::vector<ReplayOp> replayOps(const Context &Cx) {
  std::vector<ReplayOp> Ops;
  const InputSet &In = Cx.In;
  if (In.Workload == "serve-cold") {
    for (size_t Op = 0; Op != kColdReplayOps; ++Op) {
      const InputProgram &P = In.programOf(Op);
      Ops.push_back({P.Name, sourceFor(In, Op, "replay"), &P.Ref});
    }
    return Ops;
  }
  for (const InputProgram &P : In.Programs)
    Ops.push_back({P.Name, P.Source, &P.Ref});
  return Ops;
}

/// trace.coverage_pct: the layer self times on this workload's request
/// path, summed, over the traced run's end-to-end p50.
double coveragePct(const std::string &Workload, Row &R, double P50) {
  auto &M = R.M;
  double Ms = (M["vm.prepare_self_us"] + M["vm.construct_self_us"] +
               M["vm.run_self_us"]) /
              1e3;
  if (Workload == "serve-cold") {
    for (const char *L :
         {"parse.self_ms", "sema.self_ms", "lower.self_ms", "mono.self_ms",
          "opt.mono_self_ms", "normalize.self_ms", "opt.norm_self_ms",
          "mono.share_self_ms", "ir.verify_self_ms", "vm.emit_self_ms",
          "service.store_self_ms"})
      Ms += M[L];
    Ms += M["net.codec_self_us"] / 1e3 + M["server.queue_wait_p50_ms"];
  }
  return P50 > 0 ? 100.0 * Ms / P50 : 0;
}

void runServe(Context &Cx) {
  const Args &A = Cx.A;
  InputSet &In = Cx.In;
  auto Timed = [&](const char *Tag) {
    return [&In, Tag](size_t Op) {
      const InputProgram &P = In.programOf(Op);
      return ReqSpec{In.Schedule[Op % In.Schedule.size()], P.Name,
                     sourceFor(In, Op, Tag), &P.Ref};
    };
  };

  auto WarmUp = [&In](size_t Op) {
    uint32_t P = In.WarmUps[Op];
    return ReqSpec{P, In.Programs[P].Name, In.Programs[P].Source,
                   &In.Programs[P].Ref};
  };

  std::unique_ptr<ServerRig> Rig;
  coldSetups(Cx, [&] {
    int64_t T0 = nowNs();
    regenerateInputs(Cx);
    Rig = std::make_unique<ServerRig>(RunDir + "/server");
    // The first compile and the first VM, on the fixed warm-up sources.
    serveLoop(*Rig, WarmUp, In.WarmUps.size(), 1e9, 0, nullptr, 0,
              Cx.Tally);
    return secondsSince(T0);
  });

  if (!A.Trace) {
    endToEndMetrics(serveLoop(*Rig, Timed("timed"), SIZE_MAX, A.Seconds,
                              kMinSamples, nullptr, 0, Cx.Tally),
                    Cx.R);
    return;
  }

  std::vector<ReplayOp> Ops = replayOps(Cx);
  replayLayers(Ops, kReplayPasses, RunDir + "/replay-cache", Cx.T,
               Cx.Tally, Cx.R.M);
  Samples Plain = serveLoop(*Rig, Timed("untraced"), SIZE_MAX,
                               A.Seconds / 2, 0, nullptr, 0, Cx.Tally);
  Samples Traced = serveLoop(*Rig, Timed("traced"), SIZE_MAX,
                                A.Seconds / 2, 0, &Cx.T, 1ull << 40,
                                Cx.Tally);
  serverLayerMetrics(*Rig, Traced, Cx.R);
  double P50 = median(Traced.LatMs);
  Cx.R.M["trace.overhead_pct"] = 100.0 * (P50 / median(Plain.LatMs) - 1);
  Cx.R.M["trace.coverage_pct"] = coveragePct(In.Workload, Cx.R, P50);
}

void runHot(Context &Cx) {
  const Args &A = Cx.A;
  InputSet &In = Cx.In;
  std::vector<std::unique_ptr<Program>> Progs;
  coldSetups(Cx, [&] {
    int64_t T0 = nowNs();
    regenerateInputs(Cx);
    Progs.clear();
    for (const InputProgram &P : In.Programs) {
      Compiler C;
      std::string Err;
      auto Prog = C.compile(P.Name, P.Source, &Err);
      if (!Prog)
        die(P.Name + " does not compile: " + Err);
      Progs.push_back(std::move(Prog));
    }
    // First use of each kernel (and the first VM of the process).
    for (size_t I = 0; I != Progs.size(); ++I) {
      VmResult VR = Progs[I]->runVm();
      const Expected &Ref = In.Programs[I].Ref;
      Cx.Tally.record(VR.Trapped ? OpStatus::ProgramError
                      : matches(Ref, VR.HasResult, VR.ResultBits, VR.Output)
                          ? OpStatus::Ok
                          : OpStatus::Mismatch);
    }
    return secondsSince(T0);
  });

  // Whole rounds (each kernel once, seeded order) until the time is up
  // and the sample floor is met.
  auto RunLeg = [&](double Seconds, size_t MinSamples, Tracer *T,
                    size_t FirstOp) {
    Samples L;
    size_t K = In.Programs.size();
    int64_t Start = nowNs();
    for (size_t Op = FirstOp;; ++Op) {
      if (Op % K == 0) {
        double El = secondsSince(Start);
        if (El >= Seconds &&
            (L.LatMs.size() >= MinSamples || El >= Seconds * kMaxStretch))
          break;
      }
      uint32_t P = In.Schedule[Op % In.Schedule.size()];
      int64_t T0;
      VmResult VR;
      {
        ScopedSpan S(T, "vm.run_program", -1, (1ull << 40) + Op);
        T0 = nowNs();
        VR = Progs[P]->runVm();
      }
      double Ms = (double)(nowNs() - T0) / 1e6;
      bool Ok = !VR.Trapped && matches(In.Programs[P].Ref, VR.HasResult,
                                       VR.ResultBits, VR.Output);
      Cx.Tally.record(VR.Trapped ? OpStatus::ProgramError
                      : Ok       ? OpStatus::Ok
                                 : OpStatus::Mismatch);
      if (!Ok)
        continue;
      L.add(secondsSince(Start), Ms, P, Ms, (double)VR.Counters.Instrs);
    }
    L.WallS = secondsSince(Start);
    return L;
  };

  if (!A.Trace) {
    endToEndMetrics(RunLeg(A.Seconds, kMinSamples, nullptr, 0), Cx.R);
    return;
  }

  std::vector<ReplayOp> Ops = replayOps(Cx);
  replayLayers(Ops, kReplayPasses, RunDir + "/replay-cache", Cx.T,
               Cx.Tally, Cx.R.M);
  Samples Plain = RunLeg(A.Seconds / 2, 0, nullptr, 0);
  Samples Traced = RunLeg(A.Seconds / 2, 0, &Cx.T, 0);
  double P50 = median(Traced.LatMs);
  Cx.R.M["trace.overhead_pct"] = 100.0 * (P50 / median(Plain.LatMs) - 1);
  Cx.R.M["trace.coverage_pct"] = coveragePct(In.Workload, Cx.R, P50);

  // run-hot bypasses the server; serve each kernel twice (a cold and a
  // pooled request) so the server-side layer metrics are measured here
  // too, on these programs.
  ServerRig Rig(RunDir + "/served");
  auto Spec = [&](size_t Op) {
    uint32_t P = (uint32_t)(Op % In.Programs.size());
    return ReqSpec{P, In.Programs[P].Name, In.Programs[P].Source,
                   &In.Programs[P].Ref};
  };
  Samples S = serveLoop(Rig, Spec, 2 * In.Programs.size(), 1e9, 0,
                           nullptr, 0, Cx.Tally);
  serverLayerMetrics(Rig, S, Cx.R);
}

} // namespace

int main(int Argc, char **Argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Context Cx;
  Cx.A = parseArgs(Argc, Argv);
  const Args &A = Cx.A;
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), A.Workload) == Names.end())
    die("--workload must be one of serve-cold, run-hot");

  // Thread accounting: the load generator is this one thread; a server
  // adds its workers and event-loop threads. Everything must fit on the
  // CPUs this process may use, or queueing on the CPU would be measured
  // instead of the system.
  int Cpus = nproc();
  bool Serves = A.Workload != "run-hot" || A.Trace;
  int Threads = 1 + (Serves ? kWorkers + kIoThreads : 0);
  std::printf("config: workload=%s seed=%llu seconds=%g trace=%d "
              "connections=%d client_threads=1 workers=%d io_threads=%d "
              "threads=%d nproc=%d\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              A.Trace ? 1 : 0, Serves ? kConnections : 0,
              Serves ? kWorkers : 0, Serves ? kIoThreads : 0, Threads, Cpus);
  if (Threads > Cpus || (Serves && kConnections > Cpus))
    die("configuration needs " + std::to_string(Threads) +
        " threads and " + std::to_string(kConnections) +
        " connections but nproc is " + std::to_string(Cpus));

  std::string Err;
  if (!makeInputs(A.Workload, A.Seed, &Cx.In, &Err))
    die(Err);
  // References come from outside every timed region and set-up.
  if (!computeReferences(Cx.In, &Err))
    die(Err);
  if (A.InjectMismatch) {
    InputProgram &P = Cx.In.Programs[Cx.In.Schedule[0]];
    P.Ref.Result += 1;
    std::printf("self-test: injected a wrong expected result for %s\n",
                P.Name.c_str());
  }
  printInputs(Cx.In);
  std::fflush(stdout);

  RunDir = A.OutDir + "/run-" + std::to_string(::getpid());
  if (A.Workload == "run-hot")
    runHot(Cx);
  else
    runServe(Cx);
  {
    std::error_code Ec;
    fs::remove_all(RunDir, Ec);
  }

  Cx.R.M["success_pct"] = 100.0 - Cx.Tally.failedPct();
  Cx.R.M["peak_rss_mb"] = peakRssMb();
  std::printf("failed_pct: %.4f %% (%llu of %llu attempted:",
              Cx.Tally.failedPct(), (unsigned long long)Cx.Tally.failed(),
              (unsigned long long)Cx.Tally.Attempted);
  for (OpStatus S : {OpStatus::Mismatch, OpStatus::ProgramError,
                     OpStatus::Refused, OpStatus::Transport})
    std::printf(" %s %llu", statusName(S),
                (unsigned long long)Cx.Tally.ByStatus[(int)S]);
  std::printf(")\n");

  const MetricDef *Defs = A.Trace ? PerLayer : EndToEnd;
  size_t N = A.Trace ? std::size(PerLayer) : std::size(EndToEnd);
  if (A.Trace) {
    std::string Path = A.OutDir + "/trace-" + A.Workload + "-" +
                       std::to_string(A.Seed) + ".json";
    if (!Cx.T.writeChromeTrace(Path))
      die("cannot write " + Path);
    std::printf("trace: %zu spans written to %s\n", Cx.T.spans().size(),
                Path.c_str());
  }
  printRow(A.Workload, Cx.R, Defs, N);
  printResult(Cx.R, Defs, N, Cx.Tally);
  return Cx.Tally.failed() == 0 ? 0 : 1;
}
