//===- tools/virgild.cpp - The compile-and-execute daemon ------------------===//
///
/// \file
/// `virgild [options]` — serves compile/execute requests over the
/// length-prefixed binary protocol (DESIGN.md §10) on a TCP and/or
/// Unix-domain socket. SIGTERM/SIGINT trigger a graceful drain:
/// in-flight and queued requests finish, responses flush, then the
/// process exits 0.
///
/// Options:
///   --unix PATH          listen on a Unix-domain socket at PATH
///   --tcp HOST:PORT      listen on TCP (PORT 0 = ephemeral, printed)
///   --workers N          worker threads (default 2; 0 = all cores)
///   --io-threads N       event-loop threads, each owning a shard of
///                        the connections (default 1; 0 = all cores).
///                        Workers are raised to at least this count.
///   --queue-cap N        bounded request queue per shard (default 64);
///                        overflow answers BUSY
///   --cache-dir D        enable the content-addressed bytecode cache
///   --cache-max-bytes N  LRU-evict the cache above N bytes
///   --fuel N             default per-request instruction budget
///   --heap-max-bytes N   default per-request heap quota (caps the
///                        request VM's nursery + old space combined)
///   --deadline-ms N      default per-request wall-clock budget
///   --vm-pool on|off     warm-VM pool: repeat sources reuse a reset
///                        VM instead of recompiling + re-preparing
///                        (default on)
///   --vm-pool-size N     warm VMs retained per worker (default 8)
///   --no-opt             compile without the optimizer
///   --<knob> VALUE       any feature knob of core/Features.h, with the
///                        same spellings as virgilc (--mono-share on|off,
///                        --vm-jit on|off|auto, --vm-nursery-bytes N,
///                        ...); the default is the knob's environment
///                        setting, and STATS reports each knob's setting
///                        next to its totals
///   --stats-on-exit      print the final STATS JSON to stdout on drain
///
/// Exit codes: 0 clean drain, 1 startup failure, 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>

using namespace virgil;
using namespace virgil::server;

static Server *TheServer = nullptr;

static void onSignal(int) {
  // Async-signal-safe: sets a flag and writes one pipe byte.
  if (TheServer)
    TheServer->requestStop();
}

static void usage() {
  std::fprintf(
      stderr,
      "usage: virgild [--unix PATH] [--tcp HOST:PORT] [--workers N]\n"
      "               [--io-threads N] [--queue-cap N] [--cache-dir D]\n"
      "               [--cache-max-bytes N]\n"
      "               [--fuel N] [--heap-max-bytes N] [--deadline-ms N]\n"
      "               [--vm-gc gen|semi] [--vm-nursery-bytes N]\n"
      "               [--vm-pool on|off] [--vm-pool-size N]\n"
      "               [--vm-jit on|off|auto] [--jit-threshold N]\n"
      "               [--no-opt] [--mono-share on|off] "
      "[--opt-escape on|off] [--opt-ssa on|off]\n"
      "               [--stats-on-exit]\n");
}

int main(int Argc, char **Argv) {
  ServerConfig Config;
  Config.TcpPort = -1;
  bool StatsOnExit = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t N = 0;
    if (Arg == "--unix" && I + 1 < Argc) {
      Config.UnixPath = Argv[++I];
    } else if (Arg == "--tcp" && I + 1 < Argc) {
      std::string Spec = Argv[++I];
      size_t Colon = Spec.rfind(':');
      if (Colon == std::string::npos || Colon + 1 == Spec.size()) {
        std::fprintf(stderr, "virgild: --tcp needs HOST:PORT\n");
        return 2;
      }
      if (!parseUnsigned(Spec.c_str() + Colon + 1, 0, 65535, &N)) {
        std::fprintf(stderr, "virgild: bad port in '%s'\n", Spec.c_str());
        return 2;
      }
      Config.TcpHost = Spec.substr(0, Colon);
      Config.TcpPort = (int)N;
    } else if (Arg == "--workers" && I + 1 < Argc) {
      if (!parseUnsigned(Argv[++I], 0, UINT64_MAX, &N)) {
        std::fprintf(stderr, "virgild: bad --workers\n");
        return 2;
      }
      Config.Workers =
          N == 0 ? (int)std::thread::hardware_concurrency() : (int)N;
    } else if (Arg == "--io-threads" && I + 1 < Argc) {
      if (!parseUnsigned(Argv[++I], 0, 64, &N)) {
        std::fprintf(stderr, "virgild: bad --io-threads\n");
        return 2;
      }
      Config.IoThreads =
          N == 0 ? (int)std::thread::hardware_concurrency() : (int)N;
    } else if (Arg == "--vm-pool" && I + 1 < Argc) {
      std::string Mode = Argv[++I];
      if (Mode == "on") {
        Config.Exec.UsePool = true;
      } else if (Mode == "off") {
        Config.Exec.UsePool = false;
      } else {
        std::fprintf(stderr, "virgild: --vm-pool is on|off\n");
        return 2;
      }
    } else if (Arg == "--vm-pool-size" && I + 1 < Argc) {
      if (!parseUnsigned(Argv[++I], 1, 4096, &N)) {
        std::fprintf(stderr, "virgild: bad --vm-pool-size\n");
        return 2;
      }
      Config.Exec.PoolSize = (size_t)N;
    } else if (Arg == "--queue-cap" && I + 1 < Argc) {
      if (!parseUnsigned(Argv[++I], 1, UINT64_MAX, &N)) {
        std::fprintf(stderr, "virgild: bad --queue-cap\n");
        return 2;
      }
      Config.QueueCap = (size_t)N;
    } else if (Arg == "--cache-dir" && I + 1 < Argc) {
      Config.CacheDir = Argv[++I];
    } else if (Arg == "--cache-max-bytes" && I + 1 < Argc) {
      if (!parseUnsigned(Argv[++I], 0, UINT64_MAX, &Config.CacheMaxBytes)) {
        std::fprintf(stderr, "virgild: bad --cache-max-bytes\n");
        return 2;
      }
    } else if (Arg == "--fuel" && I + 1 < Argc) {
      if (!parseUnsigned(Argv[++I], 0, UINT64_MAX,
                         &Config.Exec.DefaultFuel)) {
        std::fprintf(stderr, "virgild: bad --fuel\n");
        return 2;
      }
    } else if (Arg == "--heap-max-bytes" && I + 1 < Argc) {
      if (!parseUnsigned(Argv[++I], 0, UINT64_MAX,
                         &Config.Exec.DefaultHeapBytes)) {
        std::fprintf(stderr, "virgild: bad --heap-max-bytes\n");
        return 2;
      }
    } else if (Arg == "--deadline-ms" && I + 1 < Argc) {
      if (!parseUnsigned(Argv[++I], 0, UINT32_MAX, &N)) {
        std::fprintf(stderr, "virgild: bad --deadline-ms\n");
        return 2;
      }
      Config.Exec.DefaultDeadlineMs = (uint32_t)N;
    } else if (Arg == "--no-opt") {
      Config.Compile.Optimize = false;
    } else if (int K = parseFeatureFlag("virgild", I, Argc, Argv,
                                        &Config.Compile, &Config.Exec.Vm)) {
      if (K < 0)
        return 2;
    } else if (Arg == "--stats-on-exit") {
      StatsOnExit = true;
    } else {
      std::fprintf(stderr, "virgild: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    }
  }
  if (Config.UnixPath.empty() && Config.TcpPort < 0) {
    std::fprintf(stderr,
                 "virgild: need at least one of --unix or --tcp\n");
    usage();
    return 2;
  }

  Server S(Config);
  TheServer = &S;
  std::string Err;
  if (!S.start(&Err)) {
    std::fprintf(stderr, "virgild: %s\n", Err.c_str());
    return 1;
  }

  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onSignal;
  sigaction(SIGTERM, &SA, nullptr);
  sigaction(SIGINT, &SA, nullptr);
  signal(SIGPIPE, SIG_IGN);

  if (!Config.UnixPath.empty())
    std::fprintf(stderr, "virgild: listening on unix %s\n",
                 Config.UnixPath.c_str());
  if (Config.TcpPort >= 0)
    std::fprintf(stderr, "virgild: listening on tcp %s:%u\n",
                 Config.TcpHost.c_str(), S.tcpPort());
  std::fprintf(stderr,
               "virgild: %d io threads, %d workers, queue cap %zu/shard, "
               "vm pool %s, cache %s\n",
               Config.IoThreads,
               Config.Workers < Config.IoThreads ? Config.IoThreads
                                                 : Config.Workers,
               Config.QueueCap,
               Config.Exec.UsePool ? "on" : "off",
               Config.CacheDir.empty() ? "off"
                                       : Config.CacheDir.c_str());

  while (!S.stopping())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::fprintf(stderr, "virgild: draining...\n");
  if (StatsOnExit) {
    // Snapshot before stop(): the metrics are complete once the drain
    // finishes, but the queue/connection gauges are livelier here.
    std::string Stats = S.statsJson();
    S.stop();
    std::printf("%s\n", Stats.c_str());
  } else {
    S.stop();
  }
  std::fprintf(stderr, "virgild: clean shutdown\n");
  return 0;
}
