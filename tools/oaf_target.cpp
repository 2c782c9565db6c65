// oaf_target — standalone NVMe-oAF storage service.
//
// Listens for NVMe-oAF clients on TCP (control path) and serves an
// in-memory NVMe namespace. Clients whose --token matches this target's
// token are treated as co-located and get a POSIX shared-memory data
// channel (the IVSHMEM stand-in); others transparently use TCP.
//
//   oaf_target --port 4420 --token 42 --capacity-mb 256 --conns 1
//   oaf_perf   --port 4420 --token 42 --io-size-kib 128 --qd 32 --seconds 2
//
// The process exits once every accepted connection has closed.
//
// Observability: SIGUSR1 dumps the metrics registry (Prometheus text — shm
// slot occupancy, resilience counters, per-command totals) to stderr at the
// next poll tick; --stats-interval-ms does the same periodically.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "af/locality.h"
#include "net/tcp_channel.h"
#include "nvmf/target_service.h"
#include "sim/real_executor.h"
#include "ssd/real_device.h"
#include "telemetry/anomaly.h"
#include "telemetry/attribution.h"
#include "telemetry/flight.h"
#include "telemetry/prof/prof.h"
#include "telemetry/stat_server.h"
#include "telemetry/telemetry.h"

using namespace oaf;

namespace {

struct Options {
  u16 port = 4420;
  u64 token = 42;
  u64 capacity_mb = 256;
  int conns = 1;
  std::string conn_prefix = "oafconn";
  u64 kato_ms = 0;  // default KATO; 0 = associations never expire on silence
  u64 orphan_sweep_ms = 0;  // stuck window for no-KATO assocs; 0 = no sweep
  u64 stats_interval_ms = 0;  // periodic metrics dump to stderr; 0 = off
  int stat_port = -1;         // live introspection endpoint; -1 off, 0 = ephemeral
  std::string trace_out;      // Chrome trace JSON path; "" = no detail events
  std::string flight_dir;     // arm the flight recorder into DIR; "" = off
  // Overload protection (DESIGN.md §12); all off by default.
  u64 max_conns = 0;          // connect-time admission cap; 0 = unlimited
  u64 max_inflight = 0;       // per-connection in-flight command cap
  u64 max_staging_kib = 0;    // per-connection staging budget
  u64 global_staging_kib = 0; // target-wide staging budget
  std::string shed_policy = "oldest";  // "oldest" | "fair"
  double shed_watermark = 0.9;
  u64 stall_timeout_ms = 0;   // slow-client eviction threshold; 0 = off
  // Tail-latency attribution (DESIGN.md §13). SLO flags arm the target-side
  // watchdog over its own residency (arrival → response); breaches capture
  // locally when --anomaly-dir is set (no reverse fetch — the initiator owns
  // the cross-process capture).
  u64 slo_read_us = 0;        // read residency SLO; 0 = off
  u64 slo_write_us = 0;       // write residency SLO; 0 = off
  std::string anomaly_dir;    // arm retroactive anomaly capture into DIR
  // Continuous profiling (DESIGN.md §15).
  std::string profile_out;    // collapsed-stack output path; "" = sampler off
  u32 profile_hz = 997;       // sampling rate (prime: avoids phase lock)
};

/// Set by SIGUSR1; the serve loop picks it up on its next tick so the dump
/// itself runs on the executor thread (registry callbacks sample live
/// connection state there).
volatile std::sig_atomic_t g_dump_requested = 0;

void on_sigusr1(int) { g_dump_requested = 1; }

void dump_metrics(const char* why) {
  const std::string text = telemetry::metrics().to_prometheus();
  std::fprintf(stderr, "# oaf_target metrics dump (%s)\n", why);
  std::fwrite(text.data(), 1, text.size(), stderr);
  std::fflush(stderr);
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (!v) return false;
      opts.port = static_cast<u16>(std::atoi(v));
    } else if (arg == "--token") {
      const char* v = next();
      if (!v) return false;
      opts.token = std::strtoull(v, nullptr, 10);
    } else if (arg == "--capacity-mb") {
      const char* v = next();
      if (!v) return false;
      opts.capacity_mb = std::strtoull(v, nullptr, 10);
    } else if (arg == "--conns") {
      const char* v = next();
      if (!v) return false;
      opts.conns = std::atoi(v);
    } else if (arg == "--conn-prefix") {
      const char* v = next();
      if (!v) return false;
      opts.conn_prefix = v;
    } else if (arg == "--kato-ms") {
      const char* v = next();
      if (!v) return false;
      opts.kato_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--orphan-sweep-ms") {
      const char* v = next();
      if (!v) return false;
      opts.orphan_sweep_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--stats-interval-ms") {
      const char* v = next();
      if (!v) return false;
      opts.stats_interval_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--stat-port") {
      const char* v = next();
      if (!v) return false;
      opts.stat_port = std::atoi(v);
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return false;
      opts.trace_out = v;
    } else if (arg == "--flight-dir") {
      const char* v = next();
      if (!v) return false;
      opts.flight_dir = v;
    } else if (arg == "--max-conns") {
      const char* v = next();
      if (!v) return false;
      opts.max_conns = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-inflight") {
      const char* v = next();
      if (!v) return false;
      opts.max_inflight = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-staging-kib") {
      const char* v = next();
      if (!v) return false;
      opts.max_staging_kib = std::strtoull(v, nullptr, 10);
    } else if (arg == "--global-staging-kib") {
      const char* v = next();
      if (!v) return false;
      opts.global_staging_kib = std::strtoull(v, nullptr, 10);
    } else if (arg == "--shed-policy") {
      const char* v = next();
      if (!v) return false;
      opts.shed_policy = v;
    } else if (arg == "--shed-watermark") {
      const char* v = next();
      if (!v) return false;
      opts.shed_watermark = std::atof(v);
    } else if (arg == "--stall-timeout-ms") {
      const char* v = next();
      if (!v) return false;
      opts.stall_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--slo-read-us") {
      const char* v = next();
      if (!v) return false;
      opts.slo_read_us = std::strtoull(v, nullptr, 10);
    } else if (arg == "--slo-write-us") {
      const char* v = next();
      if (!v) return false;
      opts.slo_write_us = std::strtoull(v, nullptr, 10);
    } else if (arg == "--anomaly-dir") {
      const char* v = next();
      if (!v) return false;
      opts.anomaly_dir = v;
    } else if (arg == "--profile-out") {
      const char* v = next();
      if (!v) return false;
      opts.profile_out = v;
    } else if (arg == "--profile-hz") {
      const char* v = next();
      if (!v) return false;
      opts.profile_hz = static_cast<u32>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: oaf_target [--port N] [--token T] [--capacity-mb M]\n"
      "                  [--conns K] [--conn-prefix P] [--kato-ms MS]\n"
      "                  [--orphan-sweep-ms MS] [--stats-interval-ms MS]\n"
      "                  [--stat-port N] [--trace-out FILE] [--flight-dir DIR]\n"
      "                  [--max-conns N] [--max-inflight N]\n"
      "                  [--max-staging-kib K] [--global-staging-kib K]\n"
      "                  [--shed-policy oldest|fair] [--shed-watermark F]\n"
      "                  [--stall-timeout-ms MS]\n"
      "                  [--slo-read-us US] [--slo-write-us US]\n"
      "                  [--anomaly-dir DIR]\n"
      "                  [--profile-out FILE] [--profile-hz HZ]\n"
      "Serves an in-memory NVMe namespace over NVMe-oAF; exits when all K\n"
      "associations have closed or expired their keep-alive timeout.\n"
      "SIGUSR1 dumps the metrics registry to stderr.\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    usage();
    return 2;
  }

  if (!opts.trace_out.empty()) telemetry::tracer().set_enabled(true);
  if (!opts.flight_dir.empty()) {
    telemetry::flight().install({opts.flight_dir, /*fatal_signals=*/true});
  }
  // Target-side attribution is always on (feeds the heat/top stat verbs);
  // the SLO watchdog over target residency stays off until the flags arm it.
  {
    telemetry::AttributionOptions aopts;
    aopts.slo_read_ns = static_cast<DurNs>(opts.slo_read_us) * 1'000;
    aopts.slo_write_ns = static_cast<DurNs>(opts.slo_write_us) * 1'000;
    telemetry::attribution().configure(aopts);
  }
  if (!opts.anomaly_dir.empty()) {
    telemetry::AnomalyOptions an;
    an.dir = opts.anomaly_dir;
    telemetry::anomaly().configure(an);
  }

  // Cycle accounting is always on (it is what makes `oaf_stat prof` report
  // live cycles/IO); the sampling profiler is opt-in via --profile-out.
  telemetry::prof::cycle_ledger().set_enabled(true);

  sim::RealExecutor exec;
  net::InlineCopier copier;
  af::ShmBroker broker(opts.token, af::ShmBroker::Backing::kPosixShm);

  if (!opts.profile_out.empty()) {
    auto& prof = telemetry::prof::profiler();
    if (auto st = prof.register_this_thread("main"); !st) {
      std::fprintf(stderr, "oaf_target: profiler: %s\n",
                   st.to_string().c_str());
    }
    std::atomic<bool> registered{false};
    exec.post([&] {
      (void)prof.register_this_thread("reactor");
      registered = true;
    });
    while (!registered.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    telemetry::prof::ProfilerOptions popts;
    popts.sample_hz = opts.profile_hz;
    if (auto st = prof.start(popts); !st) {
      std::fprintf(stderr, "oaf_target: profiler: %s\n",
                   st.to_string().c_str());
    } else {
      std::fprintf(stderr, "oaf_target: sampling at %u Hz -> %s\n",
                   opts.profile_hz, opts.profile_out.c_str());
    }
  }

  ssd::RealDevice device(exec, 512, opts.capacity_mb * kMiB / 512);
  ssd::Subsystem subsystem("nqn.2026-07.io.oaf:target");
  if (auto st = subsystem.add_namespace(1, &device); !st) {
    std::fprintf(stderr, "namespace: %s\n", st.to_string().c_str());
    return 1;
  }

  auto listener_res = net::TcpListener::listen(opts.port);
  if (!listener_res) {
    std::fprintf(stderr, "listen: %s\n", listener_res.status().to_string().c_str());
    return 1;
  }
  auto listener = std::move(listener_res).take();
  std::printf("oaf_target: listening on 127.0.0.1:%u (token %llu, %llu MiB, "
              "%d connection%s)\n",
              listener.port(), static_cast<unsigned long long>(opts.token),
              static_cast<unsigned long long>(opts.capacity_mb), opts.conns,
              opts.conns == 1 ? "" : "s");
  std::fflush(stdout);

  nvmf::TargetServiceOptions sopts;
  sopts.af = af::AfConfig::oaf();
  sopts.default_kato_ns = static_cast<DurNs>(opts.kato_ms) * 1'000'000;
  sopts.orphan_slot_timeout_ns =
      static_cast<DurNs>(opts.orphan_sweep_ms) * 1'000'000;
  sopts.max_conns = static_cast<u32>(opts.max_conns);
  sopts.max_inflight_cmds = static_cast<u32>(opts.max_inflight);
  sopts.max_staging_bytes = opts.max_staging_kib * 1024;
  sopts.global_staging_bytes = opts.global_staging_kib * 1024;
  sopts.shed_policy = nvmf::parse_shed_policy(opts.shed_policy);
  sopts.shed_watermark = opts.shed_watermark;
  sopts.stall_timeout_ns = static_cast<DurNs>(opts.stall_timeout_ms) * 1'000'000;
  nvmf::NvmfTargetService service(exec, copier, broker, subsystem, sopts);

  for (int i = 0; i < opts.conns;) {
    auto accepted = listener.accept(exec);
    if (!accepted) {
      std::fprintf(stderr, "accept: %s\n", accepted.status().to_string().c_str());
      return 1;
    }
    const std::string conn_name = opts.conn_prefix + std::to_string(i);
    nvmf::NvmfTargetConnection* conn =
        service.accept(std::move(accepted).take(), conn_name);
    if (conn->connect_rejected()) {
      // A dial past --max-conns got its ICResp{admitted=false} verdict; it
      // must not consume a --conns slot, or the listener would go dark
      // before the rejected client's re-dial can be admitted.
      continue;
    }
    std::printf("oaf_target: accepted connection %d (%s)\n", i, conn_name.c_str());
    std::fflush(stdout);
    ++i;
  }

  std::signal(SIGUSR1, on_sigusr1);

  // Live introspection endpoint (opt-in). The conns provider walks service
  // state owned by the executor thread, so it posts there and waits.
  telemetry::StatServer stat;
  if (opts.stat_port >= 0) {
    stat.handle("metrics", [] { return telemetry::metrics().to_prometheus(); });
    stat.handle("trace", [] { return telemetry::tracer().to_chrome_json(); });
    // prof_json reads only atomics/registry handles — safe off-executor.
    stat.handle("prof", [] { return telemetry::prof::prof_json(); });
    stat.handle("heat", [&exec] {
      return telemetry::attribution().heat_json(exec.now());
    });
    stat.handle("top", [&exec] {
      return telemetry::attribution().top_json(exec.now());
    });
    stat.handle("conns", [&exec, &service]() -> std::string {
      std::string out;
      std::atomic<bool> ready{false};
      exec.post([&] {
        out = service.conns_json();
        ready = true;
      });
      while (!ready.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return out;
    });
    if (auto st = stat.start(static_cast<u16>(opts.stat_port)); !st) {
      std::fprintf(stderr, "stat server: %s\n", st.to_string().c_str());
      return 1;
    }
    std::printf("oaf_target: stat server on 127.0.0.1:%u\n", stat.port());
    std::fflush(stdout);
  }

  // Serve until every association has hung up or been reaped. Reaping must
  // run on the executor thread — it destroys connections whose callbacks
  // run there — and so must metrics dumps: the registry's callback gauges
  // sample live connection state.
  u64 commands = 0;
  auto last_dump = std::chrono::steady_clock::now();
  for (;;) {
    std::atomic<bool> polled{false};
    std::size_t active = 0;
    const char* why = nullptr;
    if (g_dump_requested != 0) {
      g_dump_requested = 0;
      why = "SIGUSR1";
    } else if (opts.stats_interval_ms > 0) {
      const auto now = std::chrono::steady_clock::now();
      if (now - last_dump >= std::chrono::milliseconds(opts.stats_interval_ms)) {
        last_dump = now;
        why = "periodic";
      }
    }
    exec.post([&] {
      service.reap_expired();
      service.sweep_orphan_slots();
      service.overload_tick();
      active = service.active();
      commands = service.commands_served();
      if (why != nullptr) dump_metrics(why);
      polled = true;
    });
    while (!polled.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (active == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (!opts.profile_out.empty()) {
    auto& prof = telemetry::prof::profiler();
    prof.stop();
    if (prof.write_collapsed(opts.profile_out)) {
      std::fprintf(
          stderr,
          "oaf_target: profile written to %s (%llu samples, %llu dropped)\n",
          opts.profile_out.c_str(),
          static_cast<unsigned long long>(prof.samples_total()),
          static_cast<unsigned long long>(prof.dropped_total()));
    } else {
      std::fprintf(stderr, "oaf_target: failed to write profile to %s\n",
                   opts.profile_out.c_str());
    }
  }

  if (!opts.trace_out.empty()) {
    if (telemetry::tracer().write_chrome_json(opts.trace_out)) {
      std::fprintf(stderr,
                   "oaf_target: trace written to %s (%llu events, %llu dropped)\n",
                   opts.trace_out.c_str(),
                   static_cast<unsigned long long>(telemetry::tracer().size()),
                   static_cast<unsigned long long>(telemetry::tracer().dropped()));
    } else {
      std::fprintf(stderr, "oaf_target: failed to write trace to %s\n",
                   opts.trace_out.c_str());
    }
  }

  std::printf("oaf_target: all associations closed; served %llu commands "
              "(%llu association%s reaped)\n",
              static_cast<unsigned long long>(commands),
              static_cast<unsigned long long>(service.reaped()),
              service.reaped() == 1 ? "" : "s");
  return 0;
}
