// oaf_perf — standalone workload client (the SPDK `perf` role).
//
// Connects to a running oaf_target over TCP, negotiates the adaptive fabric
// (shared memory when the --token matches the target's host token), runs a
// timed workload at a fixed queue depth, and prints bandwidth, IOPS, and
// latency percentiles with the I/O-time/comm/other breakdown.
//
//   oaf_perf --port 4420 --token 42 --io-size-kib 128 --qd 32
//            --rw 1.0 --seconds 2
//
// Observability: --json replaces the tables with one machine-readable
// RunStats object on stdout (human banners go to stderr); --trace-out=FILE
// adds the per-I/O detail events to the always-on trace ring and writes it as
// Chrome trace_event JSON for chrome://tracing or https://ui.perfetto.dev;
// --metrics-json=FILE dumps the process metrics registry.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "af/locality.h"
#include "bench/perf_driver.h"
#include "common/json.h"
#include "common/table.h"
#include "net/fault_channel.h"
#include "net/tcp_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/path_group.h"
#include "nvmf/path_selector.h"
#include "sim/real_executor.h"
#include "telemetry/anomaly.h"
#include "telemetry/attribution.h"
#include "telemetry/flight.h"
#include "telemetry/prof/prof.h"
#include "telemetry/stat_server.h"
#include "telemetry/telemetry.h"

using namespace oaf;

namespace {

struct Options {
  std::string host = "127.0.0.1";
  u16 port = 4420;
  u64 token = 42;
  std::string conn = "oafconn0";
  u64 io_size_kib = 128;
  u32 qd = 32;
  double read_fraction = 1.0;  // --rw: 1.0 read, 0.0 write, else mix
  double seconds = 2.0;
  u64 working_set_mb = 128;
  bool sequential = true;
  // resilience knobs
  u32 reconnect_attempts = 0;  // 0 = legacy teardown on fault
  u64 keepalive_ms = 0;        // 0 = no keep-alive pings
  u64 kato_ms = 0;             // advertised KATO; 0 = none
  bool data_digest = false;    // CRC32C on inline data PDUs
  u64 cmd_timeout_ms = 0;      // per-command deadline; 0 = none
  u32 abort_budget = 0;        // aborts per stuck command; 0 = legacy teardown
  u32 cmd_retries = 3;         // retries per command, on the path carrying it
  // multipath knobs
  u32 paths = 1;               // associations in the path group
  std::string selector = "round-robin";  // round-robin|queue-depth|latency-ewma
  int kill_path = -1;          // force-fault this path mid-run; -1 = never
  u64 kill_after_ms = 500;     // when the kill fires, relative to run start
  // observability
  bool json = false;           // one RunStats JSON object on stdout
  std::string trace_out;       // Chrome trace JSON path; "" = no detail events
  std::string metrics_json;    // metrics registry JSON path; "" = none
  int stat_port = -1;          // live introspection endpoint; -1 off, 0 = ephemeral
  std::string flight_dir;      // arm the flight recorder into DIR; "" = off
  // tail-latency attribution (DESIGN.md §13)
  u64 slo_read_us = 0;         // read latency SLO; 0 = no read SLO
  u64 slo_write_us = 0;        // write latency SLO; 0 = no write SLO
  std::string anomaly_dir;     // arm retroactive anomaly capture into DIR
  u64 inject_delay_us = 0;     // one-shot stall on path 0 mid-run; 0 = off
  u64 inject_after_ms = 500;   // when the stall arms, relative to run start
  // continuous profiling (DESIGN.md §15)
  std::string profile_out;     // collapsed-stack output path; "" = sampler off
  u32 profile_hz = 997;        // sampling rate (prime: avoids phase lock)
};

bool parse_args(int argc, char** argv, Options& o) {
  // Accept both "--flag value" and "--flag=value" by splitting '=' forms up
  // front (telemetry flags are commonly passed the GNU way from CI).
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const char* {
      return i + 1 < args.size() ? args[++i].c_str() : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--host" && (v = next())) {
      o.host = v;
    } else if (arg == "--port" && (v = next())) {
      o.port = static_cast<u16>(std::atoi(v));
    } else if (arg == "--token" && (v = next())) {
      o.token = std::strtoull(v, nullptr, 10);
    } else if (arg == "--conn" && (v = next())) {
      o.conn = v;
    } else if (arg == "--io-size-kib" && (v = next())) {
      o.io_size_kib = std::strtoull(v, nullptr, 10);
    } else if (arg == "--qd" && (v = next())) {
      o.qd = static_cast<u32>(std::atoi(v));
    } else if (arg == "--rw" && (v = next())) {
      if (std::strcmp(v, "read") == 0) {
        o.read_fraction = 1.0;
      } else if (std::strcmp(v, "write") == 0) {
        o.read_fraction = 0.0;
      } else {
        o.read_fraction = std::atof(v);
      }
    } else if (arg == "--seconds" && (v = next())) {
      o.seconds = std::atof(v);
    } else if (arg == "--working-set-mb" && (v = next())) {
      o.working_set_mb = std::strtoull(v, nullptr, 10);
    } else if (arg == "--random") {
      o.sequential = false;
    } else if (arg == "--reconnect-attempts" && (v = next())) {
      o.reconnect_attempts = static_cast<u32>(std::atoi(v));
    } else if (arg == "--keepalive-ms" && (v = next())) {
      o.keepalive_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--kato-ms" && (v = next())) {
      o.kato_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--data-digest") {
      o.data_digest = true;
    } else if (arg == "--cmd-timeout-ms" && (v = next())) {
      o.cmd_timeout_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--abort-budget" && (v = next())) {
      o.abort_budget = static_cast<u32>(std::atoi(v));
    } else if (arg == "--cmd-retries" && (v = next())) {
      o.cmd_retries = static_cast<u32>(std::atoi(v));
    } else if (arg == "--paths" && (v = next())) {
      o.paths = std::max(1, std::atoi(v));
    } else if (arg == "--selector" && (v = next())) {
      o.selector = v;
    } else if (arg == "--kill-path" && (v = next())) {
      o.kill_path = std::atoi(v);
    } else if (arg == "--kill-after-ms" && (v = next())) {
      o.kill_after_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--json") {
      o.json = true;
    } else if (arg == "--trace-out" && (v = next())) {
      o.trace_out = v;
    } else if (arg == "--metrics-json" && (v = next())) {
      o.metrics_json = v;
    } else if (arg == "--stat-port" && (v = next())) {
      o.stat_port = std::atoi(v);
    } else if (arg == "--flight-dir" && (v = next())) {
      o.flight_dir = v;
    } else if (arg == "--slo-read-us" && (v = next())) {
      o.slo_read_us = std::strtoull(v, nullptr, 10);
    } else if (arg == "--slo-write-us" && (v = next())) {
      o.slo_write_us = std::strtoull(v, nullptr, 10);
    } else if (arg == "--anomaly-dir" && (v = next())) {
      o.anomaly_dir = v;
    } else if (arg == "--profile-out" && (v = next())) {
      o.profile_out = v;
    } else if (arg == "--profile-hz" && (v = next())) {
      o.profile_hz = static_cast<u32>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--inject-delay-us" && (v = next())) {
      o.inject_delay_us = std::strtoull(v, nullptr, 10);
    } else if (arg == "--inject-after-ms" && (v = next())) {
      o.inject_after_ms = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(
          stderr,
          "usage: oaf_perf [--host H] [--port N] [--token T] [--conn NAME]\n"
          "                [--io-size-kib S] [--qd D] [--rw read|write|FRAC]\n"
          "                [--seconds SEC] [--working-set-mb M] [--random]\n"
          "                [--reconnect-attempts N] [--keepalive-ms MS]\n"
          "                [--kato-ms MS] [--data-digest]\n"
          "                [--cmd-timeout-ms MS] [--abort-budget N]\n"
          "                [--cmd-retries N]  (retries per command: replays\n"
          "                 and in-place retries; a multipath group only\n"
          "                 moves commands off dead paths)\n"
          "                [--paths N] [--selector NAME]\n"
          "                [--kill-path I] [--kill-after-ms MS]\n"
          "                [--json] [--trace-out FILE] [--metrics-json FILE]\n"
          "                [--stat-port N] [--flight-dir DIR]\n"
          "                [--slo-read-us US] [--slo-write-us US]\n"
          "                [--anomaly-dir DIR]\n"
          "                [--inject-delay-us US] [--inject-after-ms MS]\n"
          "                [--profile-out FILE] [--profile-hz HZ]\n");
      return false;
    }
  }
  return true;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

/// The full RunStats (plus workload, data path, multipath, and resilience
/// context) as one JSON object — the machine-readable twin of the tables.
std::string stats_json(const Options& opts, const bench::WorkloadSpec& spec,
                       bool shm_active, bool zero_copy, const RunStats& stats,
                       const nvmf::ResilienceCounters& rc,
                       const nvmf::PathGroup& group) {
  JsonWriter w;
  w.begin_object();
  w.key("tool").value("oaf_perf");
  w.key("workload").begin_object();
  w.key("io_bytes").value(spec.io_bytes);
  w.key("queue_depth").value(spec.queue_depth);
  w.key("read_fraction").value(spec.read_fraction);
  w.key("sequential").value(spec.sequential);
  w.key("duration_ns").value(static_cast<i64>(spec.duration));
  w.key("working_set_bytes").value(spec.working_set_bytes);
  w.end_object();
  w.key("data_path").begin_object();
  w.key("connection").value(opts.conn);
  w.key("shm").value(shm_active);
  w.key("zero_copy").value(zero_copy);
  w.end_object();
  w.key("results").begin_object();
  w.key("ios_completed").value(stats.ios_completed);
  w.key("failures").value(stats.failures);
  w.key("bytes_moved").value(stats.bytes_moved);
  w.key("elapsed_ns").value(static_cast<i64>(stats.elapsed));
  w.key("bandwidth_mib_s").value(stats.bandwidth_mib_s());
  w.key("iops").value(stats.iops());
  w.key("latency_ns").begin_object();
  w.key("count").value(stats.latency.count());
  w.key("min").value(stats.latency.min());
  w.key("mean").value(stats.latency.mean());
  w.key("max").value(stats.latency.max());
  w.key("p50").value(stats.latency.p50());
  w.key("p99").value(stats.latency.p99());
  w.key("p999").value(stats.latency.p999());
  w.key("p9999").value(stats.latency.p9999());
  w.end_object();
  const LatencyParts mean = stats.breakdown.mean();
  w.key("breakdown_ns").begin_object();
  w.key("io").value(static_cast<i64>(mean.io));
  w.key("comm").value(static_cast<i64>(mean.comm));
  w.key("other").value(static_cast<i64>(mean.other));
  w.end_object();
  // Per-stage attribution summary (queue/encode/grant/xfer/device/target/
  // complete/detour) — the finer-grained twin of breakdown_ns.
  w.key("stages").raw(telemetry::attribution().summary_json());
  w.key("slo").begin_object();
  w.key("read_us").value(opts.slo_read_us);
  w.key("write_us").value(opts.slo_write_us);
  w.key("anomaly_captures").value(telemetry::anomaly().captures());
  w.end_object();
  w.end_object();
  w.key("resilience").begin_object();
  w.key("reconnects").value(rc.reconnects);
  w.key("reconnect_failures").value(rc.reconnect_failures);
  w.key("commands_retried").value(rc.commands_retried);
  w.key("keepalive_sent").value(rc.keepalive_sent);
  w.key("keepalive_misses").value(rc.keepalive_misses);
  w.key("shm_demotions").value(rc.shm_demotions);
  w.key("digest_errors").value(rc.digest_errors);
  w.key("deadlines_expired").value(rc.deadlines_expired);
  w.key("aborts_sent").value(rc.aborts_sent);
  w.key("aborts_succeeded").value(rc.aborts_succeeded);
  w.key("aborts_failed").value(rc.aborts_failed);
  w.key("commands_aborted").value(rc.commands_aborted);
  w.key("peer_misbehavior").value(rc.peer_misbehavior);
  w.key("queue_full_received").value(rc.queue_full_received);
  w.key("queue_full_retries").value(rc.queue_full_retries);
  w.key("admission_rejects").value(rc.admission_rejects);
  w.end_object();
  w.key("multipath").begin_object();
  w.key("paths").value(static_cast<u64>(group.path_count()));
  w.key("selector").value(group.selector_name());
  w.key("failovers").value(group.failovers());
  w.key("redrives").value(group.redrives());
  w.key("parked_total").value(group.parked_total());
  w.key("duplicates_suppressed").value(group.duplicates_suppressed());
  w.key("per_path").begin_array();
  for (size_t i = 0; i < group.path_count(); ++i) {
    const nvmf::NvmfInitiator& p = group.path(i);
    w.begin_object();
    w.key("name").value(p.connection_name());
    w.key("shm").value(p.shm_active());
    w.key("ana").value(pdu::to_string(p.ana_state()));
    w.key("connected").value(p.connected());
    w.key("dead").value(p.dead());
    w.key("ios_completed").value(p.ios_completed());
    w.key("reconnects").value(p.resilience().reconnects);
    w.key("latency_ewma_ns").value(static_cast<i64>(p.latency_ewma_ns()));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  std::string out = w.take();
  out += '\n';
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;

  if (!opts.trace_out.empty()) telemetry::tracer().set_enabled(true);
  if (!opts.flight_dir.empty()) {
    telemetry::flight().install({opts.flight_dir, /*fatal_signals=*/true});
  }
  // Attribution is always on in this tool — the per-stage breakdown feeds
  // the --json "stages" section and the heat/top stat verbs either way.
  // SLOs default to 0 (no watchdog) until the flags arm them.
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

  // Cycle accounting is always on in this tool: the per-scope cost is a TSC
  // read + relaxed adds, and it is what makes `oaf_stat prof` report live
  // cycles/IO. The sampling profiler is opt-in via --profile-out.
  telemetry::prof::cycle_ledger().set_enabled(true);

  sim::RealExecutor exec;
  net::InlineCopier copier;
  af::ShmBroker broker(opts.token, af::ShmBroker::Backing::kPosixShm);

  if (!opts.profile_out.empty()) {
    auto& prof = telemetry::prof::profiler();
    if (auto st = prof.register_this_thread("main"); !st) {
      std::fprintf(stderr, "oaf_perf: profiler: %s\n",
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
      std::fprintf(stderr, "oaf_perf: profiler: %s\n",
                   st.to_string().c_str());
    } else {
      std::fprintf(stderr, "oaf_perf: sampling at %u Hz -> %s\n",
                   opts.profile_hz, opts.profile_out.c_str());
    }
  }

  auto channel_res = net::tcp_connect(opts.host, opts.port, exec);
  if (!channel_res) {
    std::fprintf(stderr, "connect: %s\n", channel_res.status().to_string().c_str());
    return 1;
  }
  auto first_channel = std::move(channel_res).take();

  af::AfConfig cfg = af::AfConfig::oaf();
  cfg.shm_slot_bytes = std::max<u64>(opts.io_size_kib * kKiB, 4 * kKiB);
  cfg.shm_slots = std::max<u32>(opts.qd, 1);
  cfg.data_digest = opts.data_digest;

  nvmf::InitiatorOptions iopts;
  iopts.af = cfg;
  iopts.queue_depth = opts.qd;
  iopts.connection_name = opts.conn;
  iopts.recovery.max_attempts = opts.reconnect_attempts;
  iopts.recovery.keepalive_interval_ns =
      static_cast<DurNs>(opts.keepalive_ms) * 1'000'000;
  iopts.recovery.kato_ns = opts.kato_ms * 1'000'000;
  iopts.command_timeout_ns = static_cast<DurNs>(opts.cmd_timeout_ms) * 1'000'000;
  iopts.recovery.abort_budget = opts.abort_budget;
  iopts.recovery.max_command_retries = opts.cmd_retries;

  // All paths live in one PathGroup; --paths 1 (the default) degenerates to
  // the single-association behaviour this tool always had. Path 0 carries
  // the adaptive-fabric config (shm eligible); extra paths are stock TCP
  // spares, exactly the paper's one-fast-lane-plus-spares topology.
  auto selector = nvmf::make_selector(opts.selector);
  if (selector == nullptr) {
    std::fprintf(stderr, "oaf_perf: unknown --selector %s\n",
                 opts.selector.c_str());
    return 2;
  }
  nvmf::PathGroupOptions gopts;
  gopts.name = opts.conn;
  nvmf::PathGroup group(exec, std::move(gopts), std::move(selector));
  // With --inject-delay-us, path 0's channel is wrapped in a FaultChannel so
  // a one-shot stall can be armed mid-run — the deterministic tail-latency
  // trigger for the SLO watchdog / anomaly-capture demo. The pointer tracks
  // the latest wrapper (reconnects re-wrap); both the factory and the armed
  // stall run on the executor thread, so no synchronisation is needed.
  net::FaultChannel* injector = nullptr;
  for (u32 i = 0; i < opts.paths; ++i) {
    nvmf::InitiatorOptions piopts = iopts;
    if (i > 0) {
      piopts.connection_name = opts.conn + ".p" + std::to_string(i);
      piopts.af = af::AfConfig::stock_tcp();
      piopts.af.data_digest = opts.data_digest;
    }
    // The factory hands out the pre-dialed channel on path 0's first connect
    // and re-dials the target for everything else (spare paths, reconnects).
    group.add_path(std::make_unique<nvmf::NvmfInitiator>(
        exec,
        [&, i]() -> std::unique_ptr<net::MsgChannel> {
          std::unique_ptr<net::MsgChannel> ch;
          if (i == 0 && first_channel) {
            ch = std::move(first_channel);
          } else {
            auto res = net::tcp_connect(opts.host, opts.port, exec);
            if (!res) return nullptr;
            ch = std::move(res).take();
          }
          if (i == 0 && opts.inject_delay_us > 0) {
            auto fc = std::make_unique<net::FaultChannel>(std::move(ch));
            injector = fc.get();
            return fc;
          }
          return ch;
        },
        copier, broker, piopts));
  }
  nvmf::NvmfInitiator& client = group.path(0);

  std::atomic<bool> connected{false};
  exec.post([&] {
    group.connect([&](Status st) {
      if (!st) std::fprintf(stderr, "handshake: %s\n", st.to_string().c_str());
      connected = true;
    });
  });
  while (!connected.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The group is usable after the first handshake; give the spare paths a
  // bounded moment to join so the run starts with the full fan-out.
  for (int spin = 0; spin < 2000; ++spin) {
    std::atomic<int> up{-1};
    exec.post([&] {
      int n = 0;
      for (size_t i = 0; i < group.path_count(); ++i) {
        if (group.path(i).connected()) n++;
      }
      up = n;
    });
    while (up.load() < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (up.load() == static_cast<int>(opts.paths)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // In --json mode stdout carries exactly one JSON object; banners move to
  // stderr so `oaf_perf --json | jq` works.
  std::fprintf(opts.json ? stderr : stdout,
               "oaf_perf: connected to %s:%u — data path: %s%s, %u path(s)\n",
               opts.host.c_str(), opts.port,
               client.shm_active() ? "shared memory" : "TCP",
               group.supports_zero_copy() ? " (zero-copy)" : "", opts.paths);

  // Live introspection endpoint (opt-in). Providers that touch client state
  // post onto the executor thread and wait — the stat server thread itself
  // must never walk reactor-owned structures.
  telemetry::StatServer stat;
  if (opts.stat_port >= 0) {
    auto on_executor = [&exec](std::function<std::string()> fn) {
      return [&exec, fn]() -> std::string {
        std::string out;
        std::atomic<bool> ready{false};
        exec.post([&] {
          out = fn();
          ready = true;
        });
        while (!ready.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return out;
      };
    };
    stat.handle("metrics",
                [] { return telemetry::metrics().to_prometheus(); });
    stat.handle("trace", [] { return telemetry::tracer().to_chrome_json(); });
    // prof_json reads only atomics/registry handles — safe off-executor.
    stat.handle("prof", [] { return telemetry::prof::prof_json(); });
    stat.handle("heat", on_executor([&exec]() -> std::string {
                  return telemetry::attribution().heat_json(exec.now());
                }));
    stat.handle("top", on_executor([&exec]() -> std::string {
                  return telemetry::attribution().top_json(exec.now());
                }));
    stat.handle("conns", on_executor([&group]() -> std::string {
                  JsonWriter w;
                  w.begin_array();
                  for (size_t i = 0; i < group.path_count(); ++i) {
                    const nvmf::NvmfInitiator& p = group.path(i);
                    w.begin_object();
                    w.key("name").value(p.connection_name());
                    w.key("shm_active").value(p.shm_active());
                    w.key("zero_copy").value(p.supports_zero_copy());
                    w.key("trace_ctx").value(p.trace_ctx_active());
                    w.key("clock_offset_ns")
                        .value(p.clock_sync().offset_ns());
                    w.key("clock_rtt_ns").value(p.clock_sync().best_rtt_ns());
                    const nvmf::ResilienceCounters& rc = p.resilience();
                    w.key("reconnects").value(rc.reconnects);
                    w.key("commands_retried").value(rc.commands_retried);
                    w.key("keepalive_sent").value(rc.keepalive_sent);
                    w.key("shm_demotions").value(rc.shm_demotions);
                    w.key("aborts_sent").value(rc.aborts_sent);
                    w.key("ana").value(pdu::to_string(p.ana_state()));
                    w.key("dead").value(p.dead());
                    w.key("group_inflight")
                        .value(static_cast<u64>(group.path_inflight(i)));
                    w.end_object();
                  }
                  w.end_array();
                  return w.take();
                }));
    if (auto st = stat.start(static_cast<u16>(opts.stat_port)); !st) {
      std::fprintf(stderr, "oaf_perf: stat server: %s\n",
                   st.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "oaf_perf: stat server on 127.0.0.1:%u\n",
                 stat.port());
  }

  bench::WorkloadSpec spec;
  spec.io_bytes = opts.io_size_kib * kKiB;
  spec.queue_depth = opts.qd;
  spec.read_fraction = opts.read_fraction;
  spec.sequential = opts.sequential;
  spec.duration = static_cast<DurNs>(opts.seconds * 1e9);
  spec.warmup = spec.duration / 10;
  spec.working_set_bytes = opts.working_set_mb * kMiB;

  bench::PerfDriver driver(exec, group, spec);
  std::atomic<bool> done{false};
  RunStats stats;
  exec.post([&] {
    // Fault injection for failover demos: fault the chosen path mid-run and
    // let the group re-drive its in-flight I/Os on the survivors. With
    // --reconnect-attempts 0 the path dies for good; with a budget it heals
    // and rejoins the rotation.
    if (opts.kill_path >= 0 &&
        static_cast<u32>(opts.kill_path) < group.path_count()) {
      exec.schedule_after(
          static_cast<DurNs>(opts.kill_after_ms) * 1'000'000, [&] {
            std::fprintf(stderr, "oaf_perf: killing path %d\n", opts.kill_path);
            group.path(static_cast<size_t>(opts.kill_path))
                .force_recover("oaf_perf --kill-path");
          });
    }
    // Deterministic tail event: one PDU on path 0 limps by the injected
    // stall; with an SLO armed, exactly that I/O breaches and (when
    // --anomaly-dir is set) promotes one retroactive capture.
    if (opts.inject_delay_us > 0) {
      exec.schedule_after(
          static_cast<DurNs>(opts.inject_after_ms) * 1'000'000, [&] {
            if (injector == nullptr) return;
            std::fprintf(stderr, "oaf_perf: injecting %llu us stall on path 0\n",
                         static_cast<unsigned long long>(opts.inject_delay_us));
            injector->inject_delay(static_cast<DurNs>(opts.inject_delay_us) *
                                   1'000);
          });
    }
    driver.run([&](RunStats s) {
      stats = std::move(s);
      done = true;
    });
  });
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  if (!opts.profile_out.empty()) {
    auto& prof = telemetry::prof::profiler();
    prof.stop();
    if (prof.write_collapsed(opts.profile_out)) {
      std::fprintf(
          stderr,
          "oaf_perf: profile written to %s (%llu samples, %llu dropped)\n",
          opts.profile_out.c_str(),
          static_cast<unsigned long long>(prof.samples_total()),
          static_cast<unsigned long long>(prof.dropped_total()));
    } else {
      std::fprintf(stderr, "oaf_perf: failed to write profile to %s\n",
                   opts.profile_out.c_str());
    }
  }

  if (!opts.trace_out.empty()) {
    // Embed the NTP-style clock estimate so oaf_trace_merge can re-home the
    // target's spans onto this process's timeline without extra flags.
    const telemetry::ClockSyncEstimator& cs = client.clock_sync();
    const std::vector<std::pair<std::string, i64>> clock_meta = {
        {"clock_offset_ns", cs.offset_ns()},
        {"clock_rtt_ns", cs.best_rtt_ns()},
        {"clock_samples", static_cast<i64>(cs.samples())},
        {"trace_ctx", client.trace_ctx_active() ? 1 : 0},
    };
    if (telemetry::tracer().write_chrome_json(opts.trace_out, clock_meta)) {
      std::fprintf(stderr, "oaf_perf: trace written to %s (%llu events, %llu dropped)\n",
                   opts.trace_out.c_str(),
                   static_cast<unsigned long long>(telemetry::tracer().size()),
                   static_cast<unsigned long long>(telemetry::tracer().dropped()));
    } else {
      std::fprintf(stderr, "oaf_perf: failed to write trace to %s\n",
                   opts.trace_out.c_str());
    }
  }
  if (!opts.metrics_json.empty()) {
    if (!write_file(opts.metrics_json, telemetry::metrics().to_json())) {
      std::fprintf(stderr, "oaf_perf: failed to write metrics to %s\n",
                   opts.metrics_json.c_str());
    }
  }

  if (opts.json) {
    const std::string body =
        stats_json(opts, spec, client.shm_active(), group.supports_zero_copy(),
                   stats, client.resilience(), group);
    std::fwrite(body.data(), 1, body.size(), stdout);
    return 0;
  }

  Table t("oaf_perf results");
  t.header({"metric", "value"});
  t.row({"bandwidth (MiB/s)", Table::num(stats.bandwidth_mib_s(), 1)});
  t.row({"IOPS", Table::num(stats.iops(), 0)});
  t.row({"I/Os completed", std::to_string(stats.ios_completed)});
  t.row({"I/O failures", std::to_string(stats.failures)});
  t.row({"avg latency (us)", Table::num(stats.avg_latency_us(), 1)});
  t.row({"p50 (us)", Table::num(ns_to_us(stats.latency.p50()), 1)});
  t.row({"p99 (us)", Table::num(ns_to_us(stats.latency.p99()), 1)});
  t.row({"p99.99 (us)", Table::num(ns_to_us(stats.latency.p9999()), 1)});
  const LatencyParts mean = stats.breakdown.mean();
  t.row({"I/O time (us)", Table::num(ns_to_us(mean.io), 1)});
  t.row({"comm time (us)", Table::num(ns_to_us(mean.comm), 1)});
  t.row({"other (us)", Table::num(ns_to_us(mean.other), 1)});
  t.print();

  const nvmf::ResilienceCounters& rc = client.resilience();
  Table r("resilience");
  r.header({"counter", "value"});
  r.row({"reconnects", std::to_string(rc.reconnects)});
  r.row({"reconnect failures", std::to_string(rc.reconnect_failures)});
  r.row({"commands retried", std::to_string(rc.commands_retried)});
  r.row({"keepalives sent", std::to_string(rc.keepalive_sent)});
  r.row({"keepalive misses", std::to_string(rc.keepalive_misses)});
  r.row({"shm demotions", std::to_string(rc.shm_demotions)});
  r.row({"digest errors", std::to_string(rc.digest_errors)});
  r.row({"deadlines expired", std::to_string(rc.deadlines_expired)});
  r.row({"aborts sent", std::to_string(rc.aborts_sent)});
  r.row({"aborts succeeded", std::to_string(rc.aborts_succeeded)});
  r.row({"aborts failed", std::to_string(rc.aborts_failed)});
  r.row({"commands aborted", std::to_string(rc.commands_aborted)});
  r.row({"peer misbehavior", std::to_string(rc.peer_misbehavior)});
  r.row({"queue-full received", std::to_string(rc.queue_full_received)});
  r.row({"queue-full retries", std::to_string(rc.queue_full_retries)});
  r.row({"admission rejects", std::to_string(rc.admission_rejects)});
  r.print();

  if (group.path_count() > 1) {
    Table m("multipath");
    m.header({"path", "state", "ana", "I/Os", "reconnects", "ewma (us)"});
    for (size_t i = 0; i < group.path_count(); ++i) {
      const nvmf::NvmfInitiator& p = group.path(i);
      m.row({p.connection_name(),
             p.dead()        ? "dead"
             : p.connected() ? (p.shm_active() ? "shm" : "tcp")
                             : "down",
             pdu::to_string(p.ana_state()), std::to_string(p.ios_completed()),
             std::to_string(p.resilience().reconnects),
             Table::num(ns_to_us(p.latency_ewma_ns()), 1)});
    }
    m.row({"group: " + std::string(group.selector_name()),
           "failovers " + std::to_string(group.failovers()),
           "redrives " + std::to_string(group.redrives()),
           "parked " + std::to_string(group.parked_total()),
           "dups " + std::to_string(group.duplicates_suppressed()), ""});
    m.print();
  }

  // The group owns every path's control channel; its destructor hangs up.
  return 0;
}
