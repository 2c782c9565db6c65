// Bench failover: the multipath regression anchor (DESIGN.md §11).
//
// A deterministic virtual-time session — one shm path plus two TCP spares
// into one target service over pipe channels — measured twice per selector
// policy: a steady-state run, and a run where the shm path is killed
// mid-burst and the group re-drives its in-flight I/Os on the survivors.
// The interesting numbers are the p99 across the failover (how much tail
// the detour costs) and the failure count, which must be zero: losing any
// one of three paths may slow the workload, never break it. Its --json
// output is committed as bench/BENCH_failover.json and gated by
// tools/bench_compare in CI. Refresh the baseline by re-running:
//
//   build/bench/bench_failover --json bench/BENCH_failover.json
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "net/fault_channel.h"
#include "net/pipe_channel.h"
#include "nvmf/path_group.h"
#include "nvmf/path_selector.h"
#include "nvmf/target_service.h"
#include "sim/scheduler.h"
#include "ssd/real_device.h"

using namespace oaf;
using namespace oaf::bench;

namespace {

constexpr u32 kPaths = 3;
constexpr DurNs kDuration = 100 * 1000 * 1000;  // 100 ms virtual
// The kill must land *inside* an I/O burst to displace in-flight commands,
// and in the deterministic virtual-time plane a whole I/O completes within
// one scheduler cascade — a wall-clock timer would always fall between
// bursts. net::FaultChannel::kill_at(n) cuts the cable on the nth PDU
// instead: mid-write, mid-burst, at the same point in the stream every run.
constexpr u64 kKillAtPdu = 5000;

struct FailoverRun {
  RunStats stats;
  u64 failovers = 0;
  u64 redrives = 0;
  u64 duplicates = 0;
};

/// One virtual-time session: 3-path group against a single target service,
/// optionally killing the shm path halfway through the measured window.
FailoverRun run_session(const std::string& selector, bool kill) {
  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker(kPaths);
  ssd::RealDevice device(sched, 512, 1 << 19);
  ssd::Subsystem subsystem("nqn.bench.failover");
  (void)subsystem.add_namespace(1, &device);
  nvmf::TargetServiceOptions sopts;
  sopts.af = af::AfConfig::oaf();
  nvmf::NvmfTargetService service(sched, copier, broker, subsystem, sopts);

  nvmf::PathGroupOptions gopts;
  gopts.name = "bench";
  nvmf::PathGroup group(sched, std::move(gopts),
                        nvmf::make_selector(selector));
  for (u32 i = 0; i < kPaths; ++i) {
    nvmf::InitiatorOptions iopts;
    iopts.af = i == 0 ? af::AfConfig::oaf() : af::AfConfig::stock_tcp();
    iopts.queue_depth = 32;
    iopts.connection_name = "bench.p" + std::to_string(i);
    // Legacy teardown on fault: the killed path dies for good and the run
    // exercises the group's re-drive, not the path's own reconnect. The
    // command deadline is what turns the dead path's orphans into
    // re-drivable failures.
    iopts.recovery.max_attempts = 0;
    iopts.command_timeout_ns = 5'000'000;
    group.add_path(std::make_unique<nvmf::NvmfInitiator>(
        sched,
        [&sched, &service, i, kill]() -> std::unique_ptr<net::MsgChannel> {
          auto [c, t] = net::make_pipe_channel_pair(sched, sched);
          service.accept(std::move(t), "bench.p" + std::to_string(i));
          auto faulted = std::make_unique<net::FaultChannel>(std::move(c));
          if (kill && i == 0) faulted->kill_at(kKillAtPdu);
          return faulted;
        },
        copier, broker, iopts));
  }
  group.connect([](Status) {});
  sched.run();

  WorkloadSpec spec;
  spec.io_bytes = 64 * kKiB;
  spec.queue_depth = 32;
  spec.read_fraction = 0.5;
  spec.sequential = true;
  spec.duration = kDuration;
  spec.warmup = kDuration / 10;
  spec.working_set_bytes = 64 * kMiB;

  PerfDriver driver(sched, group, spec);
  FailoverRun out;
  bool done = false;
  driver.run([&](RunStats s) {
    out.stats = std::move(s);
    done = true;
  });
  sched.run();
  if (!done) std::abort();  // the virtual run must always drain
  out.failovers = group.failovers();
  out.redrives = group.redrives();
  out.duplicates = group.duplicates_suppressed();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("bench_failover");
  const std::vector<std::string> selectors = {"round-robin", "queue-depth",
                                              "latency-ewma"};

  Table t("Failover: 3 paths (1 shm + 2 TCP), seq 64 KiB 50:50, QD 32, kill shm path mid-burst");
  t.header({"Selector", "steady p99 (us)", "failover p99 (us)", "MiB/s",
            "failures", "failovers", "redrives", "dup-suppressed"});
  for (const auto& sel : selectors) {
    const FailoverRun steady = run_session(sel, /*kill=*/false);
    const FailoverRun failover = run_session(sel, /*kill=*/true);
    t.row({sel,
           usec(static_cast<double>(steady.stats.latency.p99()) / 1000.0),
           usec(static_cast<double>(failover.stats.latency.p99()) / 1000.0),
           mib(failover.stats.bandwidth_mib_s()),
           std::to_string(steady.stats.failures + failover.stats.failures),
           std::to_string(failover.failovers),
           std::to_string(failover.redrives),
           std::to_string(failover.duplicates)});
  }
  t.print();
  report.add_table(t);
  return finish_bench(report, argc, argv);
}
