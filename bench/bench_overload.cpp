// Bench overload: the backpressure regression anchor (DESIGN.md §12).
//
// A deterministic virtual-time session — one initiator driving a target
// whose admitted queue depth and staging budget are far below the offered
// load — measured against an uncapped baseline. The interesting numbers are
// what graceful degradation costs (p99 and bandwidth under steady
// kQueueFull churn) and the failure count, which must be zero: overload
// slows a client down, it never surfaces as an error. Both shed policies
// run so a regression in either victim-selection path shows up. Its --json
// output is committed as bench/BENCH_overload.json and gated by
// tools/bench_compare in CI. Refresh the baseline by re-running:
//
//   build/bench/bench_overload --json bench/BENCH_overload.json
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "net/pipe_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/target_service.h"
#include "sim/scheduler.h"
#include "ssd/sim_device.h"

using namespace oaf;
using namespace oaf::bench;

namespace {

constexpr DurNs kDuration = 50 * 1000 * 1000;  // 50 ms virtual

struct OverloadRun {
  RunStats stats;
  u64 queue_full_rejects = 0;
  u64 queue_full_retries = 0;
  u64 congestion_defers = 0;
  u64 staging_peak = 0;
  u64 staging_capacity = 0;
};

/// One virtual-time session: a QD-32 write storm against a target admitting
/// only 8 commands / 64 KiB of staging (or uncapped for the baseline row).
OverloadRun run_session(bool capped, const std::string& shed_policy) {
  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker(1);
  // A latency-modeling device so commands genuinely accumulate in flight:
  // with the instant functional-plane device every write completes inside
  // one scheduler cascade and no budget ever fills.
  ssd::SimDeviceParams dparams;
  dparams.num_blocks = 1 << 19;
  ssd::SimDevice device(sched, dparams);
  ssd::Subsystem subsystem("nqn.bench.overload");
  (void)subsystem.add_namespace(1, &device);

  nvmf::TargetServiceOptions sopts;
  sopts.af = af::AfConfig::oaf();
  if (capped) {
    sopts.max_inflight_cmds = 8;
    sopts.global_staging_bytes = 64 * kKiB;
    sopts.shed_watermark = 0.9;
    sopts.shed_policy = nvmf::parse_shed_policy(shed_policy);
  }
  nvmf::NvmfTargetService service(sched, copier, broker, subsystem, sopts);

  nvmf::InitiatorOptions iopts;
  // Stock TCP keeps the driver on the staged-write path, where kQueueFull
  // is absorbed by the in-place retry ladder; zero-copy producers instead
  // throttle on congested() and see the reject (bench_smoke covers them).
  iopts.af = af::AfConfig::stock_tcp();
  iopts.queue_depth = 32;
  iopts.connection_name = "bench.overload";
  iopts.recovery.max_attempts = 5;
  iopts.recovery.max_command_retries = 128;
  nvmf::NvmfInitiator initiator(
      sched,
      [&sched, &service]() -> std::unique_ptr<net::MsgChannel> {
        auto [c, t] = net::make_pipe_channel_pair(sched, sched);
        service.accept(std::move(t), "bench.overload");
        return std::move(c);
      },
      copier, broker, iopts);
  initiator.connect([](Status) {});
  sched.run();

  WorkloadSpec spec;
  spec.io_bytes = 4 * kKiB;
  spec.queue_depth = 32;
  spec.read_fraction = 0.0;  // writes stage bytes: the budget-bound path
  spec.sequential = true;
  spec.duration = kDuration;
  spec.warmup = kDuration / 10;
  spec.working_set_bytes = 64 * kMiB;

  PerfDriver driver(sched, initiator, spec);
  OverloadRun out;
  bool done = false;
  // The overload tick (shed ladder) runs every 1 ms of virtual time, as
  // oaf_target's serve loop would run it.
  std::function<void()> tick = [&] {
    service.overload_tick();
    if (!done) sched.schedule_after(1'000'000, tick);
  };
  sched.schedule_after(1'000'000, tick);
  driver.run([&](RunStats s) {
    out.stats = std::move(s);
    done = true;
  });
  sched.run();
  if (!done) std::abort();  // the virtual run must always drain
  out.queue_full_rejects = service.queue_full_rejects();
  out.queue_full_retries = initiator.resilience().queue_full_retries;
  out.congestion_defers = driver.congestion_defers();
  out.staging_peak = service.global_staging().peak();
  out.staging_capacity = service.global_staging().capacity();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("bench_overload");

  Table t("Overload: seq 4 KiB writes, QD 32 vs 8 admitted / 64 KiB staging");
  t.header({"Config", "p99 (us)", "MiB/s", "failures", "qfull-rejects",
            "qfull-retries", "defers", "staging peak (KiB)"});
  struct Row {
    const char* label;
    bool capped;
    const char* policy;
  };
  const std::vector<Row> rows = {{"uncapped", false, "oldest"},
                                 {"capped oldest-first", true, "oldest"},
                                 {"capped fair", true, "fair"}};
  for (const Row& row : rows) {
    const OverloadRun r = run_session(row.capped, row.policy);
    t.row({row.label,
           usec(static_cast<double>(r.stats.latency.p99()) / 1000.0),
           mib(r.stats.bandwidth_mib_s()),
           std::to_string(r.stats.failures),
           std::to_string(r.queue_full_rejects),
           std::to_string(r.queue_full_retries),
           std::to_string(r.congestion_defers),
           std::to_string(r.staging_peak / kKiB)});
  }
  t.print();
  report.add_table(t);
  return finish_bench(report, argc, argv);
}
