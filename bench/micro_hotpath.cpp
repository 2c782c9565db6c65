// Micro hot-path cost accounting: cycles/IO and allocs/IO per transport.
//
// Runs the bench_smoke workload shape through the three transport families
// and reads the profiling plane (DESIGN.md §15) after each run:
//
//   * allocs/IO, frees/IO, alloc bytes/IO — from the allocation ledger.
//     The run is a fixed-seed virtual-time simulation, so the allocation
//     SEQUENCE is deterministic: the same binary must produce the same
//     counts every run. These cells are pure numbers and therefore land in
//     the gated "metrics" map; CI compares them against the committed
//     bench/BENCH_hotpath.json, so a change that adds an allocation to the
//     per-I/O path fails the profiling job instead of landing unnoticed.
//     Counts are zero unless the interposer is linked (-DOAF_PROF=ON) — the
//     committed baseline comes from an OAF_PROF build:
//
//       build/bench/micro_hotpath --json bench/BENCH_hotpath.json
//
//   * cycles/IO by cost center — from the cycle ledger. TSC readings are
//     wall-clock dependent (CPU model, frequency, noise), so these cells
//     carry a " cyc" suffix: informational in the table, never gated.
#include <string>
#include <vector>

#include "bench_report.h"
#include "bench_util.h"
#include "telemetry/prof/alloc_ledger.h"
#include "telemetry/prof/cost_center.h"

using namespace oaf;
using namespace oaf::bench;

namespace {

std::string per_io(u64 total, u64 ios, int prec = 2) {
  if (ios == 0) return Table::num(0.0, prec);
  return Table::num(static_cast<double>(total) / static_cast<double>(ios),
                    prec);
}

std::string cyc(u64 total, u64 ios) {
  if (ios == 0) return "0 cyc";
  return Table::num(static_cast<double>(total) / static_cast<double>(ios), 0) +
         " cyc";
}

}  // namespace

int main(int argc, char** argv) {
  namespace prof = telemetry::prof;
  BenchReport report("micro_hotpath");
  struct Row {
    const char* name;
    Transport transport;
  };
  const std::vector<Row> rows = {
      {"NVMe/TCP-25G", Transport::kTcpStock},
      {"AF-TCP-25G", Transport::kAfTcpOnly},
      {"NVMe-oAF", Transport::kAfShm},
  };

  WorkloadSpec spec = paper_defaults().with_io(128 * kKiB).with_mix(0.7, true);
  spec.duration = 100 * 1000 * 1000;  // 100 ms virtual; wall-fast
  spec.warmup = 10 * 1000 * 1000;

  if (!prof::interposer_active()) {
    std::fprintf(stderr,
                 "micro_hotpath: allocation interposer not linked "
                 "(build with -DOAF_PROF=ON); alloc columns will be 0\n");
  }
  prof::cycle_ledger().set_enabled(true);

  Table alloc_t("Hot-path allocations: seq 128 KiB 70:30, 1 stream, QD 128");
  alloc_t.header({"Transport", "allocs/IO", "frees/IO", "alloc B/IO", "IOs"});
  Table cyc_t("Hot-path cycles (informational; wall-clock dependent)");
  cyc_t.header({"Transport", "cycles/IO", "submit", "encode", "xfer",
                "target", "complete"});

  for (const auto& row : rows) {
    // Warmup run: first-touch allocations (lazy pools, registry handles,
    // hash-map rehashes) belong to process setup, not the steady-state
    // per-I/O cost this bench gates.
    (void)run_streams(row.transport, 1, spec, opts_with_tcp(tcp_25g()));

    prof::alloc_ledger().reset_for_test();
    prof::cycle_ledger().reset_for_test();
    prof::cycle_ledger().set_enabled(true);
    const auto stats = run_streams(row.transport, 1, spec,
                                   opts_with_tcp(tcp_25g()));

    u64 ios = 0;
    for (const auto& s : stats) ios += s.ios_completed;
    const auto allocs = prof::alloc_ledger().snapshot();
    const u64 total_allocs = allocs.total.allocs;
    const u64 total_frees = allocs.total.frees;
    const u64 total_bytes = allocs.total.bytes;
    const auto cycles = prof::cycle_ledger().snapshot();
    auto center_cycles = [&](telemetry::Stage c) {
      return cycles.cycles[static_cast<u32>(c)];
    };
    u64 hot = 0;
    for (u32 i = 0; i < telemetry::kCostCenterCount; ++i) {
      if (i == static_cast<u32>(telemetry::Stage::kReactor) ||
          i == static_cast<u32>(telemetry::Stage::kIdle)) {
        continue;
      }
      hot += cycles.cycles[i];
    }

    alloc_t.row({row.name, per_io(total_allocs, ios), per_io(total_frees, ios),
                 per_io(total_bytes, ios, 1), std::to_string(ios)});
    cyc_t.row({row.name, cyc(hot, ios),
               cyc(center_cycles(telemetry::Stage::kSubmit), ios),
               cyc(center_cycles(telemetry::Stage::kEncode), ios),
               cyc(center_cycles(telemetry::Stage::kXfer), ios),
               cyc(center_cycles(telemetry::Stage::kTarget), ios),
               cyc(center_cycles(telemetry::Stage::kComplete), ios)});
  }

  alloc_t.print();
  cyc_t.print();
  report.add_table(alloc_t);
  report.add_table(cyc_t);
  report.add_metric("interposer_active",
                    prof::interposer_active() ? 1.0 : 0.0);
  return finish_bench(report, argc, argv);
}
