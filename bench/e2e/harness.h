// oaf_e2e harness: one process stands up an NVMe-oAF target and client
// wired as oaf_target and oaf_perf wire them — two RealExecutors, one
// loopback TCP connection, one POSIX-shm ShmBroker per side, a one-path
// PathGroup — and drives it with a closed-loop, content-checking load
// generator. See README.md for the metric and workload definitions.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace oaf::e2e {

struct Workload {
  std::string name;
  bool shm = true;  ///< AfConfig::oaf() over shm; false = AfConfig::stock_tcp()
  u64 io_bytes = 4096;
  u32 qd = 16;
  double read_fraction = 1.0;
  bool sequential = false;
  u64 working_set_bytes = 0;
};

/// The benchmark's workloads; BENCHMARK.json names the same four.
std::span<const Workload> workloads();
const Workload* find_workload(std::string_view name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  Workload workload;
  u64 seed = 1;
  /// Measured window. A traced run splits it evenly between an untraced
  /// phase (the trace.overhead_frac baseline) and the traced phase.
  double seconds = 20;
  bool traced = false;
  std::string trace_out;  ///< Chrome trace of the traced phase; "" = none
  /// Count mode (traced only, for exact per-I/O counts): no warm-up, and
  /// the window spans exactly this many I/Os from first issue to drain.
  /// 0 = timed window.
  u64 fixed_ios = 0;
};

struct RunResult {
  bool correct = false;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  /// PDUs each side's channel itself reports sending during the traced
  /// window ([0] client, [1] target) — the decorators' counts must match.
  u64 channel_pdus[2] = {0, 0};
  /// Commands the target service reports serving in the traced window.
  u64 target_commands = 0;

  [[nodiscard]] const Metric* find(std::string_view name) const;
};

RunResult run(const RunOptions& opts);

}  // namespace oaf::e2e
