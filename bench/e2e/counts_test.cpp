// Exact paper §4.4 counts from short traced runs, one per transport.
//
// Each run records exactly kIos 128 KiB writes from first issue to drain,
// so every per-I/O count is an exact ratio:
//   * oAF (shm flow control): capsule + response = 2 PDUs per write, and
//     the zero-copy publish makes no client-side payload copy;
//   * stock NVMe/TCP: capsule, R2T, H2CData, response = 4 PDUs per write;
//   * both: one device command per write.
// The decorators' PDU counts must equal what each channel reports sending
// itself, and the device command count what the target reports serving.
#include <cstdio>
#include <string>

#include "common/units.h"
#include "harness.h"

using namespace oaf;

namespace {

constexpr u64 kIos = 256;
int g_failures = 0;

void expect_eq(const std::string& what, double got, double want) {
  const bool ok = got == want;
  std::printf("%s %s: %g (want %g)\n", ok ? "PASS" : "FAIL", what.c_str(), got,
              want);
  if (!ok) g_failures++;
}

double metric(const e2e::RunResult& r, const char* name) {
  const e2e::Metric* m = r.find(name);
  if (m == nullptr) {
    std::printf("FAIL metric %s missing\n", name);
    g_failures++;
    return -1;
  }
  return m->value;
}

void check_write(const char* label, bool shm, double pdus_per_write) {
  e2e::RunOptions o;
  o.workload = {label, shm, 128 * kKiB, 4, 0.0, true, 8 * kMiB};
  o.seed = 7;
  o.traced = true;
  o.fixed_ios = kIos;
  const e2e::RunResult r = e2e::run(o);
  const std::string p = std::string(label) + " ";
  expect_eq(p + "correct", r.correct ? 1 : 0, 1);
  expect_eq(p + "failed", static_cast<double>(r.failed), 0);
  const double client = metric(r, "net.client.pdus_per_io");
  const double target = metric(r, "net.target.pdus_per_io");
  expect_eq(p + "pdus per write", client + target, pdus_per_write);
  expect_eq(p + "ssd.ops_per_io", metric(r, "ssd.ops_per_io"), 1);
  if (shm) {
    expect_eq(p + "af.client.copy_bytes_per_io",
              metric(r, "af.client.copy_bytes_per_io"), 0);
    expect_eq(p + "af.client.zero_copy_publishes_per_io",
              metric(r, "af.client.zero_copy_publishes_per_io"), 1);
  }
  // Faithful forwarding: the channels' own counters agree exactly.
  expect_eq(p + "client channel pdus_sent",
            static_cast<double>(r.channel_pdus[0]) / kIos, client);
  expect_eq(p + "target channel pdus_sent",
            static_cast<double>(r.channel_pdus[1]) / kIos, target);
  expect_eq(p + "target commands served",
            static_cast<double>(r.target_commands) / kIos,
            metric(r, "ssd.ops_per_io"));
}

}  // namespace

int main() {
  check_write("oaf-write128k", true, 2);
  check_write("tcp-write128k", false, 4);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "ok" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
