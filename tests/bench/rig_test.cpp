// Rig-level ordering checks: the calibrated models must reproduce the
// paper's qualitative results (who wins, roughly by how much) before the
// figure benches print them. These are the repo's "shape regression" tests.
#include "bench/rig.h"

#include <gtest/gtest.h>

namespace oaf::bench {
namespace {

WorkloadSpec spec_128k_read() {
  WorkloadSpec spec;
  spec.io_bytes = 128 * kKiB;
  spec.duration = 150 * 1000 * 1000;
  spec.warmup = 20 * 1000 * 1000;
  spec.queue_depth = 64;
  spec.working_set_bytes = 256 << 20;
  return spec;
}

double aggregate_bw(Transport t, int streams, const WorkloadSpec& spec,
                    RigOptions opts = RigOptions{}) {
  sim::Scheduler sched;
  std::vector<StreamSpec> specs;
  for (int i = 0; i < streams; ++i) {
    WorkloadSpec s = spec;
    s.seed = spec.seed + static_cast<u64>(i);
    specs.push_back({t, s});
  }
  Rig rig(sched, opts, specs);
  return Rig::aggregate_mib_s(rig.run());
}

TEST(RigShapeTest, AfBeatsTcp10GByLargeFactor) {
  RigOptions opts;
  opts.tcp = tcp_10g();
  const auto spec = spec_128k_read();
  const double af = aggregate_bw(Transport::kAfShm, 4, spec, opts);
  const double tcp = aggregate_bw(Transport::kTcpStock, 4, spec, opts);
  // Paper: 7.1x peak read bandwidth (we accept a generous band).
  EXPECT_GT(af / tcp, 4.5) << "af=" << af << " tcp=" << tcp;
  EXPECT_LT(af / tcp, 11.0) << "af=" << af << " tcp=" << tcp;
}

TEST(RigShapeTest, AfBeatsRdmaOnFourStreamReads) {
  const auto spec = spec_128k_read();
  const double af = aggregate_bw(Transport::kAfShm, 4, spec);
  const double rdma = aggregate_bw(Transport::kRdma, 4, spec);
  // Paper: 1.78x for 128 KiB reads from four SSDs.
  EXPECT_GT(af / rdma, 1.2) << "af=" << af << " rdma=" << rdma;
  EXPECT_LT(af / rdma, 2.6) << "af=" << af << " rdma=" << rdma;
}

TEST(RigShapeTest, RdmaBeatsEveryTcpGeneration) {
  const auto spec = spec_128k_read();
  const double rdma = aggregate_bw(Transport::kRdma, 4, spec);
  for (const auto& tcp_params : {tcp_10g(), tcp_25g(), tcp_100g()}) {
    RigOptions opts;
    opts.tcp = tcp_params;
    const double tcp = aggregate_bw(Transport::kTcpStock, 4, spec, opts);
    EXPECT_GT(rdma, tcp) << "link " << tcp_params.link_gbps << "G";
  }
}

TEST(RigShapeTest, TcpGenerationsOrderedButCompressed) {
  const auto spec = spec_128k_read();
  RigOptions o10;
  o10.tcp = tcp_10g();
  RigOptions o25;
  o25.tcp = tcp_25g();
  RigOptions o100;
  o100.tcp = tcp_100g();
  const double bw10 = aggregate_bw(Transport::kTcpStock, 4, spec, o10);
  const double bw25 = aggregate_bw(Transport::kTcpStock, 4, spec, o25);
  const double bw100 = aggregate_bw(Transport::kTcpStock, 4, spec, o100);
  // Paper Fig 2/11: faster wires help, but far from proportionally —
  // 10x the link rate buys ~3x the bandwidth (stack-bound).
  EXPECT_GT(bw25, bw10 * 1.2);
  EXPECT_GT(bw100, bw25 * 1.05);
  EXPECT_LT(bw100, bw10 * 5.0);
}

TEST(RigShapeTest, WritesSlowerThanReadsOnTcp) {
  RigOptions opts;
  opts.tcp = tcp_100g();
  const auto rd = spec_128k_read();
  const auto wr = spec_128k_read().with_mix(0.0, true);
  const double read_bw = aggregate_bw(Transport::kTcpStock, 4, rd, opts);
  const double write_bw = aggregate_bw(Transport::kTcpStock, 4, wr, opts);
  EXPECT_GT(read_bw, write_bw);  // target-side staging copy penalty
}

TEST(RigShapeTest, AblationOrderingMatchesFig8) {
  // SHM-baseline < SHM-flow-ctl <= SHM-0-copy for 512 KiB sequential reads,
  // and the baseline already beats TCP-25G (paper: 1.83x).
  WorkloadSpec spec;
  spec.io_bytes = 512 * kKiB;
  spec.duration = 150 * 1000 * 1000;
  spec.warmup = 20 * 1000 * 1000;
  spec.queue_depth = 64;
  spec.working_set_bytes = 512 << 20;

  RigOptions opts;
  opts.tcp = tcp_25g();
  const double tcp = aggregate_bw(Transport::kTcpStock, 1, spec, opts);
  const double baseline =
      aggregate_bw(Transport::kAfShmBaselineLocked, 1, spec, opts);
  const double lockfree = aggregate_bw(Transport::kAfShmLockFree, 1, spec, opts);
  const double flowctl = aggregate_bw(Transport::kAfShmFlowCtl, 1, spec, opts);
  const double zerocopy = aggregate_bw(Transport::kAfShm, 1, spec, opts);

  EXPECT_GT(baseline, tcp * 1.2) << "baseline=" << baseline << " tcp=" << tcp;
  EXPECT_GE(lockfree, baseline * 0.9);
  EXPECT_GT(flowctl, lockfree * 1.05);
  EXPECT_GE(zerocopy, flowctl * 0.95);
}

TEST(RigTest, LockedShmBaselineCorrect) {
  // Fig 8's SHM-baseline serializes both sides' slot copies on one lock;
  // the bytes must still arrive intact in both directions.
  sim::Scheduler sched;
  Rig rig(sched, RigOptions{}, {{Transport::kAfShmBaselineLocked, {}}});
  rig.connect_all();
  ASSERT_TRUE(rig.initiator(0).shm_active());

  std::vector<u8> data(64 * kKiB);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7 + 4);
  std::vector<u8> out(data.size());
  int ok = 0;
  rig.initiator(0).write(1, 8, data, [&](auto r) { ok += r.ok(); });
  sched.run();
  rig.initiator(0).read(1, 8, out, [&](auto r) { ok += r.ok(); });
  sched.run();
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(out, data);
}

TEST(RigShapeTest, TailLatencyAfBelowTcpAndRdma) {
  // Fig 13 regime: short mixed 70:30 run at 128 KiB, moderate queue depth
  // (at saturation depths queueing delay swamps every fabric's tail).
  WorkloadSpec spec;
  spec.io_bytes = 128 * kKiB;
  spec.read_fraction = 0.7;
  spec.sequential = true;
  spec.duration = 120 * 1000 * 1000;
  spec.warmup = 0;  // short-running app: connection warmup is in scope
  spec.queue_depth = 16;

  auto p9999 = [&](Transport t) {
    sim::Scheduler sched;
    std::vector<StreamSpec> specs(4, StreamSpec{t, spec});
    for (size_t i = 0; i < specs.size(); ++i) specs[i].workload.seed = 1 + i;
    Rig rig(sched, RigOptions{}, specs);
    auto stats = rig.run();
    Histogram merged;
    for (auto& st : stats) merged.merge(st.latency);
    return merged.p9999();
  };
  const i64 af = p9999(Transport::kAfShm);
  const i64 tcp = p9999(Transport::kTcpStock);
  const i64 rdma = p9999(Transport::kRdma);
  EXPECT_LT(af, tcp);
  EXPECT_LT(af, rdma);  // registration spikes dominate short RDMA runs
}

TEST(RigShapeTest, AfTcpOnlyModeBeatsStockTcp) {
  // The §4.5 TCP optimizations alone (busy polling + chunk tuning) must
  // help when no shm channel exists.
  RigOptions opts;
  opts.tcp = tcp_25g();
  WorkloadSpec spec = spec_128k_read().with_io(512 * kKiB);
  const double stock = aggregate_bw(Transport::kTcpStock, 1, spec, opts);
  const double af_tcp = aggregate_bw(Transport::kAfTcpOnly, 1, spec, opts);
  EXPECT_GT(af_tcp, stock) << "af_tcp=" << af_tcp << " stock=" << stock;
}

TEST(RigShapeTest, RocePhysicalFasterThanRdmaVmAtLowQd) {
  // RoCE ran on physical nodes with a real SSD: lower fixed latency.
  WorkloadSpec spec;
  spec.io_bytes = 4 * kKiB;
  spec.duration = 80 * 1000 * 1000;
  spec.warmup = 10 * 1000 * 1000;
  spec.queue_depth = 1;
  auto mean_lat = [&](Transport t) {
    sim::Scheduler sched;
    Rig rig(sched, RigOptions{}, {StreamSpec{t, spec}});
    return rig.run()[0].avg_latency_us();
  };
  EXPECT_LT(mean_lat(Transport::kRoce), mean_lat(Transport::kRdma));
}

}  // namespace
}  // namespace oaf::bench
