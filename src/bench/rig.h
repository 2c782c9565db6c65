// Experiment rig: builds the paper's measurement topology on the timing
// plane — N client applications, each with its own NVMe-oF connection and
// (by default) its own emulated SSD behind one target VM, over a chosen
// fabric — and runs one perf workload per stream (paper §3.1/§5.1).
//
// Transports:
//   kTcpStock            stock SPDK NVMe/TCP (interrupt rx, 128 KiB chunks)
//   kAfTcpOnly           AF's optimized TCP mode (adaptive busy poll,
//                        tuned chunk size) — the inter-node fallback
//   kRdma / kRoce        NVMe/RDMA over IB-56G or RoCE-100G link models
//   kAfShm               full NVMe-oAF (SHM-0-copy)
//   kAfShmBaselineLocked Fig 8 ablation: shm copies behind one lock
//                        (net::LockedCopier), conservative flow
//   kAfShmLockFree       Fig 8 ablation: + lock-free double buffer
//   kAfShmFlowCtl        Fig 8 ablation: + shm flow control (no zero-copy)
//
// All TCP-based streams share one full-duplex link (one NIC/VM pair) unless
// `shared_tcp_link` is false (the Fig 18 "case-1" topology where each
// client-target pair sits on its own node pair).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "af/locality.h"
#include "bench/calibration.h"
#include "bench/perf_driver.h"
#include "net/copier.h"
#include "net/sim_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/target.h"
#include "sim/scheduler.h"
#include "ssd/sim_device.h"

namespace oaf::bench {

enum class Transport {
  kTcpStock,
  kAfTcpOnly,
  kRdma,
  kRoce,
  kAfShm,
  kAfShmBaselineLocked,
  kAfShmLockFree,
  kAfShmFlowCtl,
  /// Paper future work (§5.5/§8): carry the AF *control* PDUs over RDMA
  /// instead of TCP to attack the residual control-plane latency.
  kAfShmRdmaControl,
  /// Paper §6 hardening: full NVMe-oAF with slot payloads encrypted.
  kAfShmEncrypted,
};

const char* to_string(Transport t);

struct RigOptions {
  net::TcpFabricParams tcp = tcp_25g();
  net::RdmaFabricParams rdma = rdma_56g();
  net::RdmaFabricParams roce = roce_100g();
  net::ShmFabricParams shm = host_shm();
  ssd::SimDeviceParams device = emulated_ssd();
  bool shared_tcp_link = true;
  u32 queue_depth = 128;
  u64 max_io_bytes = 512 * kKiB;  ///< shm slot size
};

struct StreamSpec {
  Transport transport = Transport::kAfShm;
  WorkloadSpec workload;
  /// When set, replaces the transport's canonical AfConfig (used by the
  /// chunk-size and busy-poll sweeps that vary one knob at a time).
  std::optional<af::AfConfig> config_override;
};

class Rig {
 public:
  Rig(sim::Scheduler& sched, RigOptions opts, std::vector<StreamSpec> streams);
  ~Rig();

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Connect every stream (phase 1). Drives the scheduler until all
  /// handshakes complete. Called by run(); exposed for harnesses that drive
  /// their own application (e.g. the h5bench figures).
  void connect_all();

  /// Connect every stream, run all workloads to completion, and return the
  /// per-stream stats. Drives the scheduler internally.
  std::vector<RunStats> run();

  [[nodiscard]] nvmf::NvmfInitiator& initiator(size_t i) {
    return *streams_[i]->initiator;
  }
  [[nodiscard]] ssd::SimDevice& device(size_t i) { return *streams_[i]->device; }
  [[nodiscard]] size_t stream_count() const { return streams_.size(); }

  /// Aggregate bandwidth across streams, MiB/s.
  static double aggregate_mib_s(const std::vector<RunStats>& stats);
  /// Mean of per-stream average latencies, µs.
  static double mean_latency_us(const std::vector<RunStats>& stats);

 private:
  struct Stream {
    StreamSpec spec;
    std::unique_ptr<net::SimTcpLink> own_tcp_link;  // when not shared
    std::unique_ptr<net::MsgChannel> client_ch;
    std::unique_ptr<net::MsgChannel> target_ch;
    std::unique_ptr<net::Copier> client_copier;
    std::unique_ptr<net::Copier> target_copier;
    std::unique_ptr<ssd::SimDevice> device;
    std::unique_ptr<ssd::Subsystem> subsystem;
    std::unique_ptr<nvmf::NvmfTargetConnection> target;
    std::unique_ptr<nvmf::NvmfInitiator> initiator;
    std::unique_ptr<PerfDriver> driver;
  };

  [[nodiscard]] af::AfConfig config_for(Transport t) const;

  sim::Scheduler& sched_;
  RigOptions opts_;
  af::ShmBroker host_broker_;    ///< the co-located physical host
  af::ShmBroker remote_broker_;  ///< "some other node" for TCP-only modes
  std::unique_ptr<net::SimTcpLink> tcp_link_;
  std::unique_ptr<net::SimRdmaLink> rdma_link_;
  std::unique_ptr<net::SimRdmaLink> roce_link_;
  std::unique_ptr<net::SimMemoryBus> mem_bus_;
  std::vector<std::unique_ptr<Stream>> streams_;
};

}  // namespace oaf::bench
