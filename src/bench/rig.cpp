#include "bench/rig.h"

#include "common/log.h"

namespace oaf::bench {

const char* to_string(Transport t) {
  switch (t) {
    case Transport::kTcpStock:
      return "NVMe/TCP";
    case Transport::kAfTcpOnly:
      return "AF (TCP mode)";
    case Transport::kRdma:
      return "NVMe/RDMA";
    case Transport::kRoce:
      return "NVMe/RoCE";
    case Transport::kAfShm:
      return "NVMe-oAF (SHM-0-copy)";
    case Transport::kAfShmBaselineLocked:
      return "SHM-baseline";
    case Transport::kAfShmLockFree:
      return "SHM-lock-free";
    case Transport::kAfShmFlowCtl:
      return "SHM-flow-ctl";
    case Transport::kAfShmRdmaControl:
      return "NVMe-oAF (RDMA control)";
    case Transport::kAfShmEncrypted:
      return "NVMe-oAF (encrypted shm)";
  }
  return "?";
}

af::AfConfig Rig::config_for(Transport t) const {
  switch (t) {
    case Transport::kTcpStock:
      return af_stock_tcp();
    case Transport::kAfTcpOnly: {
      // AF's inter-node mode: the TCP optimizations of §4.5 without shm.
      af::AfConfig cfg = af_stock_tcp();
      cfg.chunk_bytes = 512 * kKiB;
      cfg.busy_poll = af::BusyPollPolicy::kAdaptive;
      return cfg;
    }
    case Transport::kRdma:
    case Transport::kRoce:
      return af_rdma();
    case Transport::kAfShm:
    case Transport::kAfShmRdmaControl:
      return af_full(opts_.max_io_bytes, opts_.queue_depth);
    case Transport::kAfShmEncrypted: {
      af::AfConfig cfg = af_full(opts_.max_io_bytes, opts_.queue_depth);
      cfg.encrypt_shm = true;
      cfg.shm_key = 0xFEEDFACE12345678ULL;
      return cfg;
    }
    case Transport::kAfShmBaselineLocked: {
      // Pre-optimization designs keep SPDK's stock 128 KiB chunking for
      // their notifications; the chunk tuning belongs to §4.5. The lock is
      // the stream's net::LockedCopier pair, not a config value.
      af::AfConfig cfg = af_full(opts_.max_io_bytes, opts_.queue_depth);
      cfg.flow_control = af::FlowControlMode::kConservative;
      cfg.zero_copy = false;
      cfg.chunk_bytes = 128 * kKiB;
      cfg.busy_poll = af::BusyPollPolicy::kInterrupt;
      return cfg;
    }
    case Transport::kAfShmLockFree: {
      af::AfConfig cfg = af_full(opts_.max_io_bytes, opts_.queue_depth);
      cfg.flow_control = af::FlowControlMode::kConservative;
      cfg.zero_copy = false;
      cfg.chunk_bytes = 128 * kKiB;
      cfg.busy_poll = af::BusyPollPolicy::kInterrupt;
      return cfg;
    }
    case Transport::kAfShmFlowCtl: {
      af::AfConfig cfg = af_full(opts_.max_io_bytes, opts_.queue_depth);
      cfg.zero_copy = false;
      cfg.chunk_bytes = 128 * kKiB;
      cfg.busy_poll = af::BusyPollPolicy::kInterrupt;
      return cfg;
    }
  }
  return af_stock_tcp();
}

Rig::Rig(sim::Scheduler& sched, RigOptions opts, std::vector<StreamSpec> streams)
    : sched_(sched),
      opts_(opts),
      host_broker_(0xA11CE),
      remote_broker_(0xB0B) {
  bool any_tcp = false;
  bool any_rdma = false;
  bool any_roce = false;
  bool any_shm = false;
  for (const auto& s : streams) {
    switch (s.transport) {
      case Transport::kRdma:
      case Transport::kAfShmRdmaControl:
        any_rdma = true;
        break;
      case Transport::kRoce:
        any_roce = true;
        break;
      default:
        any_tcp = true;  // AF modes carry control PDUs over TCP too
        break;
    }
    if (config_for(s.transport).want_shm) any_shm = true;
  }
  if (any_tcp && opts_.shared_tcp_link) {
    tcp_link_ = std::make_unique<net::SimTcpLink>(sched_, opts_.tcp);
  }
  if (any_rdma) rdma_link_ = std::make_unique<net::SimRdmaLink>(sched_, opts_.rdma);
  if (any_roce) roce_link_ = std::make_unique<net::SimRdmaLink>(sched_, opts_.roce);
  if (any_shm) mem_bus_ = std::make_unique<net::SimMemoryBus>(sched_, opts_.shm);

  int index = 0;
  for (const auto& spec : streams) {
    auto stream = std::make_unique<Stream>();
    stream->spec = spec;

    // Channel.
    net::ChannelPair pair;
    switch (spec.transport) {
      case Transport::kRdma:
      case Transport::kAfShmRdmaControl:
        pair = rdma_link_->connect();
        break;
      case Transport::kRoce:
        pair = roce_link_->connect();
        break;
      default:
        if (opts_.shared_tcp_link) {
          pair = tcp_link_->connect();
        } else {
          stream->own_tcp_link =
              std::make_unique<net::SimTcpLink>(sched_, opts_.tcp);
          pair = stream->own_tcp_link->connect();
        }
        break;
    }
    stream->client_ch = std::move(pair.first);
    stream->target_ch = std::move(pair.second);

    // Copiers: shm streams charge real memory-bus time; pure network
    // streams never touch the shm path, so the inline copier suffices.
    const bool uses_shm = config_for(spec.transport).want_shm;
    if (uses_shm) {
      stream->client_copier = std::make_unique<net::SimCopier>(*mem_bus_);
      stream->target_copier = std::make_unique<net::SimCopier>(*mem_bus_);
      if (spec.transport == Transport::kAfShmBaselineLocked) {
        // Fig 8's SHM-baseline: both sides' slot copies take one lock.
        auto lock = std::make_shared<sim::AsyncMutex>(sched_);
        stream->client_copier = std::make_unique<net::LockedCopier>(
            std::move(stream->client_copier), lock, sched_);
        stream->target_copier = std::make_unique<net::LockedCopier>(
            std::move(stream->target_copier), lock, sched_);
      }
    } else {
      stream->client_copier = std::make_unique<net::InlineCopier>();
      stream->target_copier = std::make_unique<net::InlineCopier>();
    }

    // Device + subsystem: the RoCE testbed used the one real SSD.
    ssd::SimDeviceParams dev_params =
        spec.transport == Transport::kRoce ? real_ssd() : opts_.device;
    dev_params.rng_seed = opts_.device.rng_seed + static_cast<u64>(index);
    stream->device = std::make_unique<ssd::SimDevice>(sched_, dev_params);
    stream->subsystem = std::make_unique<ssd::Subsystem>(
        "nqn.2026-07.io.oaf:rig" + std::to_string(index));
    (void)stream->subsystem->add_namespace(1, stream->device.get());

    // Endpoints.
    const af::AfConfig cfg = spec.config_override.has_value()
                                 ? *spec.config_override
                                 : config_for(spec.transport);
    af::ShmBroker& client_broker = uses_shm ? host_broker_ : remote_broker_;
    const std::string conn_name = "rig_conn" + std::to_string(index);

    nvmf::TargetOptions topts{cfg, conn_name};
    stream->target = std::make_unique<nvmf::NvmfTargetConnection>(
        sched_, *stream->target_ch, *stream->target_copier, host_broker_,
        *stream->subsystem, topts);

    nvmf::InitiatorOptions iopts;
    iopts.af = cfg;
    iopts.connection_name = conn_name;
    iopts.queue_depth = spec.workload.queue_depth;
    stream->initiator = std::make_unique<nvmf::NvmfInitiator>(
        sched_, *stream->client_ch, *stream->client_copier, client_broker, iopts);

    streams_.push_back(std::move(stream));
    index++;
  }
}

Rig::~Rig() = default;

void Rig::connect_all() {
  size_t connected = 0;
  for (auto& s : streams_) {
    s->initiator->connect([&connected](Status st) {
      if (!st) OAF_ERROR("rig connect failed: %s", st.to_string().c_str());
      connected++;
    });
  }
  sched_.run();
  if (connected != streams_.size()) {
    OAF_ERROR("rig: only %zu/%zu streams connected", connected, streams_.size());
  }
}

std::vector<RunStats> Rig::run() {
  connect_all();

  // Run every stream's workload concurrently.
  std::vector<RunStats> results(streams_.size());
  size_t done = 0;
  for (size_t i = 0; i < streams_.size(); ++i) {
    auto& s = streams_[i];
    s->driver = std::make_unique<PerfDriver>(sched_, *s->initiator,
                                             s->spec.workload);
    s->driver->run([&results, &done, i](RunStats stats) {
      results[i] = std::move(stats);
      done++;
    });
  }
  sched_.run();
  if (done != streams_.size()) {
    OAF_ERROR("rig: only %zu/%zu streams finished", done, streams_.size());
  }
  return results;
}

double Rig::aggregate_mib_s(const std::vector<RunStats>& stats) {
  double sum = 0;
  for (const auto& s : stats) sum += s.bandwidth_mib_s();
  return sum;
}

double Rig::mean_latency_us(const std::vector<RunStats>& stats) {
  if (stats.empty()) return 0;
  double sum = 0;
  for (const auto& s : stats) sum += s.avg_latency_us();
  return sum / static_cast<double>(stats.size());
}

}  // namespace oaf::bench
