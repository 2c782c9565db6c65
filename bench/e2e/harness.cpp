#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "af/locality.h"
#include "common/rng.h"
#include "common/units.h"
#include "decorators.h"
#include "net/tcp_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/path_group.h"
#include "nvmf/path_selector.h"
#include "nvmf/target_service.h"
#include "pdu/codec.h"
#include "sim/real_executor.h"
#include "ssd/real_device.h"
#include "telemetry/attribution.h"
#include "telemetry/prof/cost_center.h"
#include "telemetry/telemetry.h"
#include "trace.h"

namespace oaf::e2e {

namespace {

using trace::Side;
using trace::SpanName;

constexpr u64 kToken = 42;  // equal on both brokers: the pair is co-located
constexpr u32 kNsid = 1;
constexpr u32 kBlock = nvmf::IoSession::kBlockSize;
constexpr const char* kNqn = "nqn.2026-07.io.oaf:e2e";
constexpr auto kWarmup = std::chrono::seconds(2);
// Set-ups per untraced run; setup_s is their median. One set-up is one to
// two hundred microseconds dominated by cross-thread wake-ups, the first in
// a process is several times slower, and later ones keep getting faster for
// a dozen or so rounds.
constexpr int kSetups = 31;
// lat_p99_us is the median of the p99s of these slices of the window: a
// one-second stall elsewhere on the host moves one slice, not the result.
constexpr DurNs kSliceNs = 1'000'000'000;
constexpr auto kDrainTimeout = std::chrono::seconds(10);
constexpr auto kReadbackTimeout = std::chrono::seconds(60);

/// One-shot event one thread sets and another waits for.
class Latch {
 public:
  void set() {
    // Notify under the lock: the waiter may destroy the latch as soon as it
    // can re-acquire the mutex.
    const std::lock_guard<std::mutex> lk(mu_);
    done_ = true;
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return done_; });
  }
  template <typename D>
  bool wait_for(D timeout) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, timeout, [this] { return done_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
};

/// Run `f` on `exec`'s thread and wait for it.
template <typename F>
void run_on(Executor& exec, F&& f) {
  Latch done;
  exec.post([&] {
    f();
    done.set();
  });
  done.wait();
}

/// CPU time of every thread of this process, by kernel tid, in ns.
std::map<int, u64> thread_cpu_ns() {
  std::map<int, u64> out;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream f(e.path() / "schedstat");
    u64 ns = 0;
    if (f >> ns) out[std::stoi(e.path().filename().string())] = ns;
  }
  return out;
}

/// Order statistic at quantile q; reorders `v`.
double percentile(std::span<DurNs> v, double q) {
  if (v.empty()) return 0;
  const size_t rank = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

u64 mix(u64 x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// --- content oracle --------------------------------------------------------

/// Predicts every byte a read returns. Each 512 B block carries
/// (lba, write version, seed) plus a pattern keyed on the three; the shadow
/// map holds, per I/O-sized unit, the version of the last completed write.
class Oracle {
 public:
  Oracle(u64 io_bytes, u64 units, u64 seed)
      : blocks_per_io_(io_bytes / kBlock), seed_(seed), shadow_(units, 0) {}

  [[nodiscard]] u64 units() const { return shadow_.size(); }
  [[nodiscard]] u64 blocks_per_io() const { return blocks_per_io_; }
  /// A write to `unit` completed (or failed) since the prefill.
  [[nodiscard]] bool written(u64 unit) const { return shadow_[unit] != 0; }

  /// Write version 0 of every unit straight into the store, so the run
  /// times no lazy extent allocation and every read is predictable.
  Status prefill(ssd::BlockStore& store) const {
    const u64 io_bytes = blocks_per_io_ * kBlock;
    const u64 per_chunk = std::max<u64>(1, kMiB / io_bytes);
    std::vector<u8> buf(per_chunk * io_bytes);
    for (u64 u = 0; u < units(); u += per_chunk) {
      const u64 n = std::min(per_chunk, units() - u);
      for (u64 k = 0; k < n; ++k) {
        stamp(u + k, 0, std::span<u8>(buf).subspan(k * io_bytes, io_bytes));
      }
      if (auto st = store.write(u * blocks_per_io_,
                                std::span<const u8>(buf).first(n * io_bytes));
          !st) {
        return st;
      }
    }
    return Status::ok();
  }

  u64 next_version() { return ++last_version_; }

  void stamp(u64 unit, u64 version, std::span<u8> out) const {
    for (u64 b = 0; b < blocks_per_io_; ++b) {
      const Block blk = block(unit * blocks_per_io_ + b, version);
      std::memcpy(out.data() + b * kBlock, blk.data(), kBlock);
    }
  }

  [[nodiscard]] bool verify(u64 unit, std::span<const u8> data) const {
    const u64 version = shadow_[unit];
    if (version == kUnknown) return true;  // the failed write already counted
    if (data.size() < blocks_per_io_ * kBlock) return false;
    for (u64 b = 0; b < blocks_per_io_; ++b) {
      const Block blk = block(unit * blocks_per_io_ + b, version);
      if (std::memcmp(data.data() + b * kBlock, blk.data(), kBlock) != 0) {
        return false;
      }
    }
    return true;
  }

  void complete_write(u64 unit, u64 version, bool ok) {
    shadow_[unit] = ok ? version : kUnknown;
  }

 private:
  static constexpr u64 kUnknown = ~0ULL;
  using Block = std::array<u64, kBlock / sizeof(u64)>;

  [[nodiscard]] Block block(u64 lba, u64 version) const {
    Block w{};
    w[0] = lba;
    w[1] = version;
    w[2] = seed_;
    const u64 key = mix(lba ^ mix(version ^ mix(seed_)));
    for (size_t i = 3; i < w.size(); ++i) w[i] = key + i * 0x9e3779b97f4a7c15ULL;
    return w;
  }

  const u64 blocks_per_io_;
  const u64 seed_;
  std::vector<u64> shadow_;
  u64 last_version_ = 0;
};

// --- load generator --------------------------------------------------------

/// Closed loop, as SPDK perf: qd slots, each issuing its next I/O from its
/// last completion. Never issues to a unit that has an I/O in flight. Runs
/// entirely on the client reactor; the main thread only posts the window
/// edges and waits on the latches.
class LoadGen {
 public:
  using IoResult = nvmf::IoSession::IoResult;
  using ReadView = nvmf::IoSession::ReadView;

  LoadGen(nvmf::IoSession& session, Oracle& oracle, const Workload& w,
          Rng& rng, u64 limit, double window_s)
      : session_(session),
        oracle_(oracle),
        rng_(rng),
        io_bytes_(w.io_bytes),
        read_fraction_(w.read_fraction),
        sequential_(w.sequential),
        limit_(limit),
        busy_(oracle.units(), 0),
        slots_(w.qd) {
    for (Slot& s : slots_) s.buf.resize(io_bytes_);
    latencies_.reserve(static_cast<size_t>(std::max(window_s, 1.0) * 300'000));
  }

  void start() {
    for (u32 i = 0; i < slots_.size(); ++i) issue(i);
  }
  void open_window() {
    in_window_ = true;
    window_open_ = trace::now_ns();
    slice_edge_ = window_open_ + kSliceNs;
  }
  void close_window() {
    if (slice_ends_.empty() || slice_ends_.back() < latencies_.size()) {
      slice_ends_.push_back(latencies_.size());  // the last, partial slice
    }
    in_window_ = false;
    window_close_ = trace::now_ns();
    stopping_ = true;
    maybe_idle();
  }
  /// After the run drained: read every unit written during the run back
  /// through the session and check it, so write-only workloads are verified
  /// too. Reads were already checked as they completed.
  void start_readback() {
    readback_ = true;
    for (u32 i = 0; i < slots_.size(); ++i) issue(i);
  }

  bool wait_drained(std::chrono::seconds t) { return drained_.wait_for(t); }
  bool wait_readback(std::chrono::seconds t) { return read_back_.wait_for(t); }

  // Read once the reactor is quiescent (after a latch or a run_on).
  [[nodiscard]] u64 outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 attempted() const { return attempted_; }
  [[nodiscard]] u64 failed() const { return failed_; }
  [[nodiscard]] u64 window_ios() const { return window_ios_; }
  [[nodiscard]] DurNs window_ns() const { return window_close_ - window_open_; }
  [[nodiscard]] std::vector<DurNs>& latencies() { return latencies_; }
  /// latencies() index at which each whole slice of the window ends.
  [[nodiscard]] const std::vector<size_t>& slice_ends() const {
    return slice_ends_;
  }

 private:
  struct Slot {
    std::vector<u8> buf;  ///< staged-path payload
    u64 unit = 0;
    u64 version = 0;
    bool read = false;
    TimeNs t0 = 0;
  };

  u64 pick_unit() {
    for (;;) {
      const u64 u = sequential_ ? cursor_++ % oracle_.units()
                                : rng_.next_below(oracle_.units());
      if (busy_[u] == 0) return u;
    }
  }

  void issue(u32 i) {
    Slot& s = slots_[i];
    if (readback_) {
      while (readback_next_ < oracle_.units() &&
             !oracle_.written(readback_next_)) {
        readback_next_++;
      }
      if (readback_next_ >= oracle_.units()) return maybe_idle();
      s.unit = readback_next_++;
      s.read = true;
    } else {
      if (stopping_ || (limit_ != 0 && attempted_ >= limit_)) return maybe_idle();
      s.unit = pick_unit();
      s.read = rng_.next_double() < read_fraction_;
    }
    const trace::Span span(SpanName::kHarnessIssue);
    busy_[s.unit] = 1;
    attempted_++;
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    s.t0 = trace::now_ns();
    const u64 slba = s.unit * oracle_.blocks_per_io();
    if (s.read) {
      submit_read(i, slba);
    } else {
      submit_write(i, slba);
    }
  }

  void submit_read(u32 i, u64 slba) {
    if (session_.supports_zero_copy()) {
      session_.zero_copy_read(
          kNsid, slba, io_bytes_,
          [this, i](Result<ReadView> view, IoResult r) {
            const TimeNs done = trace::now_ns();
            const trace::Span span(SpanName::kHarnessCpl);
            // The payload is checked in place, before the slot is released.
            bool ok = r.ok() && view.is_ok() && check(i, view.value().data);
            if (view.is_ok() && view.value().release) view.value().release();
            finish(i, ok, done);
          });
      return;
    }
    session_.read(kNsid, slba, slots_[i].buf, [this, i](IoResult r) {
      const TimeNs done = trace::now_ns();
      const trace::Span span(SpanName::kHarnessCpl);
      finish(i, r.ok() && check(i, slots_[i].buf), done);
    });
  }

  void submit_write(u32 i, u64 slba) {
    Slot& s = slots_[i];
    s.version = oracle_.next_version();
    auto on_done = [this, i](IoResult r) {
      const TimeNs done = trace::now_ns();
      const trace::Span span(SpanName::kHarnessCpl);
      {
        const trace::Span verify(SpanName::kHarnessVerify);
        oracle_.complete_write(slots_[i].unit, slots_[i].version, r.ok());
      }
      finish(i, r.ok(), done);
    };
    if (session_.supports_zero_copy()) {
      auto ticket = session_.zero_copy_write_begin(io_bytes_);
      if (ticket.is_ok()) {
        const nvmf::IoSession::WriteTicket t = ticket.value();
        oracle_.stamp(s.unit, s.version, t.buffer.first(io_bytes_));
        session_.zero_copy_write(t, kNsid, slba, io_bytes_, std::move(on_done));
        return;
      }
      // No free slot: fall back to the staged path, as PerfDriver does.
    }
    oracle_.stamp(s.unit, s.version, s.buf);
    session_.write(kNsid, slba, s.buf, std::move(on_done));
  }

  bool check(u32 i, std::span<const u8> data) {
    const trace::Span span(SpanName::kHarnessVerify);
    if (oracle_.verify(slots_[i].unit, data)) return true;
    if (++mismatches_ <= 3) {
      std::fprintf(stderr,
                   "oaf_e2e: read of unit %llu returned bytes the oracle did "
                   "not predict\n",
                   static_cast<unsigned long long>(slots_[i].unit));
    }
    return false;
  }

  void finish(u32 i, bool ok, TimeNs done) {
    Slot& s = slots_[i];
    busy_[s.unit] = 0;
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    if (!ok) failed_++;
    if (in_window_) {
      for (; done >= slice_edge_; slice_edge_ += kSliceNs) {
        slice_ends_.push_back(latencies_.size());
      }
      window_ios_++;
      latencies_.push_back(done - s.t0);
    }
    issue(i);
  }

  void maybe_idle() {
    if (outstanding() != 0) return;
    (readback_ ? read_back_ : drained_).set();
  }

  nvmf::IoSession& session_;
  Oracle& oracle_;
  Rng& rng_;
  const u64 io_bytes_;
  const double read_fraction_;
  const bool sequential_;
  const u64 limit_;

  std::vector<u8> busy_;  ///< per unit: an I/O is in flight
  std::vector<Slot> slots_;
  u64 cursor_ = 0;
  bool stopping_ = false;
  bool readback_ = false;
  u64 readback_next_ = 0;

  std::atomic<u64> outstanding_{0};
  u64 attempted_ = 0;
  u64 failed_ = 0;
  u64 mismatches_ = 0;
  bool in_window_ = false;
  TimeNs window_open_ = 0;
  TimeNs window_close_ = 0;
  u64 window_ios_ = 0;
  std::vector<DurNs> latencies_;
  TimeNs slice_edge_ = 0;
  std::vector<size_t> slice_ends_;

  Latch drained_;
  Latch read_back_;
};

// --- one client/target association -----------------------------------------

/// The two reactors, shared by every connection of a run.
struct Node {
  sim::RealExecutor client;
  sim::RealExecutor target;
};

/// What one connection's engines are wired to: the bare executors, copiers
/// and device, or the tracing decorators over them.
struct Plane {
  Executor& client;
  Executor& target;
  net::Copier& client_copier;
  net::Copier& target_copier;
  ssd::Subsystem& subsystem;
  bool traced = false;
};

/// Sets up one target service + one-path client over loopback TCP and
/// tears both down on destruction. The constructor is the timed set-up.
class Connection {
 public:
  struct Counters {
    u64 zero_copy_publishes = 0;
    u64 staged_copies = 0;
    u64 target_commands = 0;
    u64 channel_pdus[2] = {0, 0};
  };

  Connection(Node& node, const Plane& plane, const Workload& w,
             const std::string& name)
      : node_(node) {
    const TimeNs t0 = trace::now_ns();
    nvmf::TargetServiceOptions sopts;
    sopts.af = af::AfConfig::oaf();
    service_ = std::make_unique<nvmf::NvmfTargetService>(
        plane.target, plane.target_copier, target_broker_, plane.subsystem,
        sopts);

    auto listener = net::TcpListener::listen(0);
    if (!listener) {
      fail("listen: " + listener.status().to_string());
      return;
    }
    auto dialed =
        net::tcp_connect("127.0.0.1", listener.value().port(), plane.client);
    if (!dialed) {
      fail("connect: " + dialed.status().to_string());
      return;
    }
    auto accepted = listener.value().accept(plane.target);
    if (!accepted) {
      fail("accept: " + accepted.status().to_string());
      return;
    }
    dialed_ = std::move(dialed).take();
    std::unique_ptr<net::MsgChannel> target_ch = std::move(accepted).take();
    if (plane.traced) {
      auto c =
          std::make_unique<TimedChannel>(std::move(dialed_), Side::kClient);
      auto t =
          std::make_unique<TimedChannel>(std::move(target_ch), Side::kTarget);
      channels_[0] = c.get();
      channels_[1] = t.get();
      dialed_ = std::move(c);
      target_ch = std::move(t);
    }
    run_on(node_.target, [&] { service_->accept(std::move(target_ch), name); });

    // Client: configured as oaf_perf configures its path 0.
    af::AfConfig cfg = w.shm ? af::AfConfig::oaf() : af::AfConfig::stock_tcp();
    cfg.shm_slot_bytes = std::max<u64>(w.io_bytes, 4 * kKiB);
    cfg.shm_slots = std::max<u32>(w.qd, 1);
    nvmf::InitiatorOptions iopts;
    iopts.af = cfg;
    iopts.queue_depth = w.qd;
    iopts.connection_name = name;
    nvmf::PathGroupOptions gopts;
    gopts.name = name;
    group_ = std::make_unique<nvmf::PathGroup>(
        plane.client, std::move(gopts), nvmf::make_selector("round-robin"));
    group_->add_path(std::make_unique<nvmf::NvmfInitiator>(
        plane.client,
        [this]() -> std::unique_ptr<net::MsgChannel> {
          return std::move(dialed_);
        },
        plane.client_copier, client_broker_, iopts));

    // The callback may outlive this frame if the handshake times out.
    struct Wait {
      Latch latch;
      Status status = Status::ok();
    };
    auto wait = std::make_shared<Wait>();
    node_.client.post([this, wait] {
      group_->connect([wait](Status st) {
        wait->status = st;
        wait->latch.set();
      });
    });
    if (!wait->latch.wait_for(kDrainTimeout)) {
      fail("handshake timed out");
      return;
    }
    setup_ns_ = trace::now_ns() - t0;
    if (!wait->status) {
      fail("handshake: " + wait->status.to_string());
      return;
    }

    bool shm = false;
    bool zero_copy = false;
    run_on(node_.client, [&] {
      shm = group_->path(0).shm_active();
      zero_copy = group_->supports_zero_copy();
    });
    if (shm != w.shm || zero_copy != w.shm) {
      fail(std::string("data path is ") + (shm ? "shm" : "tcp") +
           (zero_copy ? "+zero-copy" : "") + ", workload wants " +
           (w.shm ? "shm+zero-copy" : "tcp"));
      return;
    }
    if (plane.traced) timed_session_ = std::make_unique<TimedSession>(*group_);
  }

  ~Connection() {
    run_on(node_.client, [&] {
      timed_session_.reset();
      group_.reset();
      dialed_.reset();
    });
    run_on(node_.target, [&] { service_.reset(); });
    node_.client.drain();
    node_.target.drain();
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] double setup_s() const {
    return static_cast<double>(setup_ns_) / 1e9;
  }
  nvmf::IoSession& session() {
    if (timed_session_) return *timed_session_;
    return *group_;
  }

  Counters counters() {
    Counters c;
    run_on(node_.client, [&] {
      af::AfEndpoint& ep = group_->path(0).endpoint();
      c.zero_copy_publishes = ep.zero_copy_publishes();
      c.staged_copies = ep.staged_copies();
    });
    run_on(node_.target,
           [&] { c.target_commands = service_->commands_served(); });
    for (size_t s = 0; s < 2; ++s) {
      if (channels_[s] != nullptr) c.channel_pdus[s] = channels_[s]->pdus_sent();
    }
    return c;
  }

 private:
  void fail(std::string why) { error_ = std::move(why); }

  Node& node_;
  af::ShmBroker target_broker_{kToken, af::ShmBroker::Backing::kPosixShm};
  af::ShmBroker client_broker_{kToken, af::ShmBroker::Backing::kPosixShm};
  std::unique_ptr<nvmf::NvmfTargetService> service_;
  std::unique_ptr<net::MsgChannel> dialed_;  ///< handed over on first connect
  std::unique_ptr<nvmf::PathGroup> group_;
  std::unique_ptr<TimedSession> timed_session_;
  std::array<net::MsgChannel*, 2> channels_{nullptr, nullptr};  ///< traced only
  DurNs setup_ns_ = 0;
  std::string error_;
};

// --- one measured window ---------------------------------------------------

struct Measured {
  DurNs window_ns = 1;
  u64 ios = 0;
  std::vector<DurNs> latencies;
  std::vector<size_t> slice_ends;
  std::map<int, u64> cpu0, cpu1;
  Connection::Counters c0, c1;
  u64 attempted = 0;
  u64 failed = 0;  ///< errors + mismatches + I/Os that never drained

  [[nodiscard]] double iops() const {
    return static_cast<double>(ios) / (static_cast<double>(window_ns) / 1e9);
  }
  [[nodiscard]] u64 cpu_delta(int tid) const {
    const auto a = cpu0.find(tid);
    const auto b = cpu1.find(tid);
    if (b == cpu1.end()) return 0;
    return b->second - (a == cpu0.end() ? 0 : a->second);
  }
};

/// Drive `conn` through warm-up and one window (or exactly `fixed_ios`
/// I/Os), drain, read everything back, and tear the connection down.
Measured measure(Node& node, std::unique_ptr<Connection>& conn, Oracle& oracle,
                 Rng& rng, const Workload& w, double window_s, u64 fixed_ios,
                 bool traced) {
  LoadGen gen(conn->session(), oracle, w, rng, fixed_ios, window_s);
  Measured m;
  bool drained = false;
  if (fixed_ios != 0) {
    m.c0 = conn->counters();
    m.cpu0 = thread_cpu_ns();
    trace::set_on(true);
    run_on(node.client, [&] {
      gen.open_window();
      gen.start();
    });
    drained = gen.wait_drained(kReadbackTimeout);
    run_on(node.client, [&] { gen.close_window(); });
  } else {
    run_on(node.client, [&] { gen.start(); });
    std::this_thread::sleep_for(kWarmup);
    m.c0 = conn->counters();
    m.cpu0 = thread_cpu_ns();
    trace::set_on(traced);
    run_on(node.client, [&] { gen.open_window(); });
    std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
    run_on(node.client, [&] { gen.close_window(); });
  }
  trace::set_on(false);
  m.cpu1 = thread_cpu_ns();
  m.c1 = conn->counters();
  if (fixed_ios == 0) drained = gen.wait_drained(kDrainTimeout);
  if (drained) {
    run_on(node.client, [&] { gen.start_readback(); });
    if (!gen.wait_readback(kReadbackTimeout)) {
      std::fprintf(stderr, "oaf_e2e: read-back did not finish\n");
      drained = false;
    }
  } else {
    std::fprintf(stderr, "oaf_e2e: %llu I/Os did not drain\n",
                 static_cast<unsigned long long>(gen.outstanding()));
  }
  conn.reset();  // before `gen` dies: a late completion must find it alive
  m.window_ns = std::max<DurNs>(gen.window_ns(), 1);
  m.ios = gen.window_ios();
  m.latencies = std::move(gen.latencies());
  m.slice_ends = gen.slice_ends();
  m.attempted = gen.attempted();
  m.failed = gen.failed() + (drained ? 0 : gen.outstanding());
  return m;
}

/// Encode and decode the captured PDU mix; returns {encode, decode} ns per
/// I/O, weighting each type's mean cost by how often the run sent it.
std::pair<double, double> replay_codec(const trace::Totals& t, u64 ios) {
  std::array<std::vector<const trace::CapturedPdu*>, trace::kPduTypes> by_type;
  for (const trace::CapturedPdu& c : t.captured) {
    by_type[static_cast<size_t>(c.type)].push_back(&c);
  }
  constexpr size_t kBatch = 64;
  double encode = 0;
  double decode = 0;
  for (size_t ty = 0; ty < by_type.size(); ++ty) {
    const auto& v = by_type[ty];
    if (v.empty()) continue;
    DurNs enc = 0;
    DurNs dec = 0;
    std::vector<pdu::Pdu> batch;
    std::vector<std::vector<u8>> wire;
    for (size_t i = 0; i < v.size(); i += kBatch) {
      batch.clear();
      wire.clear();
      for (size_t j = i; j < std::min(v.size(), i + kBatch); ++j) {
        pdu::Pdu p;
        p.header = v[j]->header;
        p.payload.assign(v[j]->payload_bytes, 0x5a);
        batch.push_back(std::move(p));
      }
      TimeNs t0 = trace::now_ns();
      for (const pdu::Pdu& p : batch) wire.push_back(pdu::encode(p));
      enc += trace::now_ns() - t0;
      t0 = trace::now_ns();
      for (const std::vector<u8>& b : wire) {
        if (!pdu::decode(b)) {
          std::fprintf(stderr, "oaf_e2e: replay decode failed\n");
        }
      }
      dec += trace::now_ns() - t0;
    }
    const double sent = static_cast<double>(t.pdus[0][ty] + t.pdus[1][ty]);
    const double n = static_cast<double>(v.size());
    encode += static_cast<double>(enc) / n * sent / static_cast<double>(ios);
    decode += static_cast<double>(dec) / n * sent / static_cast<double>(ios);
  }
  return {encode, decode};
}

void add_metric(std::vector<Metric>& out, std::string name, double value,
                std::string unit) {
  out.push_back({std::move(name), value, std::move(unit)});
}

/// The untraced window's metrics. Reorders m.latencies.
void add_end_to_end_metrics(std::vector<Metric>& out, Measured& m,
                            const std::vector<double>& setups, int main_tid) {
  u64 worker_cpu = 0;
  for (const auto& [tid, ns] : m.cpu1) {
    if (tid != main_tid) worker_cpu += m.cpu_delta(tid);
  }
  const double ios = static_cast<double>(std::max<u64>(m.ios, 1));
  // Slices before the whole window: nth_element inside one slice keeps its
  // elements inside it.
  std::vector<double> slice_p99;
  size_t begin = 0;
  for (const size_t end : m.slice_ends) {
    const std::span<DurNs> slice(m.latencies.data() + begin, end - begin);
    if (!slice.empty()) slice_p99.push_back(percentile(slice, 0.99));
    begin = end;
  }
  const std::span<DurNs> all(m.latencies);
  add_metric(out, "iops", m.iops(), "IO/s");
  add_metric(out, "lat_p50_us", percentile(all, 0.50) / 1e3, "us");
  add_metric(out, "lat_p99_us", median(slice_p99) / 1e3, "us");
  add_metric(out, "cpu_us_per_io", static_cast<double>(worker_cpu) / ios / 1e3,
             "us");
  add_metric(out, "setup_s", median(setups), "s");
  add_metric(out, "lat_p999_us", percentile(all, 0.999) / 1e3, "us");
  add_metric(out, "lat_samples", static_cast<double>(all.size()), "count");
  add_metric(out, "threads", static_cast<double>(m.cpu1.size()), "count");
}

/// The traced window's per-layer metrics, each per completed I/O unless its
/// unit says otherwise.
void add_layer_metrics(std::vector<Metric>& out, const trace::Totals& t,
                       const Measured& m, const int reactor_tid[2],
                       int main_tid, double untraced_iops) {
  using trace::Counter;
  using pdu::PduType;
  const double ios = static_cast<double>(std::max<u64>(m.ios, 1));
  auto per_io = [&](const char* name, double total, const char* unit) {
    add_metric(out, name, total / ios, unit);
  };
  auto total = [&](SpanName s) {
    return static_cast<double>(t.span(s).total_ns);
  };
  auto self = [&](SpanName s) {
    return static_cast<double>(t.span(s).self_ns);
  };
  auto count = [&](Counter c) { return static_cast<double>(t.counter(c)); };
  auto sent = [&](Side s, PduType ty) {
    return static_cast<double>(t.pdus_sent(s, ty));
  };
  auto wait = [&](const char* name, Side s, double q) {
    const auto& samples = t.xwait[static_cast<size_t>(s)];
    std::vector<DurNs> v(samples.begin(), samples.end());
    add_metric(out, name, percentile(v, q), "ns");
  };
  auto cpu = [&](int tid) { return static_cast<double>(m.cpu_delta(tid)); };
  double reader_cpu = 0;
  double worker_cpu = 0;
  for (const auto& [tid, ns] : m.cpu1) {
    if (tid == main_tid) continue;
    worker_cpu += cpu(tid);
    if (tid != reactor_tid[0] && tid != reactor_tid[1]) reader_cpu += cpu(tid);
  }
  const auto window_ns = static_cast<double>(m.window_ns);

  // sim: RealExecutor
  per_io("sim.client.posts_per_io", count(Counter::kClientPosts), "posts/io");
  per_io("sim.target.posts_per_io", count(Counter::kTargetPosts), "posts/io");
  wait("sim.client.xthread_wait_ns.p50", Side::kClient, 0.50);
  wait("sim.client.xthread_wait_ns.p99", Side::kClient, 0.99);
  wait("sim.target.xthread_wait_ns.p50", Side::kTarget, 0.50);
  wait("sim.target.xthread_wait_ns.p99", Side::kTarget, 0.99);
  per_io("sim.client.cpu_ns_per_io", cpu(reactor_tid[0]), "ns/io");
  per_io("sim.target.cpu_ns_per_io", cpu(reactor_tid[1]), "ns/io");
  add_metric(out, "sim.client.busy_frac",
             total(SpanName::kClientTask) / window_ns, "frac");
  add_metric(out, "sim.target.busy_frac",
             total(SpanName::kTargetTask) / window_ns, "frac");
  per_io("sim.client.task_self_ns_per_io", self(SpanName::kClientTask), "ns/io");
  per_io("sim.target.task_self_ns_per_io", self(SpanName::kTargetTask), "ns/io");
  // net: socket/TCP channel
  per_io("net.client.pdus_per_io",
         static_cast<double>(t.pdus_sent(Side::kClient)), "pdus/io");
  per_io("net.target.pdus_per_io",
         static_cast<double>(t.pdus_sent(Side::kTarget)), "pdus/io");
  per_io("net.client.capsule_per_io", sent(Side::kClient, PduType::kCapsuleCmd),
         "pdus/io");
  per_io("net.client.h2c_per_io", sent(Side::kClient, PduType::kH2CData),
         "pdus/io");
  per_io("net.target.r2t_per_io", sent(Side::kTarget, PduType::kR2T), "pdus/io");
  per_io("net.target.c2h_per_io", sent(Side::kTarget, PduType::kC2HData),
         "pdus/io");
  per_io("net.target.resp_per_io", sent(Side::kTarget, PduType::kCapsuleResp),
         "pdus/io");
  per_io("net.client.wire_bytes_per_io", count(Counter::kClientWireBytes),
         "B/io");
  per_io("net.target.wire_bytes_per_io", count(Counter::kTargetWireBytes),
         "B/io");
  per_io("net.client.send_ns_per_io", total(SpanName::kClientSend), "ns/io");
  per_io("net.target.send_ns_per_io", total(SpanName::kTargetSend), "ns/io");
  per_io("net.reader.cpu_ns_per_io", reader_cpu, "ns/io");
  // nvmf: initiator, path group, target
  per_io("nvmf.client.submit_self_ns_per_io", self(SpanName::kClientSubmit),
         "ns/io");
  per_io("nvmf.client.rx_self_ns_per_io", self(SpanName::kClientRx), "ns/io");
  per_io("nvmf.target.rx_self_ns_per_io", self(SpanName::kTargetRx), "ns/io");
  per_io("nvmf.target.cpl_self_ns_per_io", self(SpanName::kTargetCpl), "ns/io");
  // ssd: RealDevice / BlockStore
  per_io("ssd.ops_per_io", count(Counter::kSsdOps), "ops/io");
  per_io("ssd.submit_ns_per_io", total(SpanName::kSsdSubmit), "ns/io");
  per_io("ssd.bytes_per_io", count(Counter::kSsdBytes), "B/io");
  // af + shm: copier, endpoint
  per_io("af.client.copies_per_io", count(Counter::kClientCopies), "copies/io");
  per_io("af.target.copies_per_io", count(Counter::kTargetCopies), "copies/io");
  per_io("af.client.copy_bytes_per_io", count(Counter::kClientCopyBytes), "B/io");
  per_io("af.target.copy_bytes_per_io", count(Counter::kTargetCopyBytes), "B/io");
  per_io("af.copy_ns_per_io",
         total(SpanName::kClientCopy) + total(SpanName::kTargetCopy), "ns/io");
  per_io("af.client.zero_copy_publishes_per_io",
         static_cast<double>(m.c1.zero_copy_publishes - m.c0.zero_copy_publishes),
         "ops/io");
  per_io("af.client.staged_copies_per_io",
         static_cast<double>(m.c1.staged_copies - m.c0.staged_copies), "ops/io");
  // pdu: codec, replayed over the captured mix
  const auto [encode_ns, decode_ns] = replay_codec(t, std::max<u64>(m.ios, 1));
  add_metric(out, "pdu.encode_ns_per_io", encode_ns, "ns/io");
  add_metric(out, "pdu.decode_ns_per_io", decode_ns, "ns/io");
  // harness
  per_io("harness.cpu_ns_per_io",
         self(SpanName::kHarnessIssue) + self(SpanName::kHarnessCpl), "ns/io");
  per_io("harness.verify_ns_per_io", self(SpanName::kHarnessVerify), "ns/io");
  // Reconciliation: worker CPU that no decorator span or reader thread
  // claims. The executor task spans are left out on purpose: their self time
  // is exactly the in-task remainder no layer span covers.
  double named = reader_cpu;
  for (size_t i = 0; i < trace::kSpanNames; ++i) {
    const auto s = static_cast<SpanName>(i);
    if (s != SpanName::kClientTask && s != SpanName::kTargetTask) {
      named += self(s);
    }
  }
  per_io("unattributed_ns_per_io", worker_cpu - named, "ns/io");
  if (untraced_iops > 0) {
    add_metric(out, "trace.overhead_frac", 1.0 - m.iops() / untraced_iops,
               "frac");
  }
  add_metric(out, "trace.iops", m.iops(), "IO/s");
  add_metric(out, "trace.spans_dropped", static_cast<double>(t.spans_dropped),
             "count");
  add_metric(out, "trace.xwait_dropped", static_cast<double>(t.xwait_dropped),
             "count");
  add_metric(out, "trace.misnested", count(Counter::kMisnested), "count");
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

std::span<const Workload> workloads() {
  static const std::array<Workload, 4> kWorkloads = {{
      {"oaf-rand4k-read-qd16", true, 4 * kKiB, 16, 1.0, false, 256 * kMiB},
      {"oaf-seq128k-write-qd16", true, 128 * kKiB, 16, 0.0, true, 256 * kMiB},
      {"tcp-seq128k-mix70-qd16", false, 128 * kKiB, 16, 0.7, true, 256 * kMiB},
      {"oaf-rand4k-read-qd1", true, 4 * kKiB, 1, 1.0, false, 8 * kMiB},
  }};
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const Metric* RunResult::find(std::string_view name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

RunResult run(const RunOptions& o) {
  RunResult res;
  const Workload& w = o.workload;
  auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "oaf_e2e: %s\n", why.c_str());
    res.correct = false;
    return res;
  };
  const u64 units = w.working_set_bytes / std::max<u64>(w.io_bytes, 1);
  if (w.io_bytes % kBlock != 0 || units <= w.qd) {
    return fail("the working set must hold more I/O units than the QD");
  }

  // Telemetry as oaf_target and oaf_perf set it: attribution on with no
  // SLO, the cycle ledger on, the tracer off.
  telemetry::attribution().configure(telemetry::AttributionOptions{});
  telemetry::prof::cycle_ledger().set_enabled(true);
  telemetry::tracer().set_enabled(false);
  trace::set_on(false);
  trace::reset();

  Node node;
  int reactor_tid[2] = {0, 0};
  run_on(node.client, [&] { reactor_tid[0] = trace::this_tid(); });
  run_on(node.target, [&] { reactor_tid[1] = trace::this_tid(); });
  const int main_tid = trace::this_tid();

  Oracle oracle(w.io_bytes, units, o.seed);
  Rng rng(o.seed);
  ssd::RealDevice device(node.target, kBlock, w.working_set_bytes / kBlock);
  if (auto st = oracle.prefill(device.store()); !st) {
    return fail("prefill: " + st.to_string());
  }

  u64 conn_seq = 0;
  auto conn_name = [&] {
    return "e2e" + std::to_string(::getpid()) + "_" + std::to_string(conn_seq++);
  };
  const double window_s = o.traced ? o.seconds / 2 : o.seconds;
  u64 attempted = 0;
  u64 failed = 0;
  double untraced_iops = 0;

  if (o.fixed_ios == 0) {
    ssd::Subsystem subsystem(kNqn);
    (void)subsystem.add_namespace(kNsid, &device);
    net::InlineCopier client_copier;
    net::InlineCopier target_copier;
    const Plane plane{node.client, node.target, client_copier, target_copier,
                      subsystem};
    std::vector<double> setups;
    std::unique_ptr<Connection> conn;
    for (int k = 0; k < (o.traced ? 1 : kSetups); ++k) {
      conn.reset();
      conn = std::make_unique<Connection>(node, plane, w, conn_name());
      if (!conn->error().empty()) return fail(conn->error());
      setups.push_back(conn->setup_s());
    }
    Measured m = measure(node, conn, oracle, rng, w, window_s, 0, false);
    attempted += m.attempted;
    failed += m.failed;
    untraced_iops = m.iops();
    if (!o.traced) {
      add_end_to_end_metrics(res.metrics, m, setups, main_tid);
    }
  }

  if (o.traced) {
    TimedExecutor client_exec(node.client, Side::kClient, reactor_tid[0]);
    TimedExecutor target_exec(node.target, Side::kTarget, reactor_tid[1]);
    ssd::RealDevice traced_device(target_exec, kBlock,
                                  w.working_set_bytes / kBlock);
    traced_device.store() = std::move(device.store());  // keep the prefill
    TimedDevice timed_device(traced_device);
    ssd::Subsystem subsystem(kNqn);
    (void)subsystem.add_namespace(kNsid, &timed_device);
    net::InlineCopier client_inline;
    net::InlineCopier target_inline;
    CountingCopier client_copier(client_inline, Side::kClient);
    CountingCopier target_copier(target_inline, Side::kTarget);
    const Plane plane{client_exec, target_exec, client_copier, target_copier,
                      subsystem, true};
    auto conn = std::make_unique<Connection>(node, plane, w, conn_name());
    if (!conn->error().empty()) return fail(conn->error());
    Measured m = measure(node, conn, oracle, rng, w, window_s, o.fixed_ios, true);
    attempted += m.attempted;
    failed += m.failed;
    const trace::Totals t = trace::collect();
    if (!o.trace_out.empty()) {
      std::vector<std::pair<int, std::string>> roles = {
          {main_tid, "main"},
          {reactor_tid[0], "client-reactor"},
          {reactor_tid[1], "target-reactor"}};
      if (!trace::write_chrome(o.trace_out, roles)) {
        std::fprintf(stderr, "oaf_e2e: cannot write %s\n", o.trace_out.c_str());
      }
    }

    add_layer_metrics(res.metrics, t, m, reactor_tid, main_tid, untraced_iops);

    for (size_t s = 0; s < 2; ++s) {
      res.channel_pdus[s] = m.c1.channel_pdus[s] - m.c0.channel_pdus[s];
    }
    res.target_commands = m.c1.target_commands - m.c0.target_commands;
  }

  res.attempted = attempted;
  res.failed = failed;
  res.correct = failed == 0;
  add_metric(res.metrics, "fail_ratio",
             static_cast<double>(failed) /
                 static_cast<double>(std::max<u64>(attempted, 1)),
             "ratio");
  if (!o.traced) add_metric(res.metrics, "peak_rss_mib", peak_rss_mib(), "MiB");
  return res;
}

}  // namespace oaf::e2e
