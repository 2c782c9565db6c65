// oaf_storm: seeded, replayable overload soak (DESIGN.md §12).
//
// A deterministic virtual-time session that drives one NvmfTargetService far
// past its configured budgets and proves the overload layer degrades
// gracefully instead of falling over:
//
//   - N greedy clients, each pushing a closed-loop write storm at several
//     times the target's admitted queue depth (kQueueFull backpressure),
//   - one slow client that wins admission and then never delivers its data
//     (stall detection -> eviction -> recovery -> replay),
//   - one client beyond the connect admission cap (explicit ICResp reject),
//   - a mid-soak cable kill on one greedy client's channel
//     (net::FaultChannel::kill_at, reconnect + replay under pressure).
//
// Invariants checked at the end of the run — any violation is counted in
// `invariants_failed` and fails the process:
//
//   1. every submitted I/O completed exactly once (no lost, no duplicated),
//   2. no I/O failed (backpressure is retryable, never an error),
//   3. the global staging budget's peak never exceeded its capacity,
//   4. every staging charge was released (in_use == 0 when quiescent),
//   5. the overload machinery actually engaged (rejects/evictions > 0).
//
// Every completion is folded into an order-sensitive FNV-1a sequence hash;
// the same --seed must reproduce the same hash bit-for-bit, which CI checks
// by running the soak twice. Output is a single JSON object on stdout.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "net/fault_channel.h"
#include "net/pipe_channel.h"
#include "nvmf/initiator.h"
#include "nvmf/target_service.h"
#include "sim/scheduler.h"
#include "ssd/real_device.h"

using namespace oaf;

namespace {

struct Options {
  u64 seed = 42;
  u64 clients = 4;        // greedy writers
  u64 ios_per_client = 200;
  u64 queue_depth = 16;   // per greedy client (admitted cap is far lower)
  u64 max_inflight = 4;   // per-connection admitted command cap
  u64 global_staging_kib = 64;
  u64 kill_at_pdu = 500;  // cable kill on client 0's first channel
  std::string shed_policy = "oldest";
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--clients N] [--ios N] [--qd N]\n"
      "          [--max-inflight N] [--global-staging-kib N]\n"
      "          [--kill-at-pdu N] [--shed-policy oldest|fair]\n",
      argv0);
}

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--seed" && (v = value())) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--clients" && (v = value())) {
      opts.clients = std::strtoull(v, nullptr, 10);
    } else if (arg == "--ios" && (v = value())) {
      opts.ios_per_client = std::strtoull(v, nullptr, 10);
    } else if (arg == "--qd" && (v = value())) {
      opts.queue_depth = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-inflight" && (v = value())) {
      opts.max_inflight = std::strtoull(v, nullptr, 10);
    } else if (arg == "--global-staging-kib" && (v = value())) {
      opts.global_staging_kib = std::strtoull(v, nullptr, 10);
    } else if (arg == "--kill-at-pdu" && (v = value())) {
      opts.kill_at_pdu = std::strtoull(v, nullptr, 10);
    } else if (arg == "--shed-policy" && (v = value())) {
      opts.shed_policy = v;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  return opts.clients > 0 && opts.ios_per_client > 0 && opts.queue_depth > 0;
}

/// Order-sensitive FNV-1a over the completion stream: same seed, same
/// admission/shed/retry interleaving, same hash.
struct SequenceHash {
  u64 h = 0xcbf29ce484222325ULL;
  void fold(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

/// Closed-loop greedy writer: keeps `queue_depth` writes outstanding until
/// its quota is spent, tallying per-I/O completion counts for the
/// exactly-once ledger.
struct GreedyClient {
  nvmf::NvmfInitiator* init = nullptr;
  u64 id = 0;
  u64 quota = 0;
  u64 qd = 0;
  u64 issued = 0;
  u64 ok = 0;
  u64 failed = 0;
  std::vector<u32> fires;      // per-I/O completion count
  std::vector<u8> payload;
  SequenceHash* hash = nullptr;
  u64* completion_counter = nullptr;

  void pump() {
    while (issued < quota && issued - (ok + failed) < qd) {
      const u64 idx = issued++;
      // Disjoint LBA ranges per client; 8 blocks per 4 KiB I/O.
      const u64 slba = (id * quota + idx) * 8;
      init->write(1, slba, payload, [this, idx](nvmf::NvmfInitiator::IoResult r) {
        fires[idx]++;
        (r.ok() ? ok : failed)++;
        hash->fold((id << 32) | idx);
        hash->fold(static_cast<u64>(r.cpl.status));
        hash->fold((*completion_counter)++);
        pump();
      });
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return 2;

  sim::Scheduler sched;
  net::InlineCopier copier;
  af::ShmBroker broker(1);
  ssd::RealDevice device(sched, 512, 1 << 20);
  ssd::Subsystem subsystem("nqn.storm");
  (void)subsystem.add_namespace(1, &device);

  nvmf::TargetServiceOptions sopts;
  sopts.af = af::AfConfig::oaf();
  sopts.max_conns = static_cast<u32>(opts.clients) + 1;  // greedy + slow
  sopts.reject_retry_after_ms = 1;
  sopts.max_inflight_cmds = static_cast<u32>(opts.max_inflight);
  sopts.global_staging_bytes = opts.global_staging_kib * 1024;
  sopts.shed_policy = nvmf::parse_shed_policy(opts.shed_policy);
  sopts.stall_timeout_ns = 5'000'000;  // 5 ms virtual: slow client dies fast
  nvmf::NvmfTargetService service(sched, copier, broker, subsystem, sopts);

  // Deterministic fault seeds derive from --seed; dial order is fixed by
  // the virtual-time scheduler, so each dial's channel is reproducible.
  u64 dials = 0;
  auto dial = [&](const std::string& name,
                  bool kill_first) -> std::unique_ptr<net::MsgChannel> {
    dials++;
    net::FaultPolicy p;
    p.seed = opts.seed + dials * 1000;
    auto [c, t] =
        net::wrap_fault_pair(net::make_pipe_channel_pair(sched, sched), p);
    net::FaultChannel* raw = c.get();
    service.accept(std::move(t), name);
    if (kill_first) raw->kill_at(opts.kill_at_pdu);
    return std::move(c);
  };

  auto storm_iopts = [&](const std::string& name) {
    nvmf::InitiatorOptions iopts;
    iopts.af = af::AfConfig::stock_tcp();
    iopts.queue_depth = static_cast<u32>(opts.queue_depth);
    iopts.connection_name = name;
    iopts.reconnect.max_attempts = 20;
    iopts.reconnect.initial_backoff_ns = 1'000'000;
    iopts.reconnect.handshake_timeout_ns = 10'000'000;
    iopts.reconnect.max_command_retries = 128;
    iopts.command_timeout_ns = 50'000'000;
    return iopts;
  };

  SequenceHash hash;
  u64 completion_counter = 0;

  // Greedy writers. Client 0's *first* channel gets the mid-soak cable
  // kill; its reconnect replays the displaced writes under full pressure.
  std::vector<std::unique_ptr<nvmf::NvmfInitiator>> inits;
  std::vector<GreedyClient> clients(opts.clients);
  for (u64 i = 0; i < opts.clients; ++i) {
    const std::string name = "storm.c" + std::to_string(i);
    u64 client_dials = 0;
    inits.push_back(std::make_unique<nvmf::NvmfInitiator>(
        sched,
        [&dial, name, i, client_dials]() mutable {
          client_dials++;
          return dial(name, i == 0 && client_dials == 1);
        },
        copier, broker, storm_iopts(name)));
    GreedyClient& c = clients[i];
    c.init = inits.back().get();
    c.id = i;
    c.quota = opts.ios_per_client;
    c.qd = opts.queue_depth;
    c.fires.assign(opts.ios_per_client, 0);
    c.payload.assign(4096, static_cast<u8>(0xA0 + i));
    c.hash = &hash;
    c.completion_counter = &completion_counter;
    c.init->connect([](Status) {});
  }

  // The slow client: admitted, then drops every H2CData PDU of its 32 KiB
  // write — the stalled command squats on target state until the overload
  // tick evicts the association; the fresh post-eviction channel (no fault)
  // replays it to completion.
  u64 slow_dials = 0;
  auto slow_init = std::make_unique<nvmf::NvmfInitiator>(
      sched,
      [&dial, slow_dials]() mutable -> std::unique_ptr<net::MsgChannel> {
        slow_dials++;
        auto c = dial("storm.slow", false);
        if (slow_dials == 1) {
          static_cast<net::FaultChannel*>(c.get())->set_fault(
              [](pdu::Pdu& p) { return p.type() != pdu::PduType::kH2CData; });
        }
        return c;
      },
      copier, broker, storm_iopts("storm.slow"));
  u32 slow_fires = 0;
  u64 slow_ok = 0;
  std::vector<u8> slow_payload(32768, 0x5C);
  slow_init->connect([](Status) {});

  // One client past the connect cap: admission control answers with an
  // explicit retryable verdict and the client gives up (no reconnect).
  nvmf::InitiatorOptions extra_iopts = storm_iopts("storm.extra");
  extra_iopts.reconnect.max_attempts = 0;
  auto extra_init = std::make_unique<nvmf::NvmfInitiator>(
      sched, [&dial] { return dial("storm.extra", false); }, copier, broker,
      extra_iopts);
  bool extra_rejected = false;

  // Choreography, all in virtual time: connect everyone, launch the storm,
  // and run the overload tick (stall eviction + shed ladder) every 1 ms
  // until the soak drains.
  sched.run();
  bool draining = false;
  std::function<void()> tick = [&] {
    service.overload_tick();
    if (!draining) sched.schedule_after(1'000'000, tick);
  };
  sched.schedule_after(1'000'000, [&] {
    for (auto& c : clients) c.pump();
    slow_init->write(1, 1 << 16, slow_payload,
                     [&](nvmf::NvmfInitiator::IoResult r) {
                       slow_fires++;
                       if (r.ok()) slow_ok++;
                       hash.fold(0x5103ULL << 32);
                       hash.fold(static_cast<u64>(r.cpl.status));
                       hash.fold(completion_counter++);
                     });
    extra_init->connect([&](Status st) {
      extra_rejected = !st.is_ok();
    });
    tick();
  });

  // Drain watchdog: once every ledger entry is resolved, stop re-arming the
  // tick so the virtual run can quiesce.
  std::function<void()> watch = [&] {
    u64 resolved = 0;
    for (const auto& c : clients) resolved += c.ok + c.failed;
    const bool all_done =
        resolved == opts.clients * opts.ios_per_client && slow_fires > 0;
    if (all_done) {
      draining = true;
      return;
    }
    sched.schedule_after(1'000'000, watch);
  };
  sched.schedule_after(2'000'000, watch);
  sched.run();

  // --- ledger + invariants -------------------------------------------------
  u64 completed = 0;
  u64 failed = 0;
  u64 lost = 0;
  u64 duplicated = 0;
  for (const auto& c : clients) {
    completed += c.ok;
    failed += c.failed;
    for (const u32 f : c.fires) {
      if (f == 0) lost++;
      if (f > 1) duplicated++;
    }
  }
  completed += slow_ok;
  if (slow_fires == 0) lost++;
  if (slow_fires > 1) duplicated++;

  u64 queue_full_received = 0;
  u64 queue_full_retries = 0;
  for (const auto& init : inits) {
    queue_full_received += init->resilience().queue_full_received;
    queue_full_retries += init->resilience().queue_full_retries;
  }
  const af::StagingPool& budget = service.global_staging();

  u64 invariants_failed = 0;
  auto check = [&](bool okay, const char* what) {
    if (!okay) {
      invariants_failed++;
      std::fprintf(stderr, "INVARIANT FAILED: %s\n", what);
    }
  };
  check(lost == 0, "every submitted I/O completed");
  check(duplicated == 0, "no I/O completed twice");
  check(failed == 0, "backpressure never surfaced as an error");
  check(slow_ok == 1, "the evicted slow client's write replayed to success");
  check(budget.peak() <= budget.capacity(), "staging peak within budget");
  check(budget.in_use() == 0, "all staging charges released");
  check(service.queue_full_rejects() > 0, "kQueueFull backpressure engaged");
  check(queue_full_retries > 0, "initiators retried through kQueueFull");
  check(service.evictions() > 0, "the slow client was evicted");
  check(extra_rejected && service.connects_rejected() > 0,
        "the over-cap client was rejected at connect");

  // Fold the end-state counters in too: a run that completed the same I/Os
  // via a different admission/shed sequence must still hash differently.
  hash.fold(service.queue_full_rejects());
  hash.fold(service.commands_shed());
  hash.fold(service.evictions());
  hash.fold(service.connects_rejected());

  std::printf(
      "{\"schema\":\"oaf-storm-v1\",\"seed\":%llu,\"clients\":%llu,"
      "\"ios_per_client\":%llu,\"queue_depth\":%llu,"
      "\"shed_policy\":\"%s\",\"completed\":%llu,\"failed\":%llu,"
      "\"lost\":%llu,\"duplicated\":%llu,"
      "\"queue_full_rejects\":%llu,\"queue_full_received\":%llu,"
      "\"queue_full_retries\":%llu,\"commands_shed\":%llu,"
      "\"evictions\":%llu,\"connects_rejected\":%llu,"
      "\"staging_peak_bytes\":%llu,\"staging_capacity_bytes\":%llu,"
      "\"staging_in_use_end\":%llu,\"virtual_ns\":%llu,"
      "\"invariants_failed\":%llu,\"sequence_hash\":\"%016llx\"}\n",
      static_cast<unsigned long long>(opts.seed),
      static_cast<unsigned long long>(opts.clients),
      static_cast<unsigned long long>(opts.ios_per_client),
      static_cast<unsigned long long>(opts.queue_depth),
      opts.shed_policy.c_str(),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(lost),
      static_cast<unsigned long long>(duplicated),
      static_cast<unsigned long long>(service.queue_full_rejects()),
      static_cast<unsigned long long>(queue_full_received),
      static_cast<unsigned long long>(queue_full_retries),
      static_cast<unsigned long long>(service.commands_shed()),
      static_cast<unsigned long long>(service.evictions()),
      static_cast<unsigned long long>(service.connects_rejected()),
      static_cast<unsigned long long>(budget.peak()),
      static_cast<unsigned long long>(budget.capacity()),
      static_cast<unsigned long long>(budget.in_use()),
      static_cast<unsigned long long>(sched.now()),
      static_cast<unsigned long long>(invariants_failed),
      static_cast<unsigned long long>(hash.h));
  return invariants_failed == 0 ? 0 : 1;
}
