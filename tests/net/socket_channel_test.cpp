#include "net/socket_channel.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "pdu/codec.h"
#include "sim/real_executor.h"

namespace oaf::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Poll `pred` until it holds or `limit` passes; returns whether it held.
template <typename P>
bool wait_until(P pred, std::chrono::seconds limit = std::chrono::seconds(30)) {
  const auto deadline = Clock::now() + limit;
  while (!pred()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Run `f` on `exec`'s reactor thread and wait for it.
template <typename F>
void run_on(Executor& exec, F f) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  exec.post([&] {
    f();
    const std::lock_guard<std::mutex> lk(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return done; });
}

/// A connected AF_UNIX stream pair with a small send buffer on both ends,
/// so a large PDU cannot fit in the kernel at once.
std::pair<int, int> small_buffer_socketpair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int sndbuf = 16 * 1024;
  for (const int fd : fds) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  }
  return {fds[0], fds[1]};
}

pdu::Pdu make_capsule(u16 cid, u64 payload_bytes) {
  pdu::Pdu p;
  pdu::CapsuleCmd c;
  c.cmd.opcode = pdu::NvmeOpcode::kWrite;
  c.cmd.cid = cid;
  c.in_capsule_data = payload_bytes > 0;
  c.data_len = payload_bytes;
  p.header = c;
  p.payload.resize(payload_bytes);
  for (u64 i = 0; i < payload_bytes; ++i) p.payload[i] = static_cast<u8>(i ^ cid);
  return p;
}

TEST(SocketChannelTest, RoundtripOverRealSockets) {
  sim::RealExecutor ea;
  sim::RealExecutor eb;
  auto pair_res = make_socket_channel_pair(ea, eb);
  ASSERT_TRUE(pair_res.is_ok());
  auto [a, b] = std::move(pair_res).take();

  std::atomic<int> got{0};
  std::atomic<bool> payload_ok{false};
  b->set_handler([&](pdu::Pdu p) {
    const auto* c = p.as<pdu::CapsuleCmd>();
    if (c != nullptr && c->cmd.cid == 42 && p.payload.size() == 4096) {
      bool ok = true;
      for (u64 i = 0; i < p.payload.size(); ++i) {
        if (p.payload[i] != static_cast<u8>(i ^ 42)) ok = false;
      }
      payload_ok = ok;
    }
    got++;
  });
  a->send(make_capsule(42, 4096));
  while (got.load() < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(payload_ok.load());
}

TEST(SocketChannelTest, ManyMessagesInOrder) {
  sim::RealExecutor ea;
  sim::RealExecutor eb;
  auto [a, b] = make_socket_channel_pair(ea, eb).take();

  constexpr int kCount = 500;
  std::atomic<int> received{0};
  std::atomic<int> order_errors{0};
  b->set_handler([&](pdu::Pdu p) {
    const int expect = received.load();
    if (p.as<pdu::CapsuleCmd>()->cmd.cid != expect) order_errors++;
    received++;
  });
  for (int i = 0; i < kCount; ++i) a->send(make_capsule(static_cast<u16>(i), 128));
  while (received.load() < kCount) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(order_errors.load(), 0);
}

TEST(SocketChannelTest, LargePayloadFrames) {
  sim::RealExecutor ea;
  sim::RealExecutor eb;
  auto [a, b] = make_socket_channel_pair(ea, eb).take();
  std::atomic<bool> got{false};
  std::atomic<u64> size{0};
  b->set_handler([&](pdu::Pdu p) {
    size = p.payload.size();
    got = true;
  });
  a->send(make_capsule(1, 2 * 1024 * 1024));  // 2 MiB frame
  while (!got.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(size.load(), 2u * 1024 * 1024);
}

TEST(SocketChannelTest, BidirectionalConcurrentTraffic) {
  sim::RealExecutor ea;
  sim::RealExecutor eb;
  auto [a, b] = make_socket_channel_pair(ea, eb).take();
  constexpr int kCount = 200;
  std::atomic<int> a_got{0};
  std::atomic<int> b_got{0};
  a->set_handler([&](pdu::Pdu) { a_got++; });
  b->set_handler([&](pdu::Pdu) { b_got++; });
  std::thread ta([&] {
    for (int i = 0; i < kCount; ++i) a->send(make_capsule(1, 256));
  });
  std::thread tb([&] {
    for (int i = 0; i < kCount; ++i) b->send(make_capsule(2, 256));
  });
  ta.join();
  tb.join();
  while (a_got.load() < kCount || b_got.load() < kCount) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(a_got.load(), kCount);
  EXPECT_EQ(b_got.load(), kCount);
}

TEST(SocketChannelTest, CloseUnblocksPeer) {
  sim::RealExecutor ea;
  sim::RealExecutor eb;
  auto [a, b] = make_socket_channel_pair(ea, eb).take();
  b->set_handler([](pdu::Pdu) {});
  EXPECT_TRUE(a->is_open());
  a->close();
  EXPECT_FALSE(a->is_open());
  // Sending after close is a no-op, not a crash.
  a->send(make_capsule(1, 64));
  SUCCEED();
}

/// Both reactors send 64 MiB to each other from their own threads at once,
/// through 16 KiB socket buffers. Blocking sends would wedge both reactors
/// mid-send with nobody reading; queued non-blocking sends must deliver
/// every PDU, in order.
TEST(SocketChannelTest, CrossSendingReactorsDoNotDeadlock) {
  constexpr int kCount = 64;
  constexpr u64 kBytes = 1024 * 1024;
  sim::RealExecutor ea;
  sim::RealExecutor eb;
  const auto [fa, fb] = small_buffer_socketpair();
  auto a = wrap_stream_fd(fa, ea);
  auto b = wrap_stream_fd(fb, eb);
  struct Side {
    std::atomic<int> got{0};
    std::atomic<int> bad{0};
  };
  Side at_a;
  Side at_b;
  auto check = [](Side& s) {
    return [&s](pdu::Pdu p) {
      const int n = s.got.load();
      const auto* c = p.as<pdu::CapsuleCmd>();
      if (c == nullptr || c->cmd.cid != n || p.payload.size() != kBytes ||
          p.payload.front() != static_cast<u8>(0 ^ n) ||
          p.payload.back() != static_cast<u8>((kBytes - 1) ^ n)) {
        s.bad++;
      }
      s.got++;
    };
  };
  a->set_handler(check(at_a));
  b->set_handler(check(at_b));
  auto flood = [](MsgChannel& ch) {
    for (int i = 0; i < kCount; ++i) {
      ch.send(make_capsule(static_cast<u16>(i), kBytes));
    }
  };
  ea.post([&] { flood(*a); });
  eb.post([&] { flood(*b); });
  EXPECT_TRUE(wait_until([&] {
    return at_a.got.load() == kCount && at_b.got.load() == kCount;
  })) << "a got " << at_a.got.load() << ", b got " << at_b.got.load();
  EXPECT_EQ(at_a.bad.load(), 0);
  EXPECT_EQ(at_b.bad.load(), 0);
}

/// close() right after a send the socket could not take whole: the queued
/// bytes flush first, so the peer sees the whole PDU and then EOF.
TEST(SocketChannelTest, CloseFlushesQueuedSendBeforeEof) {
  constexpr u64 kBytes = 4 * 1024 * 1024;
  sim::RealExecutor ea;
  sim::RealExecutor eb;
  const auto [fa, fb] = small_buffer_socketpair();
  auto a = wrap_stream_fd(fa, ea);
  auto b = wrap_stream_fd(fb, eb);
  std::atomic<u64> got_bytes{0};
  std::atomic<bool> payload_ok{false};
  b->set_handler([&](pdu::Pdu p) {
    bool ok = true;
    for (u64 i = 0; i < p.payload.size(); i += 4093) {
      if (p.payload[i] != static_cast<u8>(i ^ 7)) ok = false;
    }
    payload_ok = ok;
    got_bytes = p.payload.size();
  });
  run_on(ea, [&] {
    a->send(make_capsule(7, kBytes));
    a->close();
  });
  ASSERT_TRUE(wait_until([&] { return !b->is_open(); }));
  // The PDU was handled on b's reactor before it read the EOF.
  EXPECT_EQ(got_bytes.load(), kBytes);
  EXPECT_TRUE(payload_ok.load());
}

/// An endpoint destroyed from a foreign thread while its peer floods it:
/// the reactor may hold readiness events for it, and must not touch it
/// once it is gone (run under ASan/TSan).
TEST(SocketChannelTest, DestroyWhilePeerFloods) {
  sim::RealExecutor ea;
  sim::RealExecutor eb;
  auto [a, b] = make_socket_channel_pair(ea, eb).take();
  std::atomic<int> received{0};
  a->set_handler([&](pdu::Pdu) { received++; });
  b->set_handler([](pdu::Pdu) {});
  std::atomic<bool> flooding{true};
  std::atomic<bool> stopped{false};
  struct Flood {
    static void burst(MsgChannel& ch, Executor& ex, std::atomic<bool>& on,
                      std::atomic<bool>& stopped) {
      if (!on.load()) {
        stopped = true;
        return;
      }
      for (int i = 0; i < 8; ++i) ch.send(make_capsule(1, 16 * 1024));
      ex.schedule_after(20'000, [&ch, &ex, &on, &stopped] {
        burst(ch, ex, on, stopped);
      });
    }
  };
  eb.post([&] { Flood::burst(*b, eb, flooding, stopped); });
  ASSERT_TRUE(wait_until([&] { return received.load() >= 50; }));
  a.reset();  // mid-flood, from the main thread
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  flooding = false;
  ASSERT_TRUE(wait_until([&] { return stopped.load(); }));
  // The peer saw the hang-up.
  EXPECT_TRUE(wait_until([&] { return !b->is_open(); }));
}

/// Every PDU type, with and without header digest: the header+payload
/// gather write puts exactly pdu::encode()'s bytes on the socket.
TEST(SocketChannelTest, GatherSendIsWireIdenticalToEncode) {
  std::vector<pdu::Pdu> pdus;
  auto add = [&](pdu::PduHeader h, u64 payload = 0) {
    pdu::Pdu p;
    p.header = std::move(h);
    p.payload.resize(payload);
    for (u64 i = 0; i < payload; ++i) p.payload[i] = static_cast<u8>(i * 31);
    pdus.push_back(std::move(p));
  };
  pdu::ICReq icreq;
  icreq.node_token = 0x1122334455667788ULL;
  icreq.want_shm = true;
  icreq.trace_ctx = true;
  add(icreq);
  pdu::ICResp icresp;
  icresp.shm_granted = true;
  icresp.shm_name = "/oaf_region";
  icresp.reject_reason = "none";
  add(icresp);
  pdu::CapsuleCmd cmd;
  cmd.cmd.cid = 9;
  cmd.in_capsule_data = true;
  cmd.data_len = 4096;
  add(cmd, 4096);
  pdu::CapsuleResp resp;
  resp.cpl.cid = 9;
  resp.io_time_ns = 1234;
  add(resp);
  pdu::R2T r2t;
  r2t.cid = 3;
  r2t.length = 65536;
  add(r2t);
  pdu::H2CData h2c;
  h2c.cid = 3;
  h2c.length = 1024 * 1024;
  add(h2c, 1024 * 1024);  // larger than the socket buffer: queued, then flushed
  pdu::C2HData c2h;
  c2h.cid = 4;
  c2h.success = true;
  c2h.length = 512;
  add(c2h, 512);
  pdu::TermReq term;
  term.from_host = false;
  term.reason = "evicted";
  add(term);
  term.from_host = true;
  term.fes = 2;
  add(term);
  pdu::KeepAlive ka;
  ka.seq = 77;
  add(ka);
  add(pdu::ShmDemote{"ring health"});
  pdu::AnaLog ana;
  ana.state = pdu::AnaState::kNonOptimized;
  ana.change_seq = 2;
  add(ana);
  pdu::AnomalyReq areq;
  areq.trace_id = 5;
  add(areq);
  pdu::AnomalyResp aresp;
  aresp.event_count = 2;
  add(aresp, 100);
  ASSERT_EQ(pdus.size(), std::variant_size_v<pdu::PduHeader> + 1);  // + TermReq C2H

  for (const bool digest : {false, true}) {
    const pdu::CodecOptions opts{digest};
    sim::RealExecutor exec;
    const auto [fd, raw] = small_buffer_socketpair();
    auto ch = wrap_stream_fd(fd, exec, opts);
    for (const pdu::Pdu& p : pdus) {
      const std::vector<u8> want = pdu::encode(p, opts);
      std::vector<u8> got(want.size());
      // Read concurrently: a frame larger than the socket buffer completes
      // only as the other end drains it.
      std::thread reader([&] {
        for (size_t off = 0; off < got.size();) {
          const ssize_t n = ::read(raw, got.data() + off, got.size() - off);
          if (n <= 0) return;
          off += static_cast<size_t>(n);
        }
      });
      ch->send(p);
      reader.join();
      EXPECT_EQ(got, want) << pdu::to_string(p.type()) << " digest=" << digest;
    }
    ch.reset();
    ::close(raw);
  }
}

/// A typed header longer than the framing buffer (a 40 KB TermReq reason)
/// still arrives whole.
TEST(SocketChannelTest, HeaderLargerThanReadBuffer) {
  sim::RealExecutor ea;
  sim::RealExecutor eb;
  auto [a, b] = make_socket_channel_pair(ea, eb).take();
  const std::string reason(40000, 'r');
  std::atomic<bool> ok{false};
  std::atomic<bool> got{false};
  b->set_handler([&](pdu::Pdu p) {
    const auto* t = p.as<pdu::TermReq>();
    ok = t != nullptr && t->reason == reason;
    got = true;
  });
  pdu::TermReq term;
  term.reason = reason;
  pdu::Pdu p;
  p.header = term;
  a->send(std::move(p));
  ASSERT_TRUE(wait_until([&] { return got.load(); }));
  EXPECT_TRUE(ok.load());
}

/// The receive side reassembles frames however the stream splits them:
/// headers cut mid-field, payloads read in place across many reads, and
/// several PDUs arriving in one read.
TEST(SocketChannelTest, FramesSplitAcrossReadsDecode) {
  sim::RealExecutor exec;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto ch = wrap_stream_fd(fds[0], exec);
  std::vector<pdu::Pdu> got;
  std::mutex mu;
  ch->set_handler([&](pdu::Pdu p) {
    const std::lock_guard<std::mutex> lk(mu);
    got.push_back(std::move(p));
  });
  std::vector<u8> stream;
  const std::vector<u64> sizes = {0, 3, 100000, 17, 0, 40000, 1};
  for (size_t i = 0; i < sizes.size(); ++i) {
    const std::vector<u8> b =
        pdu::encode(make_capsule(static_cast<u16>(i), sizes[i]));
    stream.insert(stream.end(), b.begin(), b.end());
  }
  // Dribble the stream out in uneven pieces, pausing so the reactor reads
  // each piece on its own.
  size_t off = 0;
  for (size_t piece = 1; off < stream.size(); piece = piece * 3 % 7919 + 1) {
    const size_t n = std::min(piece, stream.size() - off);
    ASSERT_EQ(::write(fds[1], stream.data() + off, n), static_cast<ssize_t>(n));
    off += n;
    if (piece % 5 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  ASSERT_TRUE(wait_until([&] {
    const std::lock_guard<std::mutex> lk(mu);
    return got.size() == sizes.size();
  }));
  for (size_t i = 0; i < sizes.size(); ++i) {
    const auto* c = got[i].as<pdu::CapsuleCmd>();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->cmd.cid, i);
    EXPECT_EQ(got[i].payload, make_capsule(static_cast<u16>(i), sizes[i]).payload);
  }
  ch.reset();
  ::close(fds[1]);
}

}  // namespace
}  // namespace oaf::net
