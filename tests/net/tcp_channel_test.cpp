#include "net/tcp_channel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "sim/real_executor.h"

namespace oaf::net {
namespace {

pdu::Pdu capsule(u16 cid, u64 payload) {
  pdu::Pdu p;
  pdu::CapsuleCmd c;
  c.cmd.cid = cid;
  c.data_len = payload;
  c.in_capsule_data = payload > 0;
  p.header = c;
  p.payload.resize(payload, static_cast<u8>(cid));
  return p;
}

TEST(TcpChannelTest, ListenConnectRoundtrip) {
  sim::RealExecutor server_exec;
  sim::RealExecutor client_exec;

  auto listener = TcpListener::listen(0).take();
  ASSERT_GT(listener.port(), 0);

  std::unique_ptr<MsgChannel> server_ch;
  std::thread acceptor([&] {
    server_ch = listener.accept(server_exec).take();
  });
  auto client_ch = tcp_connect("127.0.0.1", listener.port(), client_exec).take();
  acceptor.join();
  ASSERT_NE(server_ch, nullptr);

  std::atomic<int> got{0};
  std::atomic<bool> payload_ok{false};
  server_ch->set_handler([&](pdu::Pdu p) {
    const auto* c = p.as<pdu::CapsuleCmd>();
    payload_ok = c != nullptr && c->cmd.cid == 5 && p.payload.size() == 4096 &&
                 p.payload[0] == 5;
    got++;
  });
  client_ch->send(capsule(5, 4096));
  while (got.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(payload_ok.load());

  // And the reverse direction.
  std::atomic<int> back{0};
  client_ch->set_handler([&](pdu::Pdu) { back++; });
  server_ch->send(capsule(9, 0));
  while (back.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(back.load(), 1);
}

TEST(TcpChannelTest, ManyFramesOrdered) {
  sim::RealExecutor server_exec;
  sim::RealExecutor client_exec;
  auto listener = TcpListener::listen(0).take();
  std::unique_ptr<MsgChannel> server_ch;
  std::thread acceptor([&] { server_ch = listener.accept(server_exec).take(); });
  auto client_ch = tcp_connect("127.0.0.1", listener.port(), client_exec).take();
  acceptor.join();

  constexpr int kCount = 300;
  std::atomic<int> received{0};
  std::atomic<int> order_errors{0};
  server_ch->set_handler([&](pdu::Pdu p) {
    if (p.as<pdu::CapsuleCmd>()->cmd.cid != received.load() % 65536) {
      order_errors++;
    }
    received++;
  });
  for (int i = 0; i < kCount; ++i) {
    client_ch->send(capsule(static_cast<u16>(i), 512));
  }
  while (received.load() < kCount) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(order_errors.load(), 0);
}

TEST(TcpChannelTest, ConnectToClosedPortFails) {
  sim::RealExecutor exec;
  // Grab an ephemeral port and release it so nothing listens there.
  u16 dead_port = 0;
  {
    auto l = TcpListener::listen(0).take();
    dead_port = l.port();
  }
  auto res = tcp_connect("127.0.0.1", dead_port, exec);
  EXPECT_FALSE(res.is_ok());
}

TEST(TcpChannelTest, BadAddressRejected) {
  sim::RealExecutor exec;
  auto res = tcp_connect("not-an-ip", 1234, exec);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(TcpChannelTest, PeerCloseDetected) {
  sim::RealExecutor server_exec;
  sim::RealExecutor client_exec;
  auto listener = TcpListener::listen(0).take();
  std::unique_ptr<MsgChannel> server_ch;
  std::thread acceptor([&] { server_ch = listener.accept(server_exec).take(); });
  auto client_ch = tcp_connect("127.0.0.1", listener.port(), client_exec).take();
  acceptor.join();
  server_ch->set_handler([](pdu::Pdu) {});

  client_ch->close();
  // The server's reactor reads the FIN and flips is_open.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_ch->is_open() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(server_ch->is_open());
}

}  // namespace
}  // namespace oaf::net
