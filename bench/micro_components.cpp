// Component micro-benchmarks on the functional plane (real memory, real
// atomics, real codec) via google-benchmark: the building blocks whose cost
// structure the timing plane's models encode.
#include <benchmark/benchmark.h>

#include <cstring>

#include "af/buffer_manager.h"
#include "pdu/codec.h"
#include "pdu/crc32.h"
#include "shm/double_buffer.h"
#include "shm/region.h"
#include "shm/spsc_queue.h"

namespace {

using namespace oaf;

// --------------------------------------------------------------------------
// Lock-free double buffer: full produce/consume cycle per iteration.
// --------------------------------------------------------------------------
void BM_DoubleBufferCycle(benchmark::State& state) {
  const u64 payload = static_cast<u64>(state.range(0));
  auto region = shm::ShmRegion::anonymous(
                    shm::DoubleBufferRing::required_bytes(payload, 8))
                    .take();
  auto ring =
      shm::DoubleBufferRing::create(region.data(), region.size(), payload, 8)
          .take();
  std::vector<u8> data(payload, 0x5A);
  const auto dir = shm::Direction::kClientToTarget;
  u64 seq = 0;
  for (auto _ : state) {
    const u32 slot = ring.slot_for(seq++);
    benchmark::DoNotOptimize(ring.acquire(dir, slot));
    auto buf = ring.slot_data(dir, slot);
    std::memcpy(buf.data(), data.data(), payload);
    benchmark::DoNotOptimize(ring.publish(dir, slot, payload));
    auto view = ring.consume(dir, slot);
    benchmark::DoNotOptimize(view);
    benchmark::DoNotOptimize(ring.release(dir, slot));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(payload));
}
BENCHMARK(BM_DoubleBufferCycle)->Arg(4096)->Arg(128 * 1024)->Arg(512 * 1024);

// Zero-copy variant: no client memcpy, only slot state transitions — the
// §4.4.3 saving measured directly.
void BM_DoubleBufferZeroCopyCycle(benchmark::State& state) {
  const u64 payload = static_cast<u64>(state.range(0));
  auto region = shm::ShmRegion::anonymous(
                    shm::DoubleBufferRing::required_bytes(payload, 8))
                    .take();
  auto ring =
      shm::DoubleBufferRing::create(region.data(), region.size(), payload, 8)
          .take();
  const auto dir = shm::Direction::kClientToTarget;
  u64 seq = 0;
  for (auto _ : state) {
    const u32 slot = ring.slot_for(seq++);
    benchmark::DoNotOptimize(ring.acquire(dir, slot));
    // Application "fills" in place: the buffer IS the slot.
    benchmark::DoNotOptimize(ring.publish(dir, slot, payload));
    auto view = ring.consume(dir, slot);
    benchmark::DoNotOptimize(view);
    benchmark::DoNotOptimize(ring.release(dir, slot));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(payload));
}
BENCHMARK(BM_DoubleBufferZeroCopyCycle)->Arg(128 * 1024)->Arg(512 * 1024);

// --------------------------------------------------------------------------
// SPSC notification queue.
// --------------------------------------------------------------------------
void BM_SpscQueuePushPop(benchmark::State& state) {
  shm::SpscQueue<u64> q(1024);
  u64 v = 0;
  for (auto _ : state) {
    q.push(v);
    q.pop(v);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SpscQueuePushPop);

// --------------------------------------------------------------------------
// Target staging pool: one admission's acquire (charge, recycle, zero) and
// release under a connection pool with a target-wide parent.
// --------------------------------------------------------------------------
void BM_StagingPoolAcquireRelease(benchmark::State& state) {
  const u64 len = static_cast<u64>(state.range(0));
  af::StagingPool global("global", 0);
  af::StagingPool conn("conn", 0, &global);
  for (auto _ : state) {
    auto b = conn.acquire(len);
    benchmark::DoNotOptimize(b.value().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(len));
}
BENCHMARK(BM_StagingPoolAcquireRelease)->Arg(4096)->Arg(128 * 1024);

// --------------------------------------------------------------------------
// PDU codec + CRC32C.
// --------------------------------------------------------------------------
void BM_PduEncodeDecodeControl(benchmark::State& state) {
  pdu::Pdu p;
  pdu::C2HData c;
  c.length = 128 * 1024;
  c.placement = pdu::DataPlacement::kShmSlot;
  c.shm_slot = 7;
  p.header = c;
  for (auto _ : state) {
    auto bytes = pdu::encode(p);
    auto decoded = pdu::decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_PduEncodeDecodeControl);

void BM_PduEncodeDecodeWithPayload(benchmark::State& state) {
  const u64 payload = static_cast<u64>(state.range(0));
  pdu::Pdu p;
  pdu::C2HData c;
  c.length = payload;
  p.header = c;
  p.payload.resize(payload, 0xAB);
  for (auto _ : state) {
    auto bytes = pdu::encode(p);
    auto decoded = pdu::decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(payload));
}
BENCHMARK(BM_PduEncodeDecodeWithPayload)->Arg(4096)->Arg(128 * 1024);

void BM_Crc32c(benchmark::State& state) {
  std::vector<u8> data(static_cast<size_t>(state.range(0)), 0x3C);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pdu::crc32c(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(128 * 1024);

}  // namespace

BENCHMARK_MAIN();
