// Span and counter recorder for the traced pass of oaf_e2e.
//
// Every record lands in a per-thread log owned by a process-wide registry,
// so the hot path takes no lock and shares no cache line: a span push/pop,
// a counter add, a latency sample. Spans nest through a per-thread stack;
// when a span closes its duration is charged to its parent's child time, so
// self time (duration minus time covered by child spans on the same thread)
// is exact and kept per span name for the whole window. The first 65536
// spans per thread are also kept verbatim for the Chrome trace export;
// later ones are counted as dropped.
//
// Recording is off by default. While off, every entry point returns after
// one relaxed load — the decorators stay installed through warm-up but
// record only the measured window.
#pragma once

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "common/types.h"
#include "pdu/pdu.h"

namespace oaf::e2e::trace {

enum class Side : u8 { kClient = 0, kTarget = 1 };

/// Span names, one per decorated boundary.
enum class SpanName : u8 {
  kClientTask,     // sim: one task on the client reactor
  kTargetTask,     // sim: one task on the target reactor
  kClientRx,       // nvmf: initiator handling one received PDU
  kTargetRx,       // nvmf: target handling one received PDU
  kClientSend,     // net: client MsgChannel::send
  kTargetSend,     // net: target MsgChannel::send
  kClientSubmit,   // nvmf: one IoSession submit call
  kTargetCpl,      // nvmf: target handling one device completion
  kSsdSubmit,      // ssd: one Device::submit_* call
  kClientCopy,     // af: one client-side Copier::copy
  kTargetCopy,     // af: one target-side Copier::copy
  kHarnessIssue,   // harness: pick, stamp and submit one I/O
  kHarnessCpl,     // harness: one completion (bookkeeping + next issue)
  kHarnessVerify,  // harness: oracle check / shadow update of one I/O
  kCount,
};
inline constexpr size_t kSpanNames = static_cast<size_t>(SpanName::kCount);
const char* name(SpanName s);

enum class Counter : u8 {
  kClientPosts,       // tasks handed to the client executor
  kTargetPosts,       // tasks handed to the target executor
  kClientWireBytes,   // bytes the client channel put on the wire
  kTargetWireBytes,
  kClientCopies,      // Copier::copy calls on the client side
  kTargetCopies,
  kClientCopyBytes,
  kTargetCopyBytes,
  kSsdOps,            // Device::submit_* calls
  kSsdBytes,          // payload bytes handed to / asked of the device
  kMisnested,         // span ends that were not the innermost open span
  kCount,
};
inline constexpr size_t kCounters = static_cast<size_t>(Counter::kCount);

/// PDU types are < 16 (pdu/pdu.h).
inline constexpr size_t kPduTypes = 16;

namespace detail {
extern std::atomic<bool> g_on;
}  // namespace detail

/// True while the measured window is being recorded.
inline bool on() { return detail::g_on.load(std::memory_order_relaxed); }
void set_on(bool recording);

/// Steady-clock nanoseconds (the clock every span and sample uses).
TimeNs now_ns();
/// Kernel thread id of the calling thread.
int this_tid();

void add(Counter c, u64 n = 1);
void count_pdu(Side side, pdu::PduType type);
/// Keep a header copy of `p` (payload by length only) for the codec replay.
void capture_pdu(const pdu::Pdu& p);
/// A task posted from another thread waited `ns` before it started.
void xthread_wait(Side side, DurNs ns);
/// One I/O completed: `io` is the harness's id, `cid` the command id it ran
/// under. Lets the export give every span of that I/O the same id.
void io_done(u64 io, u16 cid, TimeNs submitted, TimeNs completed);

inline constexpr u32 kNoCid = 0xFFFFFFFF;

/// Opaque handle for a span whose end is not lexically scoped.
struct Token {
  i32 depth = -1;  ///< stack slot; -1 = not recorded
};
Token begin(SpanName name, u32 cid = kNoCid);
void end(Token t);

/// RAII span on the calling thread.
class Span {
 public:
  explicit Span(SpanName name, u32 cid = kNoCid) : t_(begin(name, cid)) {}
  ~Span() { end(t_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Token t_;
};

struct SpanTotals {
  u64 count = 0;
  DurNs total_ns = 0;
  DurNs self_ns = 0;
};

struct CapturedPdu {
  pdu::PduType type = pdu::PduType::kICReq;
  pdu::PduHeader header;
  u32 payload_bytes = 0;
};

/// Everything recorded since the last reset(), summed over threads.
struct Totals {
  std::array<SpanTotals, kSpanNames> spans{};
  std::array<u64, kCounters> counters{};
  std::array<std::array<u64, kPduTypes>, 2> pdus{};  ///< [side][type] sent
  std::array<std::vector<u32>, 2> xwait;             ///< [side] samples, ns
  u64 xwait_dropped = 0;
  u64 spans_dropped = 0;
  std::vector<CapturedPdu> captured;

  [[nodiscard]] const SpanTotals& span(SpanName s) const {
    return spans[static_cast<size_t>(s)];
  }
  [[nodiscard]] u64 counter(Counter c) const {
    return counters[static_cast<size_t>(c)];
  }
  [[nodiscard]] u64 pdus_sent(Side s) const;
  [[nodiscard]] u64 pdus_sent(Side s, pdu::PduType t) const {
    return pdus[static_cast<size_t>(s)][static_cast<size_t>(t)];
  }
};

/// Sum every thread's log. Call only while recording is off and every
/// recording thread is idle or joined.
Totals collect();

/// Clear every thread's log (same precondition as collect()).
void reset();

/// Write the stored spans as Chrome trace_event JSON. Each span carries its
/// self time and, where a command id ties it to an I/O, the harness's I/O
/// id. `roles` names threads by kernel tid. Same precondition as collect().
bool write_chrome(const std::string& path,
                  const std::vector<std::pair<int, std::string>>& roles);

}  // namespace oaf::e2e::trace
