#include "trace.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

namespace oaf::e2e::trace {

namespace detail {
std::atomic<bool> g_on{false};
}  // namespace detail

namespace {

constexpr i32 kMaxDepth = 64;
constexpr size_t kMaxStoredSpans = 1 << 16;   // per thread, for the export
constexpr size_t kMaxWaitSamples = 1 << 22;   // per reactor
constexpr size_t kMaxCapturedPerType = 4096;  // codec replay sample
constexpr size_t kMaxIoRecords = 1 << 18;

struct Frame {
  TimeNs start = 0;
  DurNs child_ns = 0;
  i32 stored = -1;  ///< index into ThreadLog::stored, -1 when not kept
  u32 cid = kNoCid;
  SpanName name = SpanName::kCount;
};

struct Stored {
  TimeNs start = 0;
  TimeNs end = 0;
  i32 parent = -1;
  u32 cid = kNoCid;
  SpanName name = SpanName::kCount;
};

struct IoRecord {
  TimeNs submitted = 0;
  TimeNs completed = 0;
  u64 io = 0;
  u16 cid = 0;
};

/// One thread's records. Written only by its thread; read by collect() and
/// write_chrome() once recording has stopped.
struct ThreadLog {
  int tid = 0;
  std::array<Frame, kMaxDepth> stack{};
  i32 depth = 0;
  std::array<SpanTotals, kSpanNames> spans{};
  std::array<u64, kCounters> counters{};
  std::array<std::array<u64, kPduTypes>, 2> pdus{};
  std::vector<Stored> stored;
  u64 spans_dropped = 0;
  std::array<std::vector<u32>, 2> xwait;
  u64 xwait_dropped = 0;
  std::array<u32, kPduTypes> captured_per_type{};
  std::vector<CapturedPdu> captured;
  std::vector<IoRecord> ios;

  void clear() {
    depth = 0;
    spans = {};
    counters = {};
    pdus = {};
    stored.clear();
    spans_dropped = 0;
    for (auto& w : xwait) w.clear();
    xwait_dropped = 0;
    captured_per_type = {};
    captured.clear();
    ios.clear();
  }
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadLog>> logs;
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local ThreadLog* t_log = nullptr;

ThreadLog& log() {
  if (t_log == nullptr) {
    auto l = std::make_unique<ThreadLog>();
    l->tid = this_tid();
    t_log = l.get();
    Registry& r = registry();
    const std::lock_guard<std::mutex> lk(r.mu);
    r.logs.push_back(std::move(l));
  }
  return *t_log;
}

size_t idx(SpanName s) { return static_cast<size_t>(s); }

}  // namespace

const char* name(SpanName s) {
  switch (s) {
    case SpanName::kClientTask:
      return "sim.client.task";
    case SpanName::kTargetTask:
      return "sim.target.task";
    case SpanName::kClientRx:
      return "nvmf.client.rx";
    case SpanName::kTargetRx:
      return "nvmf.target.rx";
    case SpanName::kClientSend:
      return "net.client.send";
    case SpanName::kTargetSend:
      return "net.target.send";
    case SpanName::kClientSubmit:
      return "nvmf.client.submit";
    case SpanName::kTargetCpl:
      return "nvmf.target.cpl";
    case SpanName::kSsdSubmit:
      return "ssd.submit";
    case SpanName::kClientCopy:
      return "af.client.copy";
    case SpanName::kTargetCopy:
      return "af.target.copy";
    case SpanName::kHarnessIssue:
      return "harness.issue";
    case SpanName::kHarnessCpl:
      return "harness.cpl";
    case SpanName::kHarnessVerify:
      return "harness.verify";
    case SpanName::kCount:
      break;
  }
  return "?";
}

void set_on(bool recording) {
  detail::g_on.store(recording, std::memory_order_relaxed);
}

TimeNs now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int this_tid() {
  thread_local const int tid = static_cast<int>(::gettid());
  return tid;
}

void add(Counter c, u64 n) {
  if (!on()) return;
  log().counters[static_cast<size_t>(c)] += n;
}

void count_pdu(Side side, pdu::PduType type) {
  if (!on()) return;
  const auto t = static_cast<size_t>(type);
  if (t < kPduTypes) log().pdus[static_cast<size_t>(side)][t]++;
}

void capture_pdu(const pdu::Pdu& p) {
  if (!on()) return;
  ThreadLog& l = log();
  const auto t = static_cast<size_t>(p.type());
  if (t >= kPduTypes || l.captured_per_type[t] >= kMaxCapturedPerType) return;
  l.captured_per_type[t]++;
  l.captured.push_back({p.type(), p.header, static_cast<u32>(p.payload.size())});
}

void xthread_wait(Side side, DurNs ns) {
  if (!on()) return;
  ThreadLog& l = log();
  std::vector<u32>& v = l.xwait[static_cast<size_t>(side)];
  if (v.size() >= kMaxWaitSamples) {
    l.xwait_dropped++;
    return;
  }
  if (v.capacity() == 0) v.reserve(kMaxWaitSamples);
  v.push_back(static_cast<u32>(std::clamp<DurNs>(ns, 0, UINT32_MAX)));
}

void io_done(u64 io, u16 cid, TimeNs submitted, TimeNs completed) {
  if (!on()) return;
  ThreadLog& l = log();
  if (l.ios.size() < kMaxIoRecords) {
    l.ios.push_back({submitted, completed, io, cid});
  }
}

Token begin(SpanName name, u32 cid) {
  if (!on()) return {};
  ThreadLog& l = log();
  if (l.depth >= kMaxDepth) {
    l.counters[static_cast<size_t>(Counter::kMisnested)]++;
    return {};
  }
  Frame& f = l.stack[static_cast<size_t>(l.depth)];
  f.name = name;
  f.cid = cid;
  f.child_ns = 0;
  f.stored = -1;
  if (l.stored.size() < kMaxStoredSpans) {
    if (l.stored.capacity() == 0) l.stored.reserve(kMaxStoredSpans);
    const i32 parent =
        l.depth > 0 ? l.stack[static_cast<size_t>(l.depth - 1)].stored : -1;
    f.stored = static_cast<i32>(l.stored.size());
    l.stored.push_back({0, 0, parent, cid, name});
  } else {
    l.spans_dropped++;
  }
  f.start = now_ns();  // last, so the bookkeeping above is not inside it
  return Token{l.depth++};
}

void end(Token t) {
  if (t.depth < 0) return;
  const TimeNs now = now_ns();
  if (t_log == nullptr) return;  // ended on a thread that never began it
  ThreadLog& l = *t_log;
  if (t.depth >= l.depth) {
    // Already unwound by an outer span that closed first.
    l.counters[static_cast<size_t>(Counter::kMisnested)]++;
    return;
  }
  if (t.depth != l.depth - 1) {
    l.counters[static_cast<size_t>(Counter::kMisnested)]++;
  }
  const Frame& f = l.stack[static_cast<size_t>(t.depth)];
  l.depth = t.depth;
  const DurNs dur = now - f.start;
  SpanTotals& acc = l.spans[idx(f.name)];
  acc.count++;
  acc.total_ns += dur;
  acc.self_ns += dur - f.child_ns;
  if (l.depth > 0) l.stack[static_cast<size_t>(l.depth - 1)].child_ns += dur;
  if (f.stored >= 0) {
    Stored& s = l.stored[static_cast<size_t>(f.stored)];
    s.start = f.start;
    s.end = now;
  }
}

u64 Totals::pdus_sent(Side s) const {
  u64 n = 0;
  for (const u64 c : pdus[static_cast<size_t>(s)]) n += c;
  return n;
}

Totals collect() {
  Totals t;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lk(r.mu);
  for (const auto& l : r.logs) {
    for (size_t i = 0; i < kSpanNames; ++i) {
      t.spans[i].count += l->spans[i].count;
      t.spans[i].total_ns += l->spans[i].total_ns;
      t.spans[i].self_ns += l->spans[i].self_ns;
    }
    for (size_t i = 0; i < kCounters; ++i) t.counters[i] += l->counters[i];
    for (size_t s = 0; s < 2; ++s) {
      for (size_t p = 0; p < kPduTypes; ++p) t.pdus[s][p] += l->pdus[s][p];
      t.xwait[s].insert(t.xwait[s].end(), l->xwait[s].begin(),
                        l->xwait[s].end());
    }
    t.xwait_dropped += l->xwait_dropped;
    t.spans_dropped += l->spans_dropped;
    t.captured.insert(t.captured.end(), l->captured.begin(),
                      l->captured.end());
  }
  return t;
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lk(r.mu);
  for (const auto& l : r.logs) l->clear();
}

bool write_chrome(const std::string& path,
                  const std::vector<std::pair<int, std::string>>& roles) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lk(r.mu);

  // cid -> I/Os that ran under it, by submit time.
  std::map<u32, std::vector<IoRecord>> by_cid;
  TimeNs origin = INT64_MAX;
  for (const auto& l : r.logs) {
    for (const IoRecord& io : l->ios) by_cid[io.cid].push_back(io);
    for (const Stored& s : l->stored) origin = std::min(origin, s.start);
  }
  for (auto& [cid, v] : by_cid) {
    std::sort(v.begin(), v.end(), [](const IoRecord& a, const IoRecord& b) {
      return a.submitted < b.submitted;
    });
  }
  auto io_of = [&](u32 cid, TimeNs at) -> i64 {
    const auto it = by_cid.find(cid);
    if (it == by_cid.end()) return -1;
    const auto& v = it->second;
    auto pos = std::upper_bound(
        v.begin(), v.end(), at,
        [](TimeNs t, const IoRecord& rec) { return t < rec.submitted; });
    if (pos == v.begin()) return -1;
    --pos;
    return at <= pos->completed ? static_cast<i64>(pos->io) : -1;
  };

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  u64 dropped = 0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  for (const auto& [tid, role] : roles) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":\"%s\"}}",
                 tid, role.c_str());
  }
  for (const auto& l : r.logs) {
    dropped += l->spans_dropped;
    const size_t n = l->stored.size();
    std::vector<DurNs> child(n, 0);
    std::vector<i64> io(n, -1);
    for (size_t i = 0; i < n; ++i) {
      const Stored& s = l->stored[i];
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    for (size_t i = 0; i < n; ++i) {
      const Stored& s = l->stored[i];
      if (s.end == 0) continue;  // still open when recording stopped
      // Parents are stored before their children, so inheritance is one pass.
      io[i] = s.cid != kNoCid ? io_of(s.cid, s.start)
              : s.parent >= 0 ? io[static_cast<size_t>(s.parent)]
                              : -1;
      const char* nm = name(s.name);
      const std::string cat(nm, std::string_view(nm).find('.'));
      sep();
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":"
                   "%.3f",
                   nm, cat.c_str(), l->tid,
                   static_cast<double>(s.start - origin) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3,
                   static_cast<double>(s.end - s.start - child[i]) / 1e3);
      if (s.cid != kNoCid) std::fprintf(f, ",\"cid\":%u", s.cid);
      if (io[i] >= 0) {
        std::fprintf(f, ",\"io\":%lld", static_cast<long long>(io[i]));
      }
      std::fprintf(f, "}}");
    }
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans_dropped\":%llu}}\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(f) == 0;
}

}  // namespace oaf::e2e::trace
