// Telemetry overhead guard: the cost of every hot-path instrumentation
// primitive. The contract (DESIGN.md §9): a counter bump is one relaxed
// fetch_add, a trace record is one relaxed fetch_add plus the seqlock claim
// and publish of one slot, and a disabled attribution record is one relaxed
// load.
#include <benchmark/benchmark.h>

#include "telemetry/attribution.h"
#include "telemetry/prof/alloc_ledger.h"
#include "telemetry/prof/cost_center.h"
#include "telemetry/telemetry.h"

namespace {

using namespace oaf;

// --------------------------------------------------------------------------
// Baseline: the un-instrumented loop body the guards compare against.
// --------------------------------------------------------------------------
void BM_Baseline(benchmark::State& state) {
  u64 x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(++x);
  }
}
BENCHMARK(BM_Baseline);

void BM_CounterInc(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  telemetry::Counter* c = reg.counter("bench_total", "bench");
  for (auto _ : state) {
    c->inc();
  }
  benchmark::DoNotOptimize(c->value());
}
BENCHMARK(BM_CounterInc);

void BM_CounterBumpNullSafe(benchmark::State& state) {
  // The cached-handle path used by instrumented components.
  telemetry::MetricsRegistry reg;
  telemetry::Counter* c = reg.counter("bench_total", "bench");
  for (auto _ : state) {
    telemetry::bump(c);
  }
  benchmark::DoNotOptimize(c->value());
}
BENCHMARK(BM_CounterBumpNullSafe);

void BM_GaugeSet(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  telemetry::Gauge* g = reg.gauge("bench_gauge", "bench");
  i64 v = 0;
  for (auto _ : state) {
    g->set(v++);
  }
  benchmark::DoNotOptimize(g->value());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramRecord(benchmark::State& state) {
  telemetry::MetricsRegistry reg;
  telemetry::HistogramMetric* h = reg.histogram("bench_hist", "bench");
  i64 v = 0;
  for (auto _ : state) {
    h->record(v++ & 0xFFFFF);
  }
}
BENCHMARK(BM_HistogramRecord);

// --------------------------------------------------------------------------
// Tracer: every always-on event site pays one record, tracing on or off.
// --------------------------------------------------------------------------
void BM_TracerRecord(benchmark::State& state) {
  telemetry::TraceRecorder rec(1 << 10);
  TimeNs now = 0;
  for (auto _ : state) {
    rec.instant(1, "bench", "ev", 0, now++);
  }
  benchmark::DoNotOptimize(rec.size());
}
BENCHMARK(BM_TracerRecord);

void BM_TracerCompleteSpan(benchmark::State& state) {
  telemetry::TraceRecorder rec(1 << 10);
  TimeNs now = 0;
  for (auto _ : state) {
    rec.complete(1, "bench", "span", 7, now, 100, "bytes", 4096);
    now += 200;
  }
  benchmark::DoNotOptimize(rec.size());
}
BENCHMARK(BM_TracerCompleteSpan);

// --------------------------------------------------------------------------
// Attribution (DESIGN.md §13). Ledger stamping is plain arithmetic on
// caller-owned state, and a disabled record() is one relaxed load — the
// watchdog has to be cheap enough to leave compiled in on every data path.
// CI gates the enabled/disabled ratio through bench_compare (the
// observability job transforms these cases into an oaf-bench-v1 document).
// --------------------------------------------------------------------------
void BM_AttributionLedgerStamp(benchmark::State& state) {
  // One full I/O lifecycle: reset → two transitions → finalize carve.
  telemetry::StageLedger ledger;
  TimeNs now = 0;
  for (auto _ : state) {
    ledger.reset(now);
    ledger.enter(telemetry::Stage::kEncode, now + 100);
    ledger.enter(telemetry::Stage::kGrant, now + 250);
    ledger.finalize(now + 1000, /*device_ns=*/400, /*target_ns=*/100);
    now += 1000;
  }
  benchmark::DoNotOptimize(ledger.total_ns());
}
BENCHMARK(BM_AttributionLedgerStamp);

void BM_AttributionRecordDisabled(benchmark::State& state) {
  telemetry::Attribution attr;  // never configured: enabled() stays false
  telemetry::StageLedger ledger;
  ledger.reset(0);
  ledger.finalize(1000, 400, 100);
  TimeNs now = 0;
  bool breached = false;
  for (auto _ : state) {
    breached |=
        attr.record(telemetry::OpClass::kRead, ledger, 1000, 7, now++);
  }
  benchmark::DoNotOptimize(breached);
}
BENCHMARK(BM_AttributionRecordDisabled);

void BM_AttributionRecordEnabled(benchmark::State& state) {
  telemetry::Attribution attr;
  telemetry::AttributionOptions opts;
  opts.slo_read_ns = 10'000;  // armed but never breached by the 1 µs I/O
  attr.configure(opts);
  telemetry::StageLedger ledger;
  ledger.reset(0);
  ledger.finalize(1000, 400, 100);
  TimeNs now = 0;
  bool breached = false;
  for (auto _ : state) {
    breached |=
        attr.record(telemetry::OpClass::kRead, ledger, 1000, 7, now++);
  }
  benchmark::DoNotOptimize(breached);
}
BENCHMARK(BM_AttributionRecordEnabled);

// --------------------------------------------------------------------------
// Profiling plane (DESIGN.md §15): the hot-path cost of cost accounting
// itself. Disarmed CostScope must be two TLS stores + one relaxed load;
// armed adds two rdtsc reads + relaxed adds.
// --------------------------------------------------------------------------
void BM_CostScopeDisabled(benchmark::State& state) {
  telemetry::prof::cycle_ledger().set_enabled(false);
  for (auto _ : state) {
    telemetry::prof::CostScope scope(telemetry::Stage::kSubmit);
    benchmark::DoNotOptimize(scope);
  }
}
BENCHMARK(BM_CostScopeDisabled);

void BM_CostScopeEnabled(benchmark::State& state) {
  telemetry::prof::cycle_ledger().set_enabled(true);
  for (auto _ : state) {
    telemetry::prof::CostScope scope(telemetry::Stage::kSubmit);
    benchmark::DoNotOptimize(scope);
  }
  telemetry::prof::cycle_ledger().set_enabled(false);
  telemetry::prof::cycle_ledger().reset_for_test();
}
BENCHMARK(BM_CostScopeEnabled);

void BM_CostScopeEnabledNested(benchmark::State& state) {
  telemetry::prof::cycle_ledger().set_enabled(true);
  for (auto _ : state) {
    telemetry::prof::CostScope outer(telemetry::Stage::kSubmit);
    telemetry::prof::CostScope inner(telemetry::Stage::kEncode);
    benchmark::DoNotOptimize(inner);
  }
  telemetry::prof::cycle_ledger().set_enabled(false);
  telemetry::prof::cycle_ledger().reset_for_test();
}
BENCHMARK(BM_CostScopeEnabledNested);

void BM_AllocLedgerRecord(benchmark::State& state) {
  // The fixed cost the interposer adds to every malloc: a TLS read and two
  // relaxed fetch_adds. (The interposer itself is measured implicitly by
  // every other benchmark in an OAF_PROF build.)
  auto& ledger = telemetry::prof::alloc_ledger();
  for (auto _ : state) {
    ledger.record_alloc(64);
    ledger.record_free();
  }
  ledger.reset_for_test();
}
BENCHMARK(BM_AllocLedgerRecord);

}  // namespace

BENCHMARK_MAIN();
