// oaf_e2e — wall-clock benchmark of the real NVMe-oAF data path.
//
//   oaf_e2e --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//           [--trace-out FILE]
//
// One process, one run: both halves on real reactor threads, loopback TCP
// and a POSIX shm region. Prints `metric NAME VALUE UNIT` lines, then, as
// the last line of stdout, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,
//    "metrics":{NAME:{"value":..,"unit":..},..}}
// --trace 1 reports the per-layer metrics of a decorated (traced) run
// instead of the end-to-end ones; --trace-out also writes its spans as a
// Chrome trace. Exits 1 when any I/O failed, mis-verified or did not drain.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/json.h"
#include "harness.h"

using namespace oaf;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: oaf_e2e --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1] [--trace-out FILE]\nworkloads:");
  for (const e2e::Workload& w : e2e::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunOptions opts;
  const e2e::Workload* workload = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) {
      usage();
      return 2;
    }
    ++i;
    if (arg == "--workload") {
      workload = e2e::find_workload(v);
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(v);
    } else if (arg == "--trace") {
      opts.traced = std::string(v) == "1";
    } else if (arg == "--trace-out") {
      opts.trace_out = v;
    } else {
      usage();
      return 2;
    }
  }
  if (workload == nullptr || opts.seconds <= 0) {
    usage();
    return 2;
  }
  opts.workload = *workload;
  std::printf("oaf_e2e: workload %s seed %llu seconds %g trace %d\n",
              workload->name.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.traced ? 1 : 0);
  std::fflush(stdout);

  const e2e::RunResult res = e2e::run(opts);

  JsonWriter w;
  w.begin_object();
  w.key("correct").value(res.correct);
  w.key("attempted").value(res.attempted);
  w.key("failed").value(res.failed);
  w.key("metrics").begin_object();
  for (const e2e::Metric& m : res.metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return res.correct ? 0 : 1;
}
