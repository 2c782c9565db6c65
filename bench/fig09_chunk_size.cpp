// Figure 9: finding the optimal application-level chunk size for NVMe/TCP
// over 25 Gbps — random reads at several I/O sizes while sweeping the chunk
// size, plus the target memory a chunk-sized staging buffer per queue slot
// pins (the reason 512 KiB is "ideal": near-peak bandwidth at a fraction of
// 2 MiB's memory bill).
#include "bench_report.h"
#include "bench_util.h"

using namespace oaf;
using namespace oaf::bench;

int main(int argc, char** argv) {
  BenchReport report("fig09_chunk_size");
  const RigOptions opts = opts_with_tcp(tcp_25g());
  const std::vector<u64> chunks = {64 * kKiB, 128 * kKiB, 256 * kKiB,
                                   512 * kKiB, 1 * kMiB, 2 * kMiB};
  const std::vector<u64> ios = {128 * kKiB, 512 * kKiB, 1 * kMiB, 2 * kMiB};

  Table t("Fig 9: NVMe/TCP-25G random read bandwidth (MiB/s) vs chunk size");
  std::vector<std::string> header{"Chunk"};
  for (const u64 io : ios) header.push_back(std::to_string(io / kKiB) + "KiB IO");
  header.push_back("pool memory (MiB)");
  t.header(header);

  for (const u64 chunk : chunks) {
    std::vector<std::string> row{std::to_string(chunk / kKiB) + "KiB"};
    for (const u64 io : ios) {
      WorkloadSpec spec = paper_defaults().with_io(io).with_mix(1.0, false);
      spec.working_set_bytes = 4 * kGiB;

      sim::Scheduler sched;
      af::AfConfig cfg = af::AfConfig::stock_tcp();
      cfg.chunk_bytes = chunk;
      Rig rig(sched, opts, {StreamSpec{Transport::kTcpStock, spec, cfg}});
      const auto stats = rig.run();
      row.push_back(mib(Rig::aggregate_mib_s(stats)));
    }
    // Staging memory: one chunk-sized buffer per queue slot.
    row.push_back(Table::num(
        static_cast<double>(chunk * 128) / static_cast<double>(kMiB), 0));
    t.row(row);
  }
  t.print();
  report.add_table(t);

  std::printf(
      "\nPaper shape check: small chunks hurt bandwidth (per-PDU overhead);\n"
      "512 KiB reaches ~peak for every stream while pinning 4x less memory\n"
      "than 2 MiB — the adaptive choice for this fabric.\n");
  return finish_bench(report, argc, argv);
}
