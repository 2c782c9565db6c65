// oaflint end-to-end: the real binary over the real tree and over a
// fixture tree with planted violations (DESIGN.md §14).
//
// Three contracts:
//   * the shipped src/ is clean (exit 0) — the same gate CI enforces;
//   * every planted violation class is diagnosed with file:line (exit 1);
//   * --fix repairs exactly the mechanical rules (metric unit suffixes,
//     missing #pragma once, unpaired literal span begins), byte-identical
//     to the checked-in golden files, and leaves the rest flagged.
//
// The binary and tree locations arrive as compile definitions from CMake
// (OAFLINT_BIN, OAFLINT_FIXTURE, OAFLINT_REPO_ROOT).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout only (diagnostics land there)
};

RunResult run_oaflint(const std::string& args) {
  // Per process: ctest -j runs these tests concurrently.
  const fs::path out = fs::temp_directory_path() /
                       ("oaflint_test_out_" + std::to_string(::getpid()) + ".txt");
  const std::string cmd = std::string(OAFLINT_BIN) + " " + args + " > " +
                          out.string() + " 2> /dev/null";
  const int rc = std::system(cmd.c_str());
  RunResult r;
  r.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  std::ifstream in(out);
  std::ostringstream ss;
  ss << in.rdbuf();
  r.output = ss.str();
  return r;
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Recursive copy of the fixture into a scratch dir the test may mutate.
fs::path scratch_fixture() {
  const fs::path dst =
      fs::temp_directory_path() /
      ("oaflint_fix_" + std::to_string(::getpid()));
  fs::remove_all(dst);
  fs::copy(OAFLINT_FIXTURE, dst, fs::copy_options::recursive);
  return dst;
}

TEST(OafLint, RealTreeIsClean) {
  const RunResult r =
      run_oaflint("--root " + std::string(OAFLINT_REPO_ROOT));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "") << "clean run must emit no diagnostics";
}

TEST(OafLint, FixtureViolationsAllDiagnosed) {
  const RunResult r =
      run_oaflint("--root " + std::string(OAFLINT_FIXTURE));
  EXPECT_EQ(r.exit_code, 1);
  // One representative per rule, each with a file:line anchor.
  EXPECT_NE(r.output.find("pdu.h:9: pdu-contract: PduType::kBogusOp has no "
                          "kWireBogusOpBytes"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("pdu-contract: PduType::kBogusOp has no "
                          "round-trip coverage"),
            std::string::npos);
  EXPECT_NE(
      r.output.find("spans.cpp:11: tel-span-pairing: span begin (\"fixture\","
                    " \"op\") has no matching end()"),
      std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find(
                "metrics_def.cpp:9: metric-unit-suffix: counter "
                "\"fixture_ios\" must end in _total"),
            std::string::npos);
  EXPECT_NE(r.output.find("histogram \"fixture_latency\" must carry a unit"),
            std::string::npos);
  EXPECT_NE(r.output.find("gauge \"fixture_depth_total\" must not end"),
            std::string::npos);
  EXPECT_NE(r.output.find("initiator.cpp:6: hot-path-hygiene: naked `new`"),
            std::string::npos);
  EXPECT_NE(r.output.find("initiator.cpp:7: hot-path-hygiene: "
                          "std::function"),
            std::string::npos);
  EXPECT_NE(r.output.find("initiator.cpp:15: hot-path-hygiene: raw `malloc`"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("initiator.cpp:16: hot-path-hygiene: raw `calloc`"),
            std::string::npos);
  EXPECT_NE(r.output.find("initiator.cpp:17: hot-path-hygiene: raw `realloc`"),
            std::string::npos);
  // std::free is deliberately NOT a violation (see check_hot_path).
  EXPECT_EQ(r.output.find("raw `free`"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("noguard.h:1: header-hygiene: header is missing "
                          "#pragma once"),
            std::string::npos);
  EXPECT_NE(r.output.find("header-hygiene: relative #include"),
            std::string::npos);
}

TEST(OafLint, ReportFileMirrorsDiagnostics) {
  const fs::path report =
      fs::temp_directory_path() / "oaflint_test_report.txt";
  fs::remove(report);
  const RunResult r = run_oaflint("--root " + std::string(OAFLINT_FIXTURE) +
                                  " --report " + report.string());
  EXPECT_EQ(r.exit_code, 1);
  const std::string body = slurp(report);
  EXPECT_NE(body.find("violations: 13"), std::string::npos) << body;
  EXPECT_NE(body.find("tel-span-pairing"), std::string::npos);
}

TEST(OafLint, FixRepairsMechanicalRulesToGolden) {
  const fs::path dir = scratch_fixture();
  const RunResult r = run_oaflint("--root " + dir.string() + " --fix");
  // Non-mechanical violations (pdu-contract, hot-path, gauge suffix,
  // relative include) must survive the fix pass.
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("hot-path-hygiene"), std::string::npos);
  EXPECT_NE(r.output.find("pdu-contract"), std::string::npos);
  // Mechanical ones are gone...
  EXPECT_EQ(r.output.find("must end in _total"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("missing #pragma once"), std::string::npos);
  EXPECT_EQ(r.output.find("tel-span-pairing"), std::string::npos);
  // ...and the rewritten files match the checked-in goldens byte for byte.
  const fs::path golden = fs::path(OAFLINT_REPO_ROOT) / "tests/lint/golden";
  EXPECT_EQ(slurp(dir / "src/telemetry/metrics_def.cpp"),
            slurp(golden / "metrics_def.cpp"));
  EXPECT_EQ(slurp(dir / "src/telemetry/spans.cpp"),
            slurp(golden / "spans.cpp"));
  EXPECT_EQ(slurp(dir / "src/common/noguard.h"),
            slurp(golden / "noguard.h"));
  // A second fix pass is a no-op: same diagnostics, files untouched.
  const std::string before = slurp(dir / "src/telemetry/spans.cpp");
  const RunResult again = run_oaflint("--root " + dir.string() + " --fix");
  EXPECT_EQ(again.exit_code, 1);
  EXPECT_EQ(slurp(dir / "src/telemetry/spans.cpp"), before);
  fs::remove_all(dir);
}

TEST(OafLint, UsageErrorsExitTwo) {
  EXPECT_EQ(run_oaflint("--no-such-flag").exit_code, 2);
  EXPECT_EQ(run_oaflint("--root /nonexistent_dir_for_oaflint").exit_code, 2);
}

}  // namespace
