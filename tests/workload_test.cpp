// Workload-harness tests: the generators that drive every bench must
// themselves be trustworthy — window discipline, measurement accounting,
// open-loop rate fidelity, burst timing, and the in-flight-PSN guard — and
// the BenchSession export every bench's JSON artefacts go through.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "obs/trace.hpp"
#include "workload/generators.hpp"
#include "workload/report.hpp"

namespace p4ce::workload {
namespace {

std::unique_ptr<core::Cluster> make_cluster() {
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = consensus::Mode::kP4ce;
  auto cluster = core::Cluster::create(options);
  EXPECT_TRUE(cluster->start());
  return cluster;
}

TEST(SafeWindow, RespectsNumRecvCapacity) {
  // The switch aggregates 256 in-flight PSNs (§IV-C): window * packets-per-
  // write must stay below that.
  EXPECT_EQ(safe_window(64), 16u);            // 1 packet -> full window
  EXPECT_EQ(safe_window(1024), 16u);          // 1 packet
  EXPECT_EQ(safe_window(16 * 1024), 16u);     // 16 packets -> 256/16 = 16
  EXPECT_EQ(safe_window(32 * 1024), 8u);      // 32 packets -> 8
  EXPECT_EQ(safe_window(256 * 1024), 1u);     // 256 packets -> 1
  EXPECT_EQ(safe_window(1024 * 1024), 1u);    // never zero
}

TEST(ClosedLoop, CountsExactlyTheMeasuredOps) {
  auto cluster = make_cluster();
  const auto result = run_closed_loop(*cluster, 64, 8, 2000, 100);
  EXPECT_EQ(result.operations, 2000u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.ops_per_sec, 0.0);
  EXPECT_GT(result.p50_latency_us, 0.0);
  EXPECT_LE(result.p50_latency_us, result.p99_latency_us);
}

TEST(ClosedLoop, GoodputScalesWithValueSize) {
  auto cluster = make_cluster();
  const auto small = run_closed_loop(*cluster, 64, 8, 2000, 100);
  auto cluster2 = make_cluster();
  const auto big = run_closed_loop(*cluster2, 4096, 8, 2000, 100);
  EXPECT_GT(big.goodput_gbps, 10 * small.goodput_gbps);
}

TEST(BatchedGoodput, AccountsValueBytesOnly) {
  auto cluster = make_cluster();
  const auto result = run_batched_goodput(*cluster, 512, 16, 8, 1000, 50);
  EXPECT_EQ(result.operations, 16u * 1000u);
  // goodput * elapsed == value bytes.
  const double bytes = result.goodput_gbps * 1e9 * to_seconds(result.elapsed);
  EXPECT_NEAR(bytes, 16.0 * 1000 * 512, 16.0 * 1000 * 512 * 0.01);
}

TEST(OpenLoop, AchievedTracksOfferedBelowSaturation) {
  auto cluster = make_cluster();
  const auto result = run_open_loop(*cluster, 64, 500e3, milliseconds(10), milliseconds(1));
  EXPECT_NEAR(result.ops_per_sec, 500e3, 50e3);
  EXPECT_GT(result.p50_latency_us, 1.0);
  EXPECT_LT(result.p50_latency_us, 10.0);
}

TEST(OpenLoop, SaturationCapsAchievedAndBlowsUpLatency) {
  auto cluster = make_cluster();
  const auto result = run_open_loop(*cluster, 64, 5e6, milliseconds(10), milliseconds(1));
  EXPECT_LT(result.ops_per_sec, 2.6e6);  // capacity, not the offered 5M
  EXPECT_GT(result.p50_latency_us, 100.0);
}

TEST(Burst, CompletionTimeGrowsWithBurstSize) {
  auto cluster = make_cluster();
  const auto small = run_burst(*cluster, 64, 4, 20);
  const auto big = run_burst(*cluster, 64, 64, 20);
  EXPECT_GT(small.mean_burst_us, 0.0);
  EXPECT_GT(big.mean_burst_us, 2 * small.mean_burst_us);
  EXPECT_EQ(big.burst, 64u);
}

TEST(Report, TableFormatsRows) {
  Table table("demo", {"a", "bee"});
  table.add_row({"1", "2"});
  table.add_row({"wide-cell", "3"});
  table.print();  // visual only; must not crash
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
}

/// Points P4CE_BENCH_DIR at a fresh temporary directory and clears the
/// other export knobs, so each case sees exactly the files one session wrote.
class BenchSessionExport : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = (std::filesystem::temp_directory_path() / "p4ce_bench_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    ::setenv("P4CE_BENCH_DIR", dir_.c_str(), 1);
    ::unsetenv("P4CE_BENCH_JSON");
    ::unsetenv("P4CE_TRACE");
    ::unsetenv("P4CE_TRACE_SAMPLE");
  }
  void TearDown() override {
    ::unsetenv("P4CE_BENCH_DIR");
    ::unsetenv("P4CE_BENCH_JSON");
    ::unsetenv("P4CE_TRACE");
    obs::Tracer::global().disable();
    obs::Tracer::global().clear();
    std::filesystem::remove_all(dir_);
  }

  std::string read(const std::string& file) const {
    std::ifstream in(dir_ / file);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
  std::vector<std::string> files() const {
    std::vector<std::string> out;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      out.push_back(entry.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::filesystem::path dir_;
};

TEST_F(BenchSessionExport, WritesTheBenchEnvelope) {
  {
    BenchSession session("unit");
    session.add_value("ratio", 0.5);
    Table table("demo", {"a"});
    table.add_row({"1"});
    session.add_table(table);
  }
  ASSERT_EQ(files(), std::vector<std::string>{"BENCH_unit.json"});
  const std::string json = read("BENCH_unit.json");
  EXPECT_NE(json.find("\"schema\": \"p4ce-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"ratio\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"title\": \"demo\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
}

TEST_F(BenchSessionExport, TracingAddsTheTraceAndNoMetricsFile) {
  ::setenv("P4CE_TRACE", "1", 1);
  {
    BenchSession session("unit");
    auto cluster = make_cluster();
    run_closed_loop(*cluster, 64, 4, 50, 10);
  }
  ASSERT_EQ(files(), (std::vector<std::string>{"BENCH_unit.json", "TRACE_unit.json"}));
  const std::string trace = read("TRACE_unit.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"round\""), std::string::npos);
  EXPECT_NE(trace.find("\"leader.ack_rx\""), std::string::npos);
}

TEST_F(BenchSessionExport, BenchJsonZeroWritesNothing) {
  ::setenv("P4CE_BENCH_JSON", "0", 1);
  ::setenv("P4CE_TRACE", "1", 1);
  {
    BenchSession session("unit");
    session.add_value("ratio", 0.5);
  }
  EXPECT_TRUE(files().empty());
}

}  // namespace
}  // namespace p4ce::workload
