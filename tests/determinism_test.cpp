// Determinism: two clusters built from identical options and driven by the
// same fig5-style workload must commit the same operations in the same
// simulated time and execute the exact same number of kernel events. This
// pins the (when, seq) FIFO tie-break and the allocation-free event core:
// any hidden ordering dependence (pointer order, hash order, recycled-slot
// order) shows up here as a diverging event count. The chaos cases extend
// the same contract to seeded crash schedules under load.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "obs/attribution.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "workload/generators.hpp"

namespace p4ce {
namespace {

struct Outcome {
  u64 operations = 0;
  u64 failed = 0;
  Duration elapsed = 0;
  u64 events = 0;
  SimTime end_time = 0;
  u64 leader_tx_bytes = 0;
};

Outcome run_fig5_style(consensus::Mode mode) {
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = mode;
  auto cluster = core::Cluster::create(options);
  EXPECT_TRUE(cluster->start());
  const u32 value_size = 512;
  const u32 batch = 16;
  const u64 write_bytes = static_cast<u64>(batch) * consensus::entry_footprint(value_size);
  const auto result = workload::run_batched_goodput(
      *cluster, value_size, batch, workload::safe_window(write_bytes), /*batches=*/300,
      /*warmup=*/50);
  Outcome out;
  out.operations = result.operations;
  out.failed = result.failed;
  out.elapsed = result.elapsed;
  out.events = cluster->sim().events_executed();
  out.end_time = cluster->now();
  out.leader_tx_bytes = cluster->host_tx_wire_bytes(0);
  return out;
}

class DeterminismTest : public ::testing::TestWithParam<consensus::Mode> {};

TEST_P(DeterminismTest, IdenticalRunsAreBitForBitEqual) {
  const Outcome first = run_fig5_style(GetParam());
  const Outcome second = run_fig5_style(GetParam());
  EXPECT_GT(first.operations, 0u);
  EXPECT_EQ(first.operations, second.operations);
  EXPECT_EQ(first.failed, second.failed);
  EXPECT_EQ(first.elapsed, second.elapsed);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.end_time, second.end_time);
  EXPECT_EQ(first.leader_tx_bytes, second.leader_tx_bytes);
}

// Every event callable is built in its slab slot, and the per-packet hop
// closures fit the slot's inline buffer, so a cluster runs its setup and a
// few hundred commits without a single heap-allocated event. The run's
// event count is pinned exactly: a packet costs three events (switch
// ingress, link-to-NIC delivery, NIC rx), and any hop that comes back, or
// any event added per commit, shows up here.
TEST_P(DeterminismTest, CommitsWithoutHeapAllocatedEvents) {
  const obs::Counter& allocs = obs::MetricsRegistry::global().counter("sim.events_alloc");
  const u64 before = allocs.value();
  core::ClusterOptions options;
  options.machines = 3;
  options.mode = GetParam();
  auto cluster = core::Cluster::create(options);
  ASSERT_TRUE(cluster->start());
  const u64 events_before = cluster->sim().events_executed();
  const auto result = workload::run_closed_loop(*cluster, /*value_size=*/64, /*window=*/16,
                                                /*ops=*/300, /*warmup=*/50);
  const u64 events = cluster->sim().events_executed() - events_before;
  EXPECT_GE(result.operations, 300u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(allocs.value(), before);
  const u64 expected = GetParam() == consensus::Mode::kP4ce  ? 4945u
                       : GetParam() == consensus::Mode::kMu ? 6695u
                                                            : 10895u;
  EXPECT_EQ(events, expected) << static_cast<double>(events) / 350.0 << " events per commit (warm-up included)";
}

INSTANTIATE_TEST_SUITE_P(Modes, DeterminismTest,
                         ::testing::Values(consensus::Mode::kP4ce, consensus::Mode::kMu,
                                           consensus::Mode::kOneSided));

// The single-bool guard discipline: with attribution, sampling, and the
// flight recorder all disabled, a run is byte-identical to one where the
// observability code was never built in — same event count included. With
// them enabled, the sampler adds its own tick events (so the executed-event
// count legitimately grows) but observation never mutates protocol state, so
// every protocol-visible outcome stays bit-for-bit equal.
TEST_P(DeterminismTest, ObservabilityHooksDoNotPerturbTheProtocol) {
  const Outcome baseline = run_fig5_style(GetParam());

  obs::Tracer::global().enable_attribution();
  obs::LatencyAttribution::global().enable();
  obs::LatencyAttribution::global().reset();
  obs::Sampler::global().enable(/*period=*/microseconds(100));
  obs::FlightRecorder::global().enable();
  obs::FlightRecorder::global().reset();
  const Outcome observed = run_fig5_style(GetParam());

  EXPECT_GT(obs::LatencyAttribution::global().rounds(), 0u);
  EXPECT_GT(obs::Sampler::global().frame_count(), 0u);

  obs::Tracer::global().disable();
  obs::Tracer::global().clear();
  obs::LatencyAttribution::global().disable();
  obs::LatencyAttribution::global().reset();
  obs::Sampler::global().disable();
  obs::Sampler::global().reset();
  obs::FlightRecorder::global().disable();
  obs::FlightRecorder::global().reset();
  const Outcome disabled = run_fig5_style(GetParam());

  // Observed run: protocol outcome untouched (events excluded — the sampler
  // schedules its own ticks).
  EXPECT_EQ(observed.operations, baseline.operations);
  EXPECT_EQ(observed.failed, baseline.failed);
  EXPECT_EQ(observed.elapsed, baseline.elapsed);
  EXPECT_EQ(observed.end_time, baseline.end_time);
  EXPECT_EQ(observed.leader_tx_bytes, baseline.leader_tx_bytes);

  // Disabled run: byte-identical, events and all.
  EXPECT_EQ(disabled.operations, baseline.operations);
  EXPECT_EQ(disabled.failed, baseline.failed);
  EXPECT_EQ(disabled.elapsed, baseline.elapsed);
  EXPECT_EQ(disabled.events, baseline.events);
  EXPECT_EQ(disabled.end_time, baseline.end_time);
  EXPECT_EQ(disabled.leader_tx_bytes, baseline.leader_tx_bytes);
}

// --- Chaos: seeded crash schedules are bit-for-bit repeatable ---------------

struct ChaosOutcome {
  u64 committed = 0;
  u64 max_committed_seq = 0;
  u64 proposals = 0;
  SimTime end_time = 0;
  std::vector<u64> delivered;  // per surviving node

  bool operator==(const ChaosOutcome&) const = default;
};

ChaosOutcome run_chaos(u64 seed) {
  Rng rng(seed);
  core::ClusterOptions options;
  options.machines = 5;
  options.mode = consensus::Mode::kP4ce;
  options.cal = consensus::Calibration::failover();
  auto cluster = core::Cluster::create(options);
  EXPECT_TRUE(cluster->start());
  sim::Simulator& sim = cluster->sim();

  std::set<u64> committed_seqs;
  u64 proposals = 0;

  // Load pump: one proposal to the current leader every 25 us.
  auto pump = std::make_shared<std::function<void()>>();
  *pump = [&cluster, &committed_seqs, &proposals, pump] {
    if (consensus::Node* leader = cluster->leader()) {
      ++proposals;
      std::ignore = leader->propose(Bytes(64, static_cast<u8>(proposals)),
                                    [&committed_seqs](Status st, u64 seq) {
                                      if (st.is_ok()) committed_seqs.insert(seq);
                                    });
    }
    cluster->sim().schedule(microseconds(25), [pump] { (*pump)(); });
  };
  sim.schedule(microseconds(5), [pump] { (*pump)(); });

  // Fault schedule: one or two distinct machines crash at seeded times.
  const u32 machine_crashes = 1 + static_cast<u32>(rng.next_below(2));
  std::set<u32> killed;
  for (u32 k = 0; k < machine_crashes; ++k) {
    u32 victim;
    do {
      victim = static_cast<u32>(rng.next_below(5));
    } while (killed.contains(victim));
    killed.insert(victim);
    const Duration delay = 2'000'000 + static_cast<Duration>(rng.next_below(10'000'000));
    sim.schedule(delay, [&cluster, victim] { cluster->crash_node(victim); });
  }

  cluster->run_for(milliseconds(15));
  cluster->run_for(milliseconds(60));
  cluster->run_for(milliseconds(5));  // drain deliveries
  *pump = nullptr;  // break the self-referential keep-alive cycle (no runs after)

  ChaosOutcome out;
  out.committed = committed_seqs.size();
  out.max_committed_seq = committed_seqs.empty() ? 0 : *committed_seqs.rbegin();
  out.proposals = proposals;
  out.end_time = cluster->now();
  for (u32 i = 0; i < 5; ++i) {
    if (killed.contains(i)) continue;
    out.delivered.push_back(cluster->node(i).last_delivered_seq());
  }

  // Safety: no committed value may be lost by any survivor.
  for (u64 d : out.delivered) {
    EXPECT_GE(d, out.max_committed_seq) << "survivor lost committed entries (seed " << seed << ")";
  }
  EXPECT_GT(out.committed, 0u) << "nothing committed (seed " << seed << ")";
  return out;
}

class ChaosDeterminismTest : public ::testing::TestWithParam<u64> {};

TEST_P(ChaosDeterminismTest, FaultSchedulesAreBitForBitRepeatable) {
  const ChaosOutcome first = run_chaos(GetParam());
  const ChaosOutcome second = run_chaos(GetParam());
  EXPECT_EQ(first, second) << "seed " << GetParam() << " not repeatable";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosDeterminismTest,
                         ::testing::Values(11, 23, 37, 41, 53, 67, 79, 97));

}  // namespace
}  // namespace p4ce
