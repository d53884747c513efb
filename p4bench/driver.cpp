// Benchmark driver: runs one workload of the repository benchmark in this
// process and prints its raw measurements as one JSON line on stdout.
//
//   p4bench_driver --workload <name> --seed <n> --seconds <s> [--traced]
//
// A run repeats the workload on a fresh cluster ("a rep") while another rep
// fits in `--seconds`. Every rep sees the same seeded inputs, so its
// simulated results must be identical to the first rep's. Host timings are
// reported per rep, and the commit rate per 50 ms slice normalised by the
// calibration loop (calibration.hpp); p4bench/run.py takes medians. The driver only
// uses the public API (Cluster::create/start/run_for, Node::propose,
// Node::set_deliver) and existing public counters; `--traced` additionally
// enables the latency attribution and times the calls into each module from
// here. Any failed output check prints the reason on stderr and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "calibration.hpp"
#include "common/rng.hpp"
#include "consensus/log.hpp"
#include "core/cluster.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "p4ce/dataplane.hpp"
#include "sim/simulator.hpp"

using namespace p4ce;

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point t0) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

double seconds_since(Clock::time_point t0) { return ns_since(t0) / 1e9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  consensus::Mode mode;
  u32 machines;    ///< leader + replicas
  u32 value_size;  ///< bytes per proposed value
  u32 window;      ///< closed loop: clients, one proposal each (0 = open loop)
  double think_ns; ///< closed loop: mean exponential client think time
  double rate;     ///< open loop: Poisson arrivals per simulated second
  u64 warmup;      ///< proposals before the measured phase
  u64 measured;    ///< proposals in the measured phase
  u64 log_size;    ///< bytes of replicated log per host
};

constexpr u64 kMiB = 1ull << 20;

/// Whether a rep's proposals fit in one lap of the log, so it never wraps.
constexpr bool fits_one_lap(const Workload& w) {
  return (w.warmup + w.measured) * consensus::entry_footprint(w.value_size) +
             consensus::kWrapRecordBytes <=
         w.log_size;
}

// mu_large keeps each rep within one lap of a 128 MiB log: once a log of
// multi-segment entries wraps, LogReader::poll (src/consensus/log.cpp)
// accepts the previous lap's commit marker as soon as the first segment of
// the new entry lands, and replicas deliver torn values. mu_large_wrap is
// the same load on the default 64 MiB log; it is not a benchmark workload
// but reproduces that failure (its output check fails) until poll is fixed.
constexpr Workload kWorkloads[] = {
    {"p4ce_small", consensus::Mode::kP4ce, 5, 64, 16, 200, 0, 2'000, 100'000, 64 * kMiB},
    {"mu_large", consensus::Mode::kMu, 3, 8192, 16, 200, 0, 1'000, 14'000, 128 * kMiB},
    {"one_sided_open", consensus::Mode::kOneSided, 3, 64, 0, 0, 0.3e6, 2'000, 180'000, 64 * kMiB},
    {"mu_large_wrap", consensus::Mode::kMu, 3, 8192, 16, 200, 0, 1'000, 20'000, 64 * kMiB},
};
static_assert(fits_one_lap(kWorkloads[1]), "mu_large must not wrap its log");

/// Every option spelled out, so no environment variable or default change
/// elsewhere alters what is measured.
core::ClusterOptions cluster_options(const Workload& w) {
  core::ClusterOptions o;
  o.machines = w.machines;
  o.domains = 1;
  o.mode = w.mode;
  o.lanes = 1;
  o.worker_threads = 1;
  o.link_gbps = 100.0;
  o.link_propagation = 150;
  o.backup_path = true;
  o.log_size = w.log_size;
  o.cal = consensus::Calibration::throughput();
  o.nic = rdma::NicConfig{};
  o.switch_config = sw::SwitchConfig{};
  o.ack_drop_stage = p4::AckDropStage::kIngress;
  return o;
}

// ---------------------------------------------------------------------------
// Output check helpers
// ---------------------------------------------------------------------------

u64 mix64(u64 z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Content hash of a value: eight independent multiply-xorshift lanes over
/// 64-byte blocks, so an 8 KiB value costs about half a microsecond.
u64 digest(BytesView v) {
  constexpr int kLanes = 8;
  u64 h[kLanes];
  for (int lane = 0; lane < kLanes; ++lane) h[lane] = (v.size() + lane) * 0xff51afd7ed558ccdull;
  std::size_t i = 0;
  for (; i + 8 * kLanes <= v.size(); i += 8 * kLanes) {
    for (int lane = 0; lane < kLanes; ++lane) {
      u64 word;
      std::memcpy(&word, v.data() + i + 8 * lane, 8);
      h[lane] = (h[lane] ^ word) * 0x9e3779b97f4a7c15ull;
      h[lane] ^= h[lane] >> 29;
    }
  }
  u64 out = 0;
  for (; i < v.size(); ++i) out = (out << 8 | v[i]) * 0x100000001b3ull;
  for (int lane = 0; lane < kLanes; ++lane) out = (out ^ h[lane]) * 0x9e3779b97f4a7c15ull;
  return mix64(out);
}

/// A value whose every word derives from one seeded 64-bit key, so values
/// differ from each other in every word and large ones stay cheap to make.
Bytes make_value(u32 size, u64 key) {
  Bytes value(size);
  std::size_t i = 0;
  for (; i + 8 <= value.size(); i += 8) {
    const u64 word = key ^ (i * 0x9e3779b97f4a7c15ull);
    std::memcpy(value.data() + i, &word, 8);
  }
  for (; i < value.size(); ++i) value[i] = static_cast<u8>(key >> (8 * (i % 8)));
  return value;
}

/// Running hash of a delivered (seq, value) stream; order-sensitive.
u64 chain(u64 h, u64 seq, u64 value_digest) { return mix64(h ^ mix64(seq + value_digest)); }

/// Host time accumulator for the traced run; free when disabled.
struct HostSpan {
  HostSpan(bool on, double& sink) : sink_(on ? &sink : nullptr) {
    if (sink_ != nullptr) t0_ = Clock::now();
  }
  ~HostSpan() {
    if (sink_ != nullptr) *sink_ += ns_since(t0_);
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  double* sink_;
  Clock::time_point t0_;
};

constexpr double kSliceNs = 50e6;  ///< host ns of simulation per measured slice
constexpr std::size_t kMinSetups = 7;

// ---------------------------------------------------------------------------
// One rep: create, start, warm up, measure, drain, check
// ---------------------------------------------------------------------------

/// A cluster after Cluster::create + start, with both host times and the
/// page-touch calibration taken just before; `cluster` is null when no
/// leader became active.
struct SetUp {
  std::unique_ptr<core::Cluster> cluster;
  double create_s = 0;
  double start_s = 0;
  double touch_s = 0;

  /// create + start, scaled to the reference host's page-fault cost.
  double normalized_s() const {
    return (create_s + start_s) * p4bench::kPageTouchReference / touch_s;
  }
};

SetUp set_up(const Workload& w) {
  SetUp s;
  s.touch_s = p4bench::page_touch_s();
  const auto t0 = Clock::now();
  s.cluster = core::Cluster::create(cluster_options(w));
  s.create_s = seconds_since(t0);
  const auto t1 = Clock::now();
  const bool started = s.cluster->start();
  s.start_s = seconds_since(t1);
  if (!started || s.cluster->leader() == nullptr || s.touch_s <= 0) s.cluster.reset();
  return s;
}

struct RepResult {
  std::map<std::string, double> host;  ///< host-clock measurements
  std::map<std::string, double> sim;   ///< deterministic for a given seed
  /// Per measured slice: commits per host second scaled to the reference
  /// calibration speed, and the calibration speed itself.
  std::vector<double> normalized_rates;
  std::vector<double> calib_ops_per_s;
  u64 attempted = 0;
  u64 failed = 0;
};

/// Registry counters the rep reads, by exact name.
u64 counter(const obs::MetricsRegistry::Snapshot& snap, std::string_view name) {
  for (const auto& s : snap.series) {
    if (s.name == name) return s.count;
  }
  return 0;
}

/// Highest high-water mark of every gauge whose name starts with `prefix`.
double gauge_high_water(const obs::MetricsRegistry::Snapshot& snap, std::string_view prefix) {
  double hw = 0;
  for (const auto& s : snap.series) {
    if (s.kind == obs::MetricsRegistry::Series::Kind::kGauge && s.name.starts_with(prefix)) {
      hw = std::max(hw, s.high_water);
    }
  }
  return hw;
}

/// Object counters sampled at the start and end of the measured phase.
struct Tally {
  u64 events = 0;
  u64 nic_packets = 0;
  u64 rx_overflows = 0;
  u64 wire_bytes = 0;
  u64 switch_pkts = 0;
  u64 switch_drops = 0;
  u64 switch_punts = 0;
  u64 l3_forwarded = 0;

  static Tally take(core::Cluster& c) {
    Tally t;
    t.events = c.sim().events_executed();
    for (u32 i = 0; i < c.size(); ++i) {
      t.nic_packets += c.host(i).nic.packets_sent();
      t.rx_overflows += c.host(i).nic.rx_overflows();
      t.wire_bytes += c.host_tx_wire_bytes(i) + c.host_rx_wire_bytes(i);
    }
    sw::SwitchDevice& s = c.primary_switch();
    for (u32 p = 0; p < s.port_count(); ++p) t.switch_pkts += s.port(p).rx_packets();
    t.switch_drops = s.ingress_drops() + s.egress_drops();
    t.switch_punts = s.punted();
    t.l3_forwarded = c.dataplane().l3_forwarded();
    return t;
  }
};

class Rep {
 public:
  Rep(const Workload& w, u64 seed, bool traced) : w_(w), seed_(seed), traced_(traced) {}

  /// Runs the rep; on a failed check returns the reason.
  std::optional<std::string> run(RepResult& out);

 private:
  struct NodeStream {
    u64 next_seq = 1;
    u64 hash = 0;
    bool gap = false;
  };

  void think_then_propose();
  void arrive();
  void propose_one();
  void on_commit(Status st, u64 seq, u64 value_digest, SimTime proposed_at);
  void on_deliver(u32 node, const consensus::LogEntry& e);
  /// Run the simulation in slices until `done()` or `limit` of simulated time.
  template <class Pred>
  bool run_until(Pred done, Duration limit);

  const Workload& w_;
  u64 seed_;
  bool traced_;
  std::unique_ptr<core::Cluster> cluster_;
  consensus::Node* leader_ = nullptr;
  Rng rng_;

  u64 total_ = 0;  ///< proposals to issue in all
  u64 issued_ = 0;
  u64 thinking_ = 0;  ///< closed-loop clients waiting out their think time
  u64 resolved_ = 0;  ///< commit callbacks + refused proposals
  u64 committed_ = 0;
  u64 failed_ = 0;
  u64 refused_ = 0;
  std::vector<u64> expected_;  ///< value digest by seq - 1, from commit callbacks
  u64 duplicate_seqs_ = 0;
  std::vector<NodeStream> streams_;

  // Measured phase (simulated clock).
  bool measuring_ = false;
  SimTime measure_start_ = 0;
  SimTime last_commit_ = 0;
  u64 measured_commits_ = 0;
  std::vector<Duration> latencies_;

  // Traced-run host accumulators (ns).
  double propose_ns_ = 0;
  double driver_ns_ = 0;
  u64 proposes_timed_ = 0;
};

template <class Pred>
bool Rep::run_until(Pred done, Duration limit) {
  const SimTime deadline = cluster_->now() + limit;
  while (!done()) {
    if (cluster_->now() >= deadline) return false;
    cluster_->run_for(microseconds(100));
  }
  return true;
}

void Rep::propose_one() {
  Bytes value = make_value(w_.value_size, rng_.next_u64());
  const u64 d = digest(value);
  const SimTime at = cluster_->now();
  ++issued_;
  if (issued_ == w_.warmup + 1) {
    // The first measured proposal opens the measured phase.
    measuring_ = true;
    measure_start_ = at;
  }
  const bool measured = measuring_;
  Status st;
  {
    HostSpan span(traced_, propose_ns_);
    st = leader_->propose(std::move(value), [this, d, at, measured](Status s, u64 seq) {
      HostSpan driver(traced_, driver_ns_);
      on_commit(std::move(s), seq, d, measured ? at : -1);
    });
  }
  if (traced_) ++proposes_timed_;
  if (!st.is_ok()) {
    ++refused_;
    ++resolved_;
    if (w_.window > 0) think_then_propose();
  }
}

void Rep::on_commit(Status st, u64 seq, u64 value_digest, SimTime proposed_at) {
  ++resolved_;
  if (!st.is_ok()) {
    ++failed_;
  } else {
    ++committed_;
    if (seq == 0 || seq > expected_.size()) {
      ++duplicate_seqs_;  // outside the proposals made: counted as a check failure
    } else if (expected_[seq - 1] != 0) {
      ++duplicate_seqs_;
    } else {
      expected_[seq - 1] = value_digest | 1;  // 0 marks "not committed"
    }
    if (proposed_at >= 0) {
      const SimTime now = cluster_->now();
      latencies_.push_back(now - proposed_at);
      last_commit_ = now;
      ++measured_commits_;
    }
  }
  if (w_.window > 0) think_then_propose();
}

void Rep::think_then_propose() {
  if (issued_ + thinking_ >= total_) return;
  ++thinking_;
  const auto think = static_cast<Duration>(rng_.next_exponential(w_.think_ns));
  cluster_->sim().schedule(think, [this] {
    HostSpan driver(traced_, driver_ns_);
    --thinking_;
    propose_one();
  });
}

void Rep::arrive() {
  HostSpan driver(traced_, driver_ns_);
  if (issued_ >= total_) return;
  const double gap = rng_.next_exponential(1e9 / w_.rate);
  propose_one();
  cluster_->sim().schedule(static_cast<Duration>(gap) + 1, [this] { arrive(); });
}

void Rep::on_deliver(u32 node, const consensus::LogEntry& e) {
  HostSpan driver(traced_, driver_ns_);
  NodeStream& s = streams_[node];
  if (e.seq != s.next_seq) s.gap = true;
  s.hash = chain(s.hash, e.seq, digest(e.payload) | 1);
  s.next_seq = e.seq + 1;
}

std::optional<std::string> Rep::run(RepResult& out) {
  auto& registry = obs::MetricsRegistry::global();
  registry.reset();
  rng_.reseed(seed_);
  total_ = w_.warmup + w_.measured;
  expected_.assign(total_, 0);

  SetUp setup = set_up(w_);
  if (setup.cluster == nullptr) return "no active leader after start (or page touch failed)";
  cluster_ = std::move(setup.cluster);
  leader_ = cluster_->leader();

  // Everything counted from here on happens after start.
  registry.reset();
  streams_.assign(cluster_->size(), NodeStream{});
  for (u32 i = 0; i < cluster_->size(); ++i) {
    cluster_->node(i).set_deliver([this, i](const consensus::LogEntry& e) { on_deliver(i, e); });
  }

  // Warm-up.
  if (w_.window > 0) {
    for (u32 i = 0; i < w_.window; ++i) think_then_propose();
  } else {
    arrive();
  }
  if (!run_until([&] { return resolved_ >= w_.warmup; }, seconds(10))) {
    return "warm-up did not complete";
  }
  const auto warm = registry.snapshot();
  const u64 faults_in_warmup = counter(warm, "consensus.elections") +
                               counter(warm, "consensus.view_changes") +
                               counter(warm, "consensus.fallbacks");
  registry.reset();
  if (traced_) {
    obs::LatencyAttribution::global().reset();
    propose_ns_ = driver_ns_ = 0;
    proposes_timed_ = 0;
  }

  // Measured phase: host-timed in slices from this slice boundary until
  // every proposal is resolved, with the calibration loop after each slice.
  const Tally before = Tally::take(*cluster_);
  const u64 resolved_before = resolved_;
  const u64 committed_before = committed_;
  const SimTime measure_deadline = cluster_->now() + seconds(60);
  double measure_ns = 0;
  while (resolved_ < total_) {
    if (cluster_->now() >= measure_deadline) return "measured phase did not complete";
    const u64 slice_commits = committed_;
    const auto t_slice = Clock::now();
    double slice_ns = 0;
    do {
      cluster_->run_for(microseconds(100));
      slice_ns = ns_since(t_slice);
    } while (resolved_ < total_ && slice_ns < kSliceNs && cluster_->now() < measure_deadline);
    measure_ns += slice_ns;
    if (slice_ns < kSliceNs / 2) continue;  // the short tail slice is too noisy to keep
    const double rate = static_cast<double>(committed_ - slice_commits) / (slice_ns / 1e9);
    const double calib = p4bench::calibration_ops_per_s();
    out.normalized_rates.push_back(rate * p4bench::kCalibrationReference / calib);
    out.calib_ops_per_s.push_back(calib);
  }
  const Tally after = Tally::take(*cluster_);
  const auto snap = registry.snapshot();
  const u64 window_commits = committed_ - committed_before;
  const u64 window_resolved = resolved_ - resolved_before;

  // Drain: every node must deliver everything that committed.
  run_until(
      [&] {
        for (const auto& s : streams_) {
          if (s.next_seq <= committed_) return false;
        }
        return true;
      },
      milliseconds(100));

  // --- Output check ---------------------------------------------------------
  if (committed_ + failed_ + refused_ != issued_ || issued_ != total_) {
    return "committed + failed != attempted";
  }
  if (duplicate_seqs_ != 0) return "commit callbacks reported duplicate or foreign seqs";
  u64 expected_hash = 0;
  for (u64 seq = 1; seq <= committed_; ++seq) {
    if (expected_[seq - 1] == 0) return "committed seqs are not gapless";
    expected_hash = chain(expected_hash, seq, expected_[seq - 1]);
  }
  for (u32 i = 0; i < cluster_->size(); ++i) {
    const NodeStream& s = streams_[i];
    if (s.gap) return "node " + std::to_string(i) + " delivered a gap";
    if (s.next_seq != committed_ + 1) {
      return "node " + std::to_string(i) + " delivered " + std::to_string(s.next_seq - 1) +
             " of " + std::to_string(committed_) + " committed values";
    }
    if (s.hash != expected_hash) {
      return "node " + std::to_string(i) + " delivered values that differ from the proposals";
    }
  }
  const auto end = registry.snapshot();
  const u64 faults = faults_in_warmup + counter(end, "consensus.elections") +
                     counter(end, "consensus.view_changes") +
                     counter(end, "consensus.fallbacks");
  if (faults != 0) return "election, view change or fallback after start";
  if (cluster_->leader() != leader_) return "leadership moved during the run";
  if (latencies_.size() != measured_commits_ || measured_commits_ == 0) {
    return "no measured commits";
  }

  // --- Measurements -----------------------------------------------------------
  const double commits = static_cast<double>(window_commits);
  const u64 events = after.events - before.events;
  out.attempted = issued_;
  out.failed = failed_ + refused_;

  out.host["create_s"] = setup.create_s;
  out.host["start_s"] = setup.start_s;
  out.host["touch_s"] = setup.touch_s;
  out.host["setup_s"] = setup.normalized_s();
  out.host["raw_host_commits_per_s"] = commits / (measure_ns / 1e9);
  out.host["host_ns_per_event"] = measure_ns / static_cast<double>(events);
  if (traced_) {
    out.host["propose_ns"] = propose_ns_ / static_cast<double>(proposes_timed_);
    // The commit callback encloses the propose it issues; keep them apart.
    out.host["driver_ns_per_commit"] =
        std::max(0.0, driver_ns_ - propose_ns_) / static_cast<double>(window_resolved);
  }

  std::sort(latencies_.begin(), latencies_.end());
  const auto pct = [&](double q) {
    const std::size_t n = latencies_.size();
    const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    return static_cast<double>(latencies_[std::clamp<std::size_t>(rank, 1, n) - 1]) / 1e3;
  };
  auto& sim = out.sim;
  sim["sim_commit_rate_mps"] =
      static_cast<double>(measured_commits_) /
      (static_cast<double>(last_commit_ - measure_start_) / 1e9) / 1e6;
  sim["sim_latency_p50_us"] = pct(0.50);
  sim["sim_latency_p999_us"] = pct(0.999);
  sim["workload.latency_samples"] = static_cast<double>(latencies_.size());
  sim["committed_frac"] = static_cast<double>(committed_) / static_cast<double>(issued_);
  sim["workload.failed_frac"] =
      static_cast<double>(failed_ + refused_) / static_cast<double>(issued_);
  sim["delivered_hash_low32"] = static_cast<double>(expected_hash & 0xffffffffu);

  const auto per_commit = [&](double v) { return v / commits; };
  sim["sim.events_per_commit"] = per_commit(static_cast<double>(events));
  sim["sim.slab_events"] = static_cast<double>(cluster_->sim().event_slab_size());
  sim["net.payload_bytes_copied_per_commit"] =
      per_commit(static_cast<double>(counter(snap, "net.payload_bytes_copied")));
  sim["net.payload_bytes_shared_per_commit"] =
      per_commit(static_cast<double>(counter(snap, "net.payload_bytes_shared")));
  sim["net.wire_bytes_per_commit"] =
      per_commit(static_cast<double>(after.wire_bytes - before.wire_bytes));
  sim["rdma.packets_per_commit"] =
      per_commit(static_cast<double>(after.nic_packets - before.nic_packets));
  sim["rdma.msgs_per_commit"] = per_commit(static_cast<double>(counter(snap, "rdma.qp.msgs_sent")));
  sim["rdma.retransmits"] = static_cast<double>(counter(snap, "rdma.qp.retransmits"));
  sim["rdma.naks_rx"] = static_cast<double>(counter(snap, "rdma.qp.naks_rx"));
  sim["rdma.rx_overflows"] = static_cast<double>(after.rx_overflows - before.rx_overflows);
  sim["rdma.duplicates_rx"] = static_cast<double>(counter(snap, "rdma.qp.duplicates_rx"));
  sim["switchsim.pkts_per_commit"] =
      per_commit(static_cast<double>(after.switch_pkts - before.switch_pkts));
  sim["switchsim.drops"] = static_cast<double>(after.switch_drops - before.switch_drops);
  sim["switchsim.punts"] = static_cast<double>(after.switch_punts - before.switch_punts);
  // The gauge is in ns of parser backlog; at the parser's packet rate that is
  // the number of packets queued ahead of the newest one.
  sim["switchsim.egress_backlog_pkts"] = gauge_high_water(snap, "switch.port.egress_backlog_ns") *
                                         cluster_options(w_).switch_config.parser_pps / 1e9;
  sim["p4ce.scatter_copies_per_commit"] =
      per_commit(static_cast<double>(counter(snap, "switch.p4ce.scatter_copies")));
  sim["p4ce.acks_gathered_per_commit"] =
      per_commit(static_cast<double>(counter(snap, "switch.p4ce.acks_gathered")));
  sim["p4ce.l3_forwarded_per_commit"] =
      per_commit(static_cast<double>(after.l3_forwarded - before.l3_forwarded));
  // Fast/slow commits count from start, so the slot-ring limit (fast
  // commits stop at 2^14 per regime) reads directly.
  const u64 fast = counter(warm, "consensus.one_sided.fast_commits") +
                   counter(snap, "consensus.one_sided.fast_commits");
  const u64 slow = counter(warm, "consensus.one_sided.slow_commits") +
                   counter(snap, "consensus.one_sided.slow_commits");
  sim["consensus.one_sided.fast_commits"] = static_cast<double>(fast);
  sim["consensus.one_sided.slow_commits"] = static_cast<double>(slow);
  sim["consensus.one_sided.fast_fraction"] =
      fast + slow == 0 ? 0.0 : static_cast<double>(fast) / static_cast<double>(fast + slow);
  sim["consensus.one_sided.slot_conflicts_per_commit"] =
      per_commit(static_cast<double>(counter(snap, "consensus.one_sided.slot_conflicts")));
  sim["consensus.elections"] = static_cast<double>(counter(end, "consensus.elections"));
  sim["consensus.view_changes"] = static_cast<double>(counter(end, "consensus.view_changes"));
  sim["consensus.fallbacks"] = static_cast<double>(counter(end, "consensus.fallbacks"));
  if (traced_) {
    // Stage durations of a round sum to its end-to-end latency, so the mean
    // stage times divided by the mean latency split it exactly.
    const auto& attr = obs::LatencyAttribution::global();
    for (u32 s = 0; s < obs::LatencyAttribution::kStageCount; ++s) {
      const auto stage = static_cast<obs::LatencyAttribution::Stage>(s);
      sim[std::string("attr.") + obs::LatencyAttribution::stage_name(stage) + ".share"] =
          attr.stage(stage).mean_ns() / attr.total().mean_ns();
    }
  }

  for (u32 i = 0; i < cluster_->size(); ++i) cluster_->node(i).set_deliver(nullptr);
  cluster_.reset();
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Isolated per-layer timings (traced run only)
// ---------------------------------------------------------------------------

/// Host ns of one no-op schedule + run in a fresh simulator, with the queue
/// about as deep as the workloads keep it (tens of pending events).
double measure_event_ns() {
  constexpr int kDepth = 64;
  constexpr int kBatches = 4'000;
  sim::Simulator sim;
  std::vector<double> samples;
  for (int r = 0; r < 7; ++r) {
    const auto t0 = Clock::now();
    for (int b = 0; b < kBatches; ++b) {
      for (int i = 0; i < kDepth; ++i) sim.schedule(i, [] {});
      sim.run();
    }
    samples.push_back(ns_since(t0) / (kDepth * kBatches));
  }
  return median(samples);
}

/// Host ns per P4ceDataplane::ingress and ::egress call on a 4-replica
/// group, in the per-commit mix the switch sees: one request and four ACKs
/// through ingress, four scatter copies and one forwarded ACK through egress.
std::optional<std::string> measure_dataplane(double& ingress_ns, double& egress_ns) {
  constexpr Ipv4Addr kSwitchIp = net::make_ip(1, 1);
  constexpr Ipv4Addr kLeaderIp = net::make_ip(0, 10);
  constexpr u32 kReplicas = 4;
  constexpr u32 kBlock = 128;  // PSNs in flight, within the 256 NumRecv slots
  constexpr u32 kBlocks = 40;

  p4::P4ceDataplane dp{kSwitchIp};
  for (u32 i = 0; i <= kReplicas; ++i) {
    std::ignore = dp.add_route(net::make_ip(0, static_cast<u8>(10 + i)), i);
  }
  p4::GroupSpec spec;
  spec.group_idx = 0;
  spec.mcast_group_id = 100;
  spec.bcast_qpn = 0x8000;
  spec.aggr_qpn = 0xc000;
  spec.f_needed = (kReplicas + 1) / 2;
  spec.virtual_rkey = 0x1234;
  spec.leader = p4::LeaderEndpoint{kLeaderIp, 0xE1, 0x111, 0};
  for (u32 r = 0; r < kReplicas; ++r) {
    p4::ConnectionEntry conn;
    conn.ip = net::make_ip(0, static_cast<u8>(11 + r));
    conn.mac = 0xE2 + r;
    conn.qpn = 0x200 + r;
    conn.port = 1 + r;
    conn.vaddr = 0x7000'0000ull + r * 0x10000;
    conn.buffer_len = 1 << 20;
    conn.rkey = 0x5000 + r;
    conn.psn_delta = r * 1000;
    spec.replicas.push_back(conn);
  }
  if (!dp.install_group(spec).is_ok()) return "dataplane group install failed";

  double in_ns = 0, eg_ns = 0;
  u64 in_calls = 0, eg_calls = 0;
  Psn psn = 0;
  for (u32 b = 0; b < kBlocks; ++b) {
    std::vector<sw::PacketContext> requests(kBlock);
    for (u32 i = 0; i < kBlock; ++i) {
      net::Packet& p = requests[i].packet;
      p.ip.src = kLeaderIp;
      p.ip.dst = kSwitchIp;
      p.bth.opcode = rdma::Opcode::kWriteOnly;
      p.bth.dest_qp = spec.bcast_qpn;
      p.bth.psn = psn_add(psn, i);
      p.bth.ack_request = true;
      p.reth = rdma::Reth{0x40, spec.virtual_rkey, 64};
      p.payload = Bytes(64, 0);
    }
    auto t0 = Clock::now();
    for (auto& ctx : requests) dp.ingress(ctx);
    in_ns += ns_since(t0);
    in_calls += kBlock;

    std::vector<sw::PacketContext> copies;
    copies.reserve(kBlock * kReplicas);
    for (const auto& ctx : requests) {
      if (!ctx.mcast_group) return "dataplane did not scatter a request";
      for (u16 rid = 0; rid < kReplicas; ++rid) {
        sw::PacketContext copy = ctx;
        copy.replication_id = rid;
        copy.egress_port = spec.replicas[rid].port;
        copies.push_back(std::move(copy));
      }
    }
    t0 = Clock::now();
    for (auto& ctx : copies) dp.egress(ctx);
    eg_ns += ns_since(t0);
    eg_calls += copies.size();

    std::vector<sw::PacketContext> acks;
    acks.reserve(kBlock * kReplicas);
    for (u32 i = 0; i < kBlock; ++i) {
      for (u32 r = 0; r < kReplicas; ++r) {
        sw::PacketContext ctx;
        net::Packet& p = ctx.packet;
        p.ip.src = spec.replicas[r].ip;
        p.ip.dst = kSwitchIp;
        p.bth.opcode = rdma::Opcode::kAcknowledge;
        p.bth.dest_qp = spec.aggr_qpn;
        p.bth.psn = psn_add(psn_add(psn, i), spec.replicas[r].psn_delta);
        rdma::Aeth aeth;
        aeth.credits = 20;
        p.aeth = aeth;
        acks.push_back(std::move(ctx));
      }
    }
    t0 = Clock::now();
    for (auto& ctx : acks) dp.ingress(ctx);
    in_ns += ns_since(t0);
    in_calls += acks.size();

    std::vector<sw::PacketContext> forwarded;
    for (auto& ctx : acks) {
      if (!ctx.drop) forwarded.push_back(std::move(ctx));
    }
    if (forwarded.size() != kBlock) return "dataplane did not forward one ACK per request";
    t0 = Clock::now();
    for (auto& ctx : forwarded) dp.egress(ctx);
    eg_ns += ns_since(t0);
    eg_calls += forwarded.size();
    psn = psn_add(psn, kBlock);
  }
  ingress_ns = in_ns / static_cast<double>(in_calls);
  egress_ns = eg_ns / static_cast<double>(eg_calls);
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_map(std::string& out, const std::map<std::string, std::vector<double>>& m) {
  out += "{";
  for (auto it = m.begin(); it != m.end(); ++it) {
    out += (it == m.begin() ? "\"" : ", \"") + it->first + "\": [";
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (i > 0) out += ", ";
      append_number(out, it->second[i]);
    }
    out += "]";
  }
  out += "}";
}

void append_map(std::string& out, const std::map<std::string, double>& m) {
  out += "{";
  for (auto it = m.begin(); it != m.end(); ++it) {
    out += (it == m.begin() ? "\"" : ", \"") + it->first + "\": ";
    append_number(out, it->second);
  }
  out += "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: p4bench_driver "
               "--workload <p4ce_small|mu_large|one_sided_open|mu_large_wrap> "
               "--seed <n> --seconds <s> [--traced]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  u64 seed = 0;
  double budget_s = 0;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--traced") {
      traced = true;
    } else if (i + 1 < argc && arg == "--workload") {
      workload_name = argv[++i];
    } else if (i + 1 < argc && arg == "--seed") {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (i + 1 < argc && arg == "--seconds") {
      budget_s = std::strtod(argv[++i], nullptr);
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr || budget_s <= 0) return usage();

  if (traced) {
    obs::Tracer::global().enable_attribution(1);
    obs::LatencyAttribution::global().enable();
  }

  // Reps on identical inputs while another one fits in the time budget (at
  // least one).
  std::map<std::string, std::vector<double>> host;
  std::map<std::string, double> sim;
  u64 attempted = 0, failed = 0, reps = 0;
  const auto t_run = Clock::now();
  double last_rep_s = 0;
  do {
    const auto t_rep = Clock::now();
    RepResult r;
    Rep rep(*workload, seed, traced);
    if (auto err = rep.run(r)) {
      std::fprintf(stderr, "p4bench: %s rep %llu: output check failed: %s\n", workload->name,
                   static_cast<unsigned long long>(reps), err->c_str());
      return 1;
    }
    if (reps == 0) {
      sim = r.sim;
    } else if (r.sim != sim) {
      std::fprintf(stderr,
                   "p4bench: %s rep %llu: simulated results differ from rep 0 on the same "
                   "seed\n",
                   workload->name, static_cast<unsigned long long>(reps));
      return 1;
    }
    for (const auto& [k, v] : r.host) host[k].push_back(v);
    auto& rates = host["host_commits_per_s"];
    rates.insert(rates.end(), r.normalized_rates.begin(), r.normalized_rates.end());
    auto& calib = host["calib_ops_per_s"];
    calib.insert(calib.end(), r.calib_ops_per_s.begin(), r.calib_ops_per_s.end());
    attempted += r.attempted;
    failed += r.failed;
    ++reps;
    last_rep_s = seconds_since(t_rep);
  } while (seconds_since(t_run) + last_rep_s <= budget_s);

  // Set-up time is a median of several set-ups, also when the reps were few.
  auto& setups = host["setup_s"];
  while (setups.size() < kMinSetups) {
    const SetUp s = set_up(*workload);
    if (s.cluster == nullptr) {
      std::fprintf(stderr, "p4bench: %s: no active leader after start (or page touch failed)\n",
                   workload->name);
      return 1;
    }
    host["create_s"].push_back(s.create_s);
    host["start_s"].push_back(s.start_s);
    host["touch_s"].push_back(s.touch_s);
    setups.push_back(s.normalized_s());
  }

  if (traced) {
    host["sim.event_ns"].push_back(measure_event_ns());
    double ingress_ns = 0, egress_ns = 0;
    if (auto err = measure_dataplane(ingress_ns, egress_ns)) {
      std::fprintf(stderr, "p4bench: dataplane timing: %s\n", err->c_str());
      return 1;
    }
    host["p4ce.ingress_ns"].push_back(ingress_ns);
    host["p4ce.egress_ns"].push_back(egress_ns);
  }

  rusage usage_info{};
  getrusage(RUSAGE_SELF, &usage_info);
  host["peak_rss_mb"].push_back(static_cast<double>(usage_info.ru_maxrss) * 1024.0 / 1e6);

  std::string out = "{\"workload\": \"" + std::string(workload->name) +
                    "\", \"traced\": " + (traced ? "true" : "false") +
                    ", \"reps\": " + std::to_string(reps) +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"host\": ";
  append_map(out, host);
  out += ", \"sim\": ";
  append_map(out, sim);
  out += "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
