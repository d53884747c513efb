// The *communication* half of the protocol, cleanly decoupled from the
// *decision* half exactly as the paper prescribes (§III): one decision
// protocol, interchangeable communicators. A communicator only replicates;
// the node orders commits (CommitSequencer below).
//
//  - MuCommunicator: the leader writes each replica's log individually over
//    n direct RDMA connections and aggregates the n ACKs itself (Mu).
//  - P4ceCommunicator: the leader sends one write to the switch, which
//    scatters it and returns a single aggregated ACK; on NAK or timeout it
//    transparently falls back to the Mu path it inherits and periodically
//    probes the switch to regain acceleration (§III-A).
//  - OneSidedCommunicator (one_sided.hpp): verbs atomics, Velos-style.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "consensus/calibration.hpp"
#include "p4ce/tables.hpp"
#include "rdma/cm.hpp"
#include "rdma/completion.hpp"
#include "rdma/nic.hpp"
#include "rdma/qp.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace p4ce::consensus {

/// A replica endpoint from the leader's point of view.
struct ReplicaTarget {
  NodeId id = kInvalidNode;
  Ipv4Addr ip = 0;
  rdma::QueuePair* qp = nullptr;            ///< direct data QP toward this replica
  rdma::CompletionQueue* cq = nullptr;      ///< its completion queue
  u64 log_vaddr = 0;
  RKey log_rkey = 0;
  u64 log_len = 0;
  // The replica's atomics region (frontier + ballot + consensus slots), used
  // only by the one-sided backend (see one_sided.hpp for the layout).
  u64 atomic_vaddr = 0;
  RKey atomic_rkey = 0;
  u64 atomic_len = 0;
  bool excluded = false;
};

/// Releases per-entry commit callbacks strictly in sequence order, no matter
/// which order the communicator resolves them in (the node owns one).
class CommitSequencer {
 public:
  using DoneFn = std::function<void(Status)>;

  void expect(u64 seq, DoneFn done);
  void mark_ready(u64 seq, Status status);
  void set_next(u64 seq) noexcept { next_ = seq; }
  u64 next() const noexcept { return next_; }
  std::size_t outstanding() const noexcept { return ops_.size(); }
  /// Fail everything still outstanding (leader stepping down).
  void flush_all(Status status);

 private:
  void drain();
  struct Op {
    DoneFn done;
    bool ready = false;
    Status status;
  };
  std::map<u64, Op> ops_;
  u64 next_ = 1;
};

class Communicator {
 public:
  using DoneFn = std::function<void(Status)>;

  virtual ~Communicator() = default;

  /// Bring the leader's communication up for `term` (P4CE: the switch group
  /// setup; one-sided: the ballot takeover). `on_ready` fires once, when the
  /// node may recover its log; the communicator is usable either way. Mu
  /// has nothing to set up.
  virtual void start(u64 /*term*/, DoneFn on_ready) { on_ready(Status::ok()); }

  /// Replicate `entry` (already in the leader's log at `offset`) to the
  /// replicas' logs at the same offset; `done` fires exactly once — in any
  /// order across ops — when the entry committed or is known lost.
  virtual void replicate(u64 offset, Bytes entry, u64 seq, DoneFn done) = 0;

  /// Fire-and-forget write to every replica's log (the ring-wrap record).
  /// Ordered before any subsequent replicate() on the same connections;
  /// nothing acknowledges it, a later entry's commit implies it landed.
  virtual void write_raw(u64 offset, Bytes bytes) = 0;

  virtual bool accelerated() const noexcept = 0;

  /// Stop replicating to a crashed replica.
  virtual void exclude_replica(NodeId id) = 0;

  /// Rebind the replica set (a peer (re)connected, or a re-route replaced
  /// every QP). Indices must follow the node's stable peer order.
  virtual void reset_targets(std::vector<ReplicaTarget> targets) = 0;

  /// Drop everything in flight without firing its `done` (the node fails
  /// it through its sequencer: leader stepping down / rerouting).
  virtual void abort_all() = 0;
};

/// The plumbing shared by the backends that talk to each replica over its
/// own direct QP (Mu and one-sided): the target set, completion wiring,
/// exclusion and the unacknowledged wrap-record write.
class DirectCommunicator : public Communicator {
 public:
  DirectCommunicator(const DirectCommunicator&) = delete;
  DirectCommunicator& operator=(const DirectCommunicator&) = delete;

  void write_raw(u64 offset, Bytes bytes) override;
  void exclude_replica(NodeId id) override;
  void reset_targets(std::vector<ReplicaTarget> targets) override;

 protected:
  DirectCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu, const Calibration& cal,
                     std::vector<ReplicaTarget> targets);

  u32 live_target_count() const noexcept;

  /// A completion from target `target_index`'s CQ.
  virtual void on_completion(std::size_t target_index, const rdma::Completion& c) = 0;
  /// Fail every unresolved op if too few replicas remain live.
  virtual void fail_if_quorum_lost() = 0;

  sim::Simulator& sim_;
  sim::CpuExecutor& cpu_;
  Calibration cal_;
  std::vector<ReplicaTarget> targets_;
  /// Expires with us; callbacks that may outlive us (completions on the
  /// node's QPs, CM handshakes) capture a weak_ptr to it and return early.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

 private:
  void wire_completions();
};

// ---------------------------------------------------------------------------

class MuCommunicator : public DirectCommunicator {
 public:
  MuCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu, const Calibration& cal,
                 u32 f_needed, std::vector<ReplicaTarget> targets);

  void replicate(u64 offset, Bytes entry, u64 seq, DoneFn done) override;
  bool accelerated() const noexcept override { return false; }
  void abort_all() override;

 private:
  void on_completion(std::size_t target_index, const rdma::Completion& c) override;
  void fail_if_quorum_lost() override;

  u32 f_needed_;
  struct Pending {
    u32 acks = 0;
    DoneFn done;  ///< empty once resolved
  };
  std::map<u64, Pending> pending_;  // by seq (wr_id)
};

// ---------------------------------------------------------------------------

/// Un-accelerated, it is exactly its MuCommunicator base.
class P4ceCommunicator : public MuCommunicator {
 public:
  /// Callbacks the owning node uses for state changes.
  struct Hooks {
    std::function<void()> on_membership_updated;  ///< switch reconfig done
    /// Replicas may have holes after a NAK-triggered fallback (entries the
    /// switch committed with f other ACKs); the node refills them from its
    /// own log.
    std::function<void()> on_repair_needed;
  };

  P4ceCommunicator(sim::Simulator& sim, sim::CpuExecutor& cpu, const Calibration& cal,
                   u32 f_needed, std::vector<ReplicaTarget> targets, rdma::Nic& nic,
                   Ipv4Addr switch_ip, NodeId self, bool switch_known_dead, Hooks hooks);
  ~P4ceCommunicator() override;

  /// Connect to the switch and set the communication group up (§IV-A);
  /// `on_ready(status)` fires once accelerated, or after giving up, at which
  /// point the communicator is live in fallback mode. With the switch known
  /// dead (§III-A "Faulty switch") it starts un-accelerated at once and
  /// probes for re-acceleration periodically.
  void start(u64 term, DoneFn on_ready) override;

  void replicate(u64 offset, Bytes entry, u64 seq, DoneFn done) override;
  void write_raw(u64 offset, Bytes bytes) override;
  bool accelerated() const noexcept override { return state_ == State::kAccelerated; }
  void exclude_replica(NodeId id) override;
  void abort_all() override;
  void reset_targets(std::vector<ReplicaTarget> targets) override;

  u64 fallback_count() const noexcept { return fallbacks_; }
  u64 reaccelerations() const noexcept { return reaccelerations_; }

 private:
  enum class State { kInactive, kConnecting, kAccelerated, kFallback };

  void activate(u64 term, DoneFn on_ready);
  void on_switch_completion(const rdma::Completion& c);
  void enter_fallback();
  void probe_reacceleration();
  bool member_set_grew() const;

  rdma::Nic& nic_;
  Ipv4Addr switch_ip_;
  NodeId self_;
  bool switch_known_dead_;
  Hooks hooks_;
  u64 term_ = 0;

  State state_ = State::kInactive;
  rdma::CompletionQueue switch_cq_;
  rdma::QueuePair* switch_qp_ = nullptr;
  u64 virtual_base_ = 0;
  RKey virtual_rkey_ = 0;
  Qpn bcast_qpn_ = 0;

  /// The replica set a group request names. Unlike targets_, it keeps a
  /// replica whose own direct QP broke: the switch group still includes it.
  std::vector<ReplicaTarget> members_;
  /// The replica IPs the current/most recent group request named.
  std::vector<Ipv4Addr> group_member_ips_;
  /// Ops in flight on the accelerated path: seq -> (offset, entry) so they
  /// can be replayed through the fallback path after a NAK/timeout.
  struct AccelOp {
    u64 offset;
    Bytes entry;
    DoneFn done;
  };
  std::map<u64, AccelOp> accel_pending_;
  sim::PeriodicTimer reaccel_timer_;
  u64 fallbacks_ = 0;
  u64 reaccelerations_ = 0;
  bool update_in_flight_ = false;
};

}  // namespace p4ce::consensus
