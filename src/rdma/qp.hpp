// Reliable-connection (RC) queue pair state machine: MTU segmentation, PSN
// sequencing, ACK/NAK generation and processing, credit-based flow control,
// go-back-N retransmission with timeouts — the full transport P4CE's switch
// has to stay transparent to.
#pragma once

#include <deque>
#include <functional>
#include <optional>

#include "common/status.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "net/packet.hpp"
#include "rdma/completion.hpp"
#include "rdma/headers.hpp"
#include "rdma/memory.hpp"
#include "sim/simulator.hpp"

namespace p4ce::rdma {

class Nic;

enum class QpState : u8 { kReset, kInit, kRtr, kRts, kError };

std::string_view to_string(QpState s) noexcept;

/// One work request (ibv_send_wr equivalent). `opcode` picks the operation:
/// kWriteOnly for any RDMA write (segmented by the QP as needed),
/// kReadRequest, or an atomic opcode.
struct WorkRequest {
  u64 wr_id = 0;
  Opcode opcode = Opcode::kWriteOnly;
  u64 remote_vaddr = 0;
  RKey rkey = 0;
  /// Writes: the bytes, owned (moved in) or shared with other posts.
  /// Segmentation slices MTU-sized views of this one buffer, so mutating
  /// the caller's buffer after posting cannot alter in-flight packets.
  net::PayloadRef payload{};
  u32 read_len = 0;     ///< reads: bytes to fetch from remote_vaddr
  AtomicArgs atomic{};  ///< atomics: operands (CAS swaps in `swap_add`)
  bool signaled = true;
};

struct QpConfig {
  u32 mtu = 1024;          ///< max payload bytes per packet (RoCE MTU)
  u32 max_send_wr = 16;    ///< max in-flight messages ("up to 16 pending write
                           ///< requests" on the paper's setup, §IV-C)
  u32 max_queued_wr = 1u << 20;  ///< send-queue capacity before post fails
  /// RDMA timeout; "timeout values can only take discrete values of the form
  /// 4.096 x 2^x us"; the paper's cards use 131 us (§V-E).
  Duration retransmit_timeout = 131'072;  // ns
  u32 max_retries = 7;
};

/// Reliable-connection queue pair.
///
/// Requester side: segment posted messages into packets, assign
/// consecutive PSNs, respect the in-flight window (min of max_send_wr and
/// the credits last advertised by the responder), complete work on its
/// response (cumulatively: any response also completes the writes posted
/// before it), go-back-N on NAK(sequence error) or timeout, and surface
/// fatal errors (access NAK, retry exhaustion) as error completions plus a
/// QP transition to the error state.
///
/// Responder side: validate PSNs (duplicate write -> re-ACK, duplicate read
/// -> re-execute, duplicate atomic -> replay, gap -> NAK), validate
/// R_key/permissions/bounds through the NIC's memory manager, DMA the
/// payload, and acknowledge with the NIC's current credit count.
class QueuePair {
 public:
  QueuePair(sim::Simulator& sim, Nic& nic, Qpn qpn, CompletionQueue& cq, QpConfig config);
  ~QueuePair();

  Qpn qpn() const noexcept { return qpn_; }
  QpState state() const noexcept { return state_; }

  /// Connect this QP to its remote half: peer address, peer QPN, the PSN we
  /// start sending with, and the first PSN we expect from the peer.
  /// Transitions Reset -> RTS.
  void connect(Ipv4Addr remote_ip, Qpn remote_qpn, Psn our_start_psn, Psn expected_psn);

  Qpn remote_qpn() const noexcept { return remote_qpn_; }

  /// Move to the error state, flushing all outstanding work requests.
  void set_error(WcStatus flush_status);

  /// Reset to a fresh connectable state (used when re-routing after a
  /// switch failure).
  void reset();

  // --- Requester API (verbs-like) -------------------------------------

  /// Post a work request. Fails with kFailedPrecondition outside RTS,
  /// kResourceExhausted when the send queue is full, and kInvalidArgument
  /// for an opcode that cannot be posted. A read completes with the bytes
  /// in `read_data`; an atomic completes with the remote word's original
  /// value in `atomic_original` (a CAS succeeded iff it equals `compare`).
  Status post(WorkRequest wr);

  u32 inflight_messages() const noexcept { return static_cast<u32>(inflight_.size()); }
  u32 queued_messages() const noexcept { return static_cast<u32>(send_queue_.size()); }

  /// Credits the responder last advertised (paper Table I: "how many
  /// requests the client may send to the server at this time").
  u8 last_seen_credits() const noexcept { return credits_seen_; }

  // --- Responder-side access control (Mu permission switching) --------

  /// Whether inbound RDMA writes on this connection are honoured. Replicas
  /// flip this so only the current leader can append to their log (§III).
  void set_allow_remote_write(bool allow) noexcept { allow_remote_write_ = allow; }

  // --- Dataplane entry point -------------------------------------------

  /// Handle an inbound packet addressed to this QP (called by the NIC).
  void handle_packet(net::Packet packet);

  /// Invoked when the QP transitions to the error state (timeout / fatal
  /// NAK). Used by P4CE to detect a dead switch and fall back.
  void set_error_callback(std::function<void(WcStatus)> cb) { error_cb_ = std::move(cb); }

  /// Invoked on every NAK this QP receives as a requester, fatal or not.
  /// P4CE reverts to un-accelerated communication on the first NAK from the
  /// switch ("when the switch receives a negative acknowledgment, it
  /// unconditionally forwards it to the leader. P4CE then reverts to
  /// un-accelerated communications", §III-A).
  void set_nak_callback(std::function<void(NakCode, Psn)> cb) { nak_cb_ = std::move(cb); }

  // --- Introspection ----------------------------------------------------

  u64 retransmissions() const noexcept { return retransmissions_; }
  u64 messages_received() const noexcept { return messages_received_; }
  Psn next_send_psn() const noexcept { return send_psn_; }
  /// PSN the next *posted* message will start at: PSNs are assigned when a
  /// WQE leaves the send queue, so account for everything still queued.
  Psn planned_next_psn() const noexcept {
    u32 queued = 0;
    for (const auto& wqe : send_queue_) queued += packets_for(wqe.length);
    return psn_add(send_psn_, queued);
  }
  Psn expected_recv_psn() const noexcept { return expected_psn_; }

 private:
  struct Wqe {
    WorkRequest wr;
    u32 length = 0;
    Psn first_psn = 0;
    Psn last_psn = 0;
    Bytes assembly{};         // reads: mutable buffer response packets land in
    u64 atomic_original = 0;  // atomics: original value from the response
    bool answered = false;    // reads/atomics: the response has fully arrived
  };

  // Requester internals.
  void pump_send_queue();
  void transmit(const Wqe& wqe);
  u32 packets_for(u64 length) const noexcept;
  void handle_ack(const net::Packet& packet);
  void handle_read_response(const net::Packet& packet);
  void handle_atomic_response(const net::Packet& packet);
  /// Shared tail of every positive response: note the advertised credits,
  /// complete what `response` acknowledges (writes through its PSN when
  /// `inclusive`, else strictly before it, plus answered reads/atomics),
  /// then reset retries, re-arm the timer and refill the window.
  void retire_through(const net::Packet& response, bool inclusive);
  void complete(Wqe& wqe, WcStatus status);
  void arm_timer();
  void on_timeout();

  // Shared by both sides.
  net::Packet packet(Opcode op, Psn psn) const;
  struct MessageOpcodes {
    Opcode first, middle, last, only;
  };
  void send_message(const MessageOpcodes& ops, Psn first_psn, const net::PayloadRef& payload,
                    const Reth& reth = {});

  // Responder internals.
  void handle_request(const net::Packet& packet);
  void message_done();
  Aeth make_aeth(std::optional<NakCode> nak = std::nullopt) const;
  void send_aeth(Opcode op, Psn psn, std::optional<NakCode> nak = std::nullopt,
                 u64 original = 0);

  sim::Simulator& sim_;
  Nic& nic_;
  Qpn qpn_;
  CompletionQueue& cq_;
  QpConfig config_;

  QpState state_ = QpState::kReset;
  Ipv4Addr remote_ip_ = 0;
  Qpn remote_qpn_ = 0;

  // Requester state.
  std::deque<Wqe> send_queue_;   // posted, not yet transmitted
  std::deque<Wqe> inflight_;     // transmitted, awaiting ACK (ordered by PSN)
  Psn send_psn_ = 0;             // next PSN to assign
  u8 credits_seen_ = 16;         // responder credits from the last AETH
  u32 retry_count_ = 0;
  u64 retransmissions_ = 0;
  sim::EventHandle retransmit_timer_;

  // Responder state.
  Psn expected_psn_ = 0;
  u32 msn_ = 0;                  // messages completed as responder
  bool allow_remote_write_ = true;
  u64 messages_received_ = 0;
  // Inbound write in progress: where its next packet lands (from the RETH).
  struct InboundWrite {
    u64 vaddr = 0;
    RKey rkey = 0;
  };
  std::optional<InboundWrite> inbound_write_;
  /// Saved responses for executed atomics, keyed by request PSN. A
  /// retransmitted atomic must never re-execute (it is not idempotent); the
  /// responder replays the saved original instead, mirroring the
  /// duplicate-request response cache real RNICs keep. Depth exceeds the
  /// largest send window, so any go-back-N replay finds its entry.
  static constexpr std::size_t kAtomicReplayDepth = 32;
  std::deque<std::pair<Psn, u64>> atomic_replay_;

  std::function<void(WcStatus)> error_cb_;
  std::function<void(NakCode, Psn)> nak_cb_;
};

}  // namespace p4ce::rdma
