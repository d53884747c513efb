#include "rdma/qp.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "rdma/nic.hpp"

namespace p4ce::rdma {

namespace {

// Aggregate transport-health metrics across all QPs in the process. The
// references are cached once (instruments are never removed from the
// registry) so the hot path is a plain integer add.
struct QpMetrics {
  obs::Counter& msgs_sent;
  obs::Counter& msgs_received;
  obs::Counter& retransmits;
  obs::Counter& timeouts;
  obs::Counter& naks_rx;
  obs::Counter& gap_naks_tx;
  obs::Counter& duplicates_rx;
  obs::Gauge& ack_credits;
  obs::Gauge& inflight;

  static QpMetrics& get() {
    static QpMetrics m{
        obs::MetricsRegistry::global().counter("rdma.qp.msgs_sent"),
        obs::MetricsRegistry::global().counter("rdma.qp.msgs_received"),
        obs::MetricsRegistry::global().counter("rdma.qp.retransmits"),
        obs::MetricsRegistry::global().counter("rdma.qp.retransmit_timeouts"),
        obs::MetricsRegistry::global().counter("rdma.qp.naks_rx"),
        obs::MetricsRegistry::global().counter("rdma.qp.gap_naks_tx"),
        obs::MetricsRegistry::global().counter("rdma.qp.duplicates_rx"),
        obs::MetricsRegistry::global().gauge("rdma.qp.ack_credits"),
        obs::MetricsRegistry::global().gauge("rdma.qp.inflight"),
    };
    return m;
  }
};

}  // namespace

std::string_view to_string(QpState s) noexcept {
  switch (s) {
    case QpState::kReset: return "RESET";
    case QpState::kInit: return "INIT";
    case QpState::kRtr: return "RTR";
    case QpState::kRts: return "RTS";
    case QpState::kError: return "ERROR";
  }
  return "UNKNOWN";
}

QueuePair::QueuePair(sim::Simulator& sim, Nic& nic, Qpn qpn, CompletionQueue& cq, QpConfig config)
    : sim_(sim), nic_(nic), qpn_(qpn), cq_(cq), config_(config) {}

QueuePair::~QueuePair() {
  // A QP destroyed while healthy may still have a retransmit timeout
  // scheduled; the event captures `this`, so it must not outlive the QP.
  retransmit_timer_.cancel();
  QpMetrics::get().inflight.add(-static_cast<double>(inflight_.size()));
}

void QueuePair::connect(Ipv4Addr remote_ip, Qpn remote_qpn, Psn our_start_psn, Psn expected_psn) {
  remote_ip_ = remote_ip;
  remote_qpn_ = remote_qpn;
  send_psn_ = our_start_psn & kPsnMask;
  expected_psn_ = expected_psn & kPsnMask;
  state_ = QpState::kRts;
  retry_count_ = 0;
  credits_seen_ = static_cast<u8>(std::min<u32>(config_.max_send_wr, 31));
}

void QueuePair::set_error(WcStatus flush_status) {
  if (state_ == QpState::kError) return;
  state_ = QpState::kError;
  retransmit_timer_.cancel();
  QpMetrics::get().inflight.add(-static_cast<double>(inflight_.size()));
  // Flush everything outstanding, oldest first, as a real QP would. The
  // queues move out first: a completion callback may reset() or repost on
  // this QP while the flush is still running.
  std::deque<Wqe> inflight = std::exchange(inflight_, {});
  std::deque<Wqe> queued = std::exchange(send_queue_, {});
  for (auto& wqe : inflight) complete(wqe, flush_status);
  for (auto& wqe : queued) complete(wqe, WcStatus::kFlushed);
  if (error_cb_) error_cb_(flush_status);
}

void QueuePair::reset() {
  retransmit_timer_.cancel();
  QpMetrics::get().inflight.add(-static_cast<double>(inflight_.size()));
  inflight_.clear();
  send_queue_.clear();
  inbound_write_.reset();
  atomic_replay_.clear();
  retry_count_ = 0;
  msn_ = 0;
  state_ = QpState::kReset;
}

u32 QueuePair::packets_for(u64 length) const noexcept {
  if (length == 0) return 1;
  return static_cast<u32>((length + config_.mtu - 1) / config_.mtu);
}

Status QueuePair::post(WorkRequest wr) {
  if (wr.opcode != Opcode::kWriteOnly && wr.opcode != Opcode::kReadRequest &&
      !is_atomic(wr.opcode)) {
    return error(StatusCode::kInvalidArgument, "opcode cannot be posted");
  }
  if (state_ != QpState::kRts) {
    return error(StatusCode::kFailedPrecondition, "QP not in RTS state");
  }
  if (send_queue_.size() + inflight_.size() >= config_.max_queued_wr) {
    return error(StatusCode::kResourceExhausted, "send queue full");
  }
  const u32 length = wr.opcode == Opcode::kReadRequest ? wr.read_len
                     : is_atomic(wr.opcode)            ? 8
                                                       : static_cast<u32>(wr.payload.size());
  send_queue_.push_back(Wqe{.wr = std::move(wr), .length = length});
  pump_send_queue();
  return Status::ok();
}

void QueuePair::pump_send_queue() {
  // The in-flight window respects both the local cap and the credits the
  // responder last advertised; at least one message may always probe so a
  // momentarily-drained responder cannot deadlock the connection.
  const u32 window =
      std::min<u32>(config_.max_send_wr, std::max<u32>(1, credits_seen_));
  while (!send_queue_.empty() && inflight_.size() < window) {
    Wqe wqe = std::move(send_queue_.front());
    send_queue_.pop_front();
    const u32 npkts = packets_for(wqe.length);
    wqe.first_psn = send_psn_;
    wqe.last_psn = psn_add(send_psn_, npkts - 1);
    send_psn_ = psn_add(send_psn_, npkts);
    transmit(wqe);
    inflight_.push_back(std::move(wqe));
    QpMetrics::get().msgs_sent.inc();
    QpMetrics::get().inflight.add(1);
  }
  if (!inflight_.empty() && !retransmit_timer_.pending()) arm_timer();
}

void QueuePair::transmit(const Wqe& wqe) {
  const WorkRequest& wr = wqe.wr;
  if (is_write(wr.opcode)) {
    send_message({Opcode::kWriteFirst, Opcode::kWriteMiddle, Opcode::kWriteLast,
                  Opcode::kWriteOnly},
                 wqe.first_psn, wr.payload, Reth{wr.remote_vaddr, wr.rkey, wqe.length});
    return;
  }
  // Reads and atomics are one request packet each.
  net::Packet p = packet(wr.opcode, wqe.first_psn);
  p.bth.ack_request = true;
  if (wr.opcode == Opcode::kReadRequest) {
    p.reth = Reth{wr.remote_vaddr, wr.rkey, wqe.length};
  } else {
    p.atomic_eth = AtomicEth{.vaddr = wr.remote_vaddr,
                             .rkey = wr.rkey,
                             .swap_add = wr.atomic.swap_add,
                             .compare = wr.atomic.compare,
                             .masked = wr.opcode == Opcode::kMaskedCompareSwap,
                             .swap_mask = wr.atomic.swap_mask,
                             .compare_mask = wr.atomic.compare_mask};
  }
  nic_.send_packet(std::move(p));
}

net::Packet QueuePair::packet(Opcode op, Psn psn) const {
  net::Packet p;
  p.eth.src_mac = nic_.mac();
  p.eth.dst_mac = 0;
  p.ip.src = nic_.ip();
  p.ip.dst = remote_ip_;
  p.udp.src_port = static_cast<u16>(0xc000 | (qpn_ & 0x3fff));
  p.bth.opcode = op;
  p.bth.dest_qp = remote_qpn_;
  p.bth.psn = psn;
  return p;
}

void QueuePair::send_message(const MessageOpcodes& ops, Psn first_psn,
                             const net::PayloadRef& payload, const Reth& reth) {
  // Segment into MTU-sized packets with IBTA First/Middle/Last/Only opcodes.
  // A write carries the RETH up front and asks for an ACK at its end; a read
  // response ends in the AETH that acknowledges it.
  const u32 npkts = packets_for(payload.size());
  for (u32 i = 0; i < npkts; ++i) {
    const Opcode op = npkts == 1       ? ops.only
                      : i == 0         ? ops.first
                      : i == npkts - 1 ? ops.last
                                       : ops.middle;
    net::Packet p = packet(op, psn_add(first_psn, i));
    if (carries_reth(op)) p.reth = reth;
    if (is_last_or_only(op)) {
      if (is_write(op)) {
        p.bth.ack_request = true;
      } else {
        p.aeth = make_aeth();
      }
    }
    const u64 offset = static_cast<u64>(i) * config_.mtu;
    p.payload = payload.slice(offset, std::min<u64>(config_.mtu, payload.size() - offset));
    nic_.send_packet(std::move(p));
  }
}

void QueuePair::handle_packet(net::Packet packet) {
  if (state_ == QpState::kError) return;
  if (packet.is_ack()) {
    handle_ack(packet);
  } else if (packet.is_atomic_response()) {
    handle_atomic_response(packet);
  } else if (packet.is_read_response()) {
    handle_read_response(packet);
  } else if (rdma::is_request(packet.bth.opcode)) {
    handle_request(packet);
  }
}

void QueuePair::handle_ack(const net::Packet& packet) {
  if (!packet.aeth) return;
  const Aeth& aeth = *packet.aeth;
  if (!aeth.is_nak) {
    // A positive ACK with PSN p acknowledges every packet up to and
    // including p (RDMA ACKs are cumulative / coalescable).
    retire_through(packet, /*inclusive=*/true);
    return;
  }

  QpMetrics::get().naks_rx.inc();
  if (nak_cb_) nak_cb_(aeth.nak_code, packet.bth.psn);
  if (state_ == QpState::kError || state_ == QpState::kReset) {
    return;  // the NAK callback may have reset or errored the QP
  }
  if (aeth.nak_code == NakCode::kPsnSequenceError) {
    // Go-back-N: the responder expected packet.bth.psn; resend everything
    // outstanding from the oldest unacknowledged message.
    ++retransmissions_;
    QpMetrics::get().retransmits.inc();
    for (const auto& wqe : inflight_) transmit(wqe);
    arm_timer();
    return;
  }
  // Fatal NAK (access error etc.): the offending (oldest) WQE completes
  // with an error and the QP enters the error state; this is what makes
  // a P4CE leader notice a misbehaving/revoked connection (§III).
  WcStatus status = WcStatus::kFlushed;
  if (aeth.nak_code == NakCode::kRemoteAccessError) {
    status = WcStatus::kRemoteAccessError;
  } else if (aeth.nak_code == NakCode::kInvalidRequest) {
    status = WcStatus::kRemoteInvalidRequest;
  }
  if (!inflight_.empty()) {
    complete(inflight_.front(), status);
    inflight_.pop_front();
    QpMetrics::get().inflight.add(-1);
  }
  set_error(WcStatus::kFlushed);
}

void QueuePair::handle_read_response(const net::Packet& packet) {
  // Find the read this response belongs to: the in-flight read covering the
  // PSN. None means a stale/duplicate response.
  const Psn psn = packet.bth.psn;
  auto it = std::find_if(inflight_.begin(), inflight_.end(), [&](const Wqe& w) {
    return w.wr.opcode == Opcode::kReadRequest && psn_distance(w.first_psn, psn) >= 0 &&
           psn_distance(psn, w.last_psn) >= 0;
  });
  if (it == inflight_.end()) return;
  Wqe& wqe = *it;

  // Land the response slice in the WQE's assembly buffer — the one
  // materialization on the read path (the "DMA" into requester memory).
  const u64 offset = static_cast<u64>(psn_distance(wqe.first_psn, psn)) * config_.mtu;
  if (wqe.assembly.size() < wqe.length) wqe.assembly.resize(wqe.length);
  packet.payload.copy_to(std::span<u8>(wqe.assembly).subspan(offset, wqe.length - offset));
  if (psn != wqe.last_psn) return;
  // Like any response, the last packet acknowledges every request before
  // it, so writes posted ahead of the read complete first.
  wqe.answered = true;
  retire_through(packet, /*inclusive=*/false);
}

void QueuePair::handle_atomic_response(const net::Packet& packet) {
  if (!packet.atomic_ack_eth) return;
  // Like any ACK, the atomic response is cumulative: it acknowledges every
  // packet before its PSN, so preceding (possibly unsignaled) writes
  // complete first. This is what lets a caller pair an unsignaled write
  // with a signaled atomic on one QP and treat the atomic's completion as
  // proof the write landed. No matching atomic means a duplicate/stale
  // response whose original already completed.
  auto it = std::find_if(inflight_.begin(), inflight_.end(), [&](const Wqe& w) {
    return is_atomic(w.wr.opcode) && w.first_psn == packet.bth.psn;
  });
  if (it != inflight_.end()) {
    it->atomic_original = packet.atomic_ack_eth->original;
    it->answered = true;
  }
  retire_through(packet, /*inclusive=*/false);
}

void QueuePair::retire_through(const net::Packet& response, bool inclusive) {
  if (response.aeth) {
    credits_seen_ = response.aeth->credits;
    QpMetrics::get().ack_credits.set(response.aeth->credits);
  }
  // Writes the response covers complete oldest first, and so does an
  // answered read or atomic once it reaches the head. Reads and atomics
  // never complete via a plain cumulative ACK, only via their own response.
  const Psn psn = response.bth.psn;
  bool progressed = false;
  while (!inflight_.empty()) {
    Wqe& head = inflight_.front();
    const i32 ahead = psn_distance(head.last_psn, psn);
    const bool covered = is_write(head.wr.opcode) && (inclusive ? ahead >= 0 : ahead > 0);
    if (!covered && !head.answered) break;
    complete(head, WcStatus::kSuccess);
    inflight_.pop_front();
    QpMetrics::get().inflight.add(-1);
    progressed = true;
  }
  // A read answered behind an older unanswered read or atomic completes
  // where it sits; node recovery relies on that. Erase by position: the
  // completion callback may post.
  const auto it = std::find_if(inflight_.begin(), inflight_.end(), [](const Wqe& w) {
    return w.answered && w.wr.opcode == Opcode::kReadRequest;
  });
  if (it != inflight_.end()) {
    const auto pos = it - inflight_.begin();
    complete(*it, WcStatus::kSuccess);
    inflight_.erase(inflight_.begin() + pos);
    QpMetrics::get().inflight.add(-1);
    progressed = true;
  }
  if (progressed) retry_count_ = 0;
  if (inflight_.empty()) {
    retransmit_timer_.cancel();
  } else {
    arm_timer();
  }
  pump_send_queue();
}

void QueuePair::complete(Wqe& wqe, WcStatus status) {
  if (!wqe.wr.signaled && status == WcStatus::kSuccess) return;
  Completion c;
  c.wr_id = wqe.wr.wr_id;
  c.status = status;
  c.opcode = wqe.wr.opcode;
  c.byte_len = wqe.length;
  c.qpn = qpn_;
  if (status == WcStatus::kSuccess) c.read_data = std::move(wqe.assembly);
  c.atomic_original = wqe.atomic_original;
  cq_.push(std::move(c));
}

void QueuePair::arm_timer() {
  // A pending timer is pushed back in place, so a QP keeps one queue entry
  // however many ACKs re-arm it.
  if (retransmit_timer_.postpone(config_.retransmit_timeout)) return;
  retransmit_timer_.cancel();
  retransmit_timer_ = sim_.schedule(config_.retransmit_timeout, [this] { on_timeout(); });
}

void QueuePair::on_timeout() {
  if (state_ != QpState::kRts || inflight_.empty()) return;
  if (++retry_count_ > config_.max_retries) {
    // Transport gave up: the peer (or the switch in between, §III-A
    // "Faulty switch") is unreachable.
    set_error(WcStatus::kRetryExceeded);
    return;
  }
  ++retransmissions_;
  QpMetrics::get().timeouts.inc();
  QpMetrics::get().retransmits.inc();
  if (obs::FlightRecorder::is_enabled()) {
    // A whole-window resend means the path went quiet; per-kind rate
    // limiting in the recorder turns a storm into one capture.
    obs::FlightRecorder::global().trigger("retransmit_timeout", sim_.now(), "qpn", qpn_);
  }
  for (const auto& wqe : inflight_) transmit(wqe);
  arm_timer();
}

// --------------------------------------------------------------------------
// Responder side
// --------------------------------------------------------------------------

Aeth QueuePair::make_aeth(std::optional<NakCode> nak) const {
  if (nak) return Aeth{.is_nak = true, .nak_code = *nak, .credits = 0, .msn = msn_ & kPsnMask};
  return Aeth{.is_nak = false,
              .nak_code = NakCode::kPsnSequenceError,
              .credits = nic_.current_credits(),
              .msn = msn_ & kPsnMask};
}

void QueuePair::send_aeth(Opcode op, Psn psn, std::optional<NakCode> nak, u64 original) {
  net::Packet p = packet(op, psn);
  p.aeth = make_aeth(nak);
  if (op == Opcode::kAtomicAcknowledge) p.atomic_ack_eth = AtomicAckEth{original};
  nic_.send_packet(std::move(p));
}

void QueuePair::message_done() {
  ++msn_;
  ++messages_received_;
  QpMetrics::get().msgs_received.inc();
}

void QueuePair::handle_request(const net::Packet& packet) {
  const Opcode op = packet.bth.opcode;
  const Psn psn = packet.bth.psn;
  const i32 gap = psn_distance(expected_psn_, psn);
  if (gap < 0) {
    // Duplicate (retransmission we already executed). Writes are idempotent
    // here because the requester retransmits identical data at identical
    // addresses; just refresh the ACK so the requester can make progress.
    // A read is re-executed below, as IBTA requires: its response may have
    // been lost. Atomics are NOT idempotent: replay the saved response
    // instead of re-executing (real RNICs keep the same duplicate-response
    // cache).
    QpMetrics::get().duplicates_rx.inc();
    if (is_atomic(op)) {
      for (const auto& [replay_psn, original] : atomic_replay_) {
        if (replay_psn == psn) {
          send_aeth(Opcode::kAtomicAcknowledge, psn, std::nullopt, original);
          return;
        }
      }
      // Response fell out of the cache; a plain ACK cannot complete the
      // atomic on the requester, so let its timer drive recovery.
      return;
    }
    if (op != Opcode::kReadRequest) {
      if (is_last_or_only(op) && packet.bth.ack_request) send_aeth(Opcode::kAcknowledge, psn);
      return;
    }
  }
  if (gap > 0) {
    // Missing packets: NAK with the PSN we expected (go-back-N point).
    QpMetrics::get().gap_naks_tx.inc();
    send_aeth(Opcode::kAcknowledge, expected_psn_, NakCode::kPsnSequenceError);
    return;
  }

  const bool malformed = is_atomic(op)      ? !packet.atomic_eth
                         : carries_reth(op) ? !packet.reth
                                            : !inbound_write_;
  if (malformed) {
    send_aeth(Opcode::kAcknowledge, psn, NakCode::kInvalidRequest);
    return;
  }
  if (!allow_remote_write_ && op != Opcode::kReadRequest) {
    // The Mu permission mechanism: this peer is not the machine we currently
    // accept writes from (not our leader). Atomics mutate memory, so the
    // same single-writer switch fences them.
    send_aeth(Opcode::kAcknowledge, psn, NakCode::kRemoteAccessError);
    return;
  }

  if (op == Opcode::kReadRequest) {
    auto data = nic_.memory().remote_read(packet.reth->rkey, packet.reth->vaddr,
                                          packet.reth->dma_len);
    if (!data.is_ok()) {
      send_aeth(Opcode::kAcknowledge, psn, NakCode::kRemoteAccessError);
      return;
    }
    // One owned buffer for the whole response; each packet slices a view.
    // A read of n response packets consumes n PSNs on the request stream;
    // a re-executed duplicate resends from its own PSN and consumes none.
    const net::PayloadRef whole(std::move(data.value()));
    if (gap == 0) {
      expected_psn_ = psn_add(expected_psn_, packets_for(whole.size()));
      message_done();
    }
    send_message({Opcode::kReadResponseFirst, Opcode::kReadResponseMiddle,
                  Opcode::kReadResponseLast, Opcode::kReadResponseOnly},
                 psn, whole);
    return;
  }

  if (is_atomic(op)) {
    const AtomicEth& eth = *packet.atomic_eth;
    const AtomicOp kind = op == Opcode::kFetchAdd            ? AtomicOp::kFetchAdd
                          : op == Opcode::kMaskedCompareSwap ? AtomicOp::kMaskedCompareSwap
                                                             : AtomicOp::kCompareSwap;
    auto original = nic_.memory().remote_atomic(
        kind, eth.rkey, eth.vaddr,
        AtomicArgs{.compare = eth.compare,
                   .swap_add = eth.swap_add,
                   .compare_mask = eth.compare_mask,
                   .swap_mask = eth.swap_mask});
    if (!original.is_ok()) {
      send_aeth(Opcode::kAcknowledge, psn,
                original.status().code() == StatusCode::kInvalidArgument
                    ? NakCode::kInvalidRequest
                    : NakCode::kRemoteAccessError);
      return;
    }
    expected_psn_ = psn_add(expected_psn_, 1);
    message_done();
    atomic_replay_.emplace_back(psn, original.value());
    if (atomic_replay_.size() > kAtomicReplayDepth) atomic_replay_.pop_front();
    send_aeth(Opcode::kAtomicAcknowledge, psn, std::nullopt, original.value());
    return;
  }

  // RDMA write: the First/Only packet's RETH says where the message lands;
  // every packet continues where the previous one ended.
  if (carries_reth(op)) inbound_write_ = InboundWrite{packet.reth->vaddr, packet.reth->rkey};
  const Status st = nic_.memory().remote_write(inbound_write_->rkey, inbound_write_->vaddr,
                                               packet.payload.view());
  if (!st.is_ok()) {
    inbound_write_.reset();
    send_aeth(Opcode::kAcknowledge, psn, NakCode::kRemoteAccessError);
    return;
  }
  inbound_write_->vaddr += packet.payload.size();
  expected_psn_ = psn_add(expected_psn_, 1);
  if (is_last_or_only(op)) {
    inbound_write_.reset();
    message_done();
    if (packet.bth.ack_request) send_aeth(Opcode::kAcknowledge, psn);
  }
}

}  // namespace p4ce::rdma
