// The packet object that flows through the simulated network, plus the
// point-to-point link model with bandwidth, propagation delay and FIFO
// queueing.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/time.hpp"
#include "common/types.hpp"
#include "net/headers.hpp"
#include "net/payload.hpp"
#include "rdma/headers.hpp"
#include "sim/simulator.hpp"

namespace p4ce::net {

/// A RoCE v2 packet: Ethernet + IPv4 + UDP + BTH [+ RETH] [+ AETH]
/// [+ payload] + ICRC. CM handshake messages travel as packets addressed to
/// the well-known CM queue pair with the message in `cm`.
struct Packet {
  EthernetHeader eth;
  Ipv4Header ip;
  UdpHeader udp;

  rdma::Bth bth;
  std::optional<rdma::Reth> reth;
  std::optional<rdma::Aeth> aeth;
  std::optional<rdma::AtomicEth> atomic_eth;        ///< atomic requests
  std::optional<rdma::AtomicAckEth> atomic_ack_eth; ///< atomic responses
  std::optional<rdma::CmMessage> cm;

  /// Shared immutable payload view: carbon copies and MTU slices reference
  /// one buffer; only headers are per-copy mutable (see payload.hpp).
  PayloadRef payload;

  bool is_cm() const noexcept { return cm.has_value(); }
  bool is_ack() const noexcept { return bth.opcode == rdma::Opcode::kAcknowledge; }
  bool is_nak() const noexcept { return is_ack() && aeth && aeth->is_nak; }
  bool is_write() const noexcept { return rdma::is_write(bth.opcode); }
  bool is_read_request() const noexcept { return rdma::is_read_request(bth.opcode); }
  bool is_read_response() const noexcept { return rdma::is_read_response(bth.opcode); }
  bool is_atomic() const noexcept { return rdma::is_atomic(bth.opcode); }
  bool is_atomic_response() const noexcept { return rdma::is_atomic_response(bth.opcode); }

  /// Size of the Ethernet frame on the wire (headers + payload + ICRC + FCS),
  /// excluding preamble and inter-frame gap.
  u32 frame_size() const noexcept {
    u32 s = EthernetHeader::kWireSize + Ipv4Header::kWireSize + UdpHeader::kWireSize +
            rdma::Bth::kWireSize;
    if (reth) s += rdma::Reth::kWireSize;
    if (aeth) s += rdma::Aeth::kWireSize;
    if (atomic_eth) s += atomic_eth->wire_size();
    if (atomic_ack_eth) s += rdma::AtomicAckEth::kWireSize;
    if (cm) s += cm->wire_size();
    s += static_cast<u32>(payload.size());
    s += rdma::kIcrcBytes + kEthernetFcsBytes;
    return s;
  }

  /// Bytes of wire time the packet occupies (frame + preamble + IFG); this is
  /// what bandwidth accounting uses, so goodput numbers are honest.
  u32 wire_size() const noexcept { return frame_size() + kPhyOverheadBytes; }

  /// Exact size of the buffer encode() produces: the frame minus the FCS
  /// (not serialized) plus the layout byte and the payload-length word the
  /// encoder writes for unambiguous round-trips.
  u32 encoded_size() const noexcept { return frame_size() - kEthernetFcsBytes + 1 + 4; }

  /// Serialize the full packet to network byte order (tests / fidelity).
  Bytes encode() const;
  /// Parse a packet previously produced by encode().
  static Packet decode(BytesView bytes, bool* ok = nullptr);
};

/// When a component (link, NIC, switch) was down. A packet hop whose
/// downstream time is computed at hand-over asks, when its next event runs,
/// whether the component was up at the instants that mattered, so a power
/// loss or a cut takes effect at its own time, not at the next event.
class Downtime {
 public:
  void down(SimTime at) {
    if (!is_down()) spans_.push_back(Span{at, kTimeNever});
  }
  void up(SimTime at) noexcept {
    if (is_down()) spans_.back().end = at;
  }
  bool is_down() const noexcept { return !spans_.empty() && spans_.back().end == kTimeNever; }

  /// True if the component was up at every instant of [from, to].
  bool up_throughout(SimTime from, SimTime to) const noexcept {
    for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
      if (it->end <= from) return true;  // spans are ordered: the rest end earlier
      if (it->begin <= to) return false;
    }
    return true;
  }
  bool up_at(SimTime at) const noexcept { return up_throughout(at, at); }

 private:
  struct Span {
    SimTime begin;
    SimTime end;  ///< exclusive; kTimeNever while still down
  };
  std::vector<Span> spans_;
};

class Link;

/// Anything that can accept a delivered packet (NIC, switch port, ...).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(Packet packet) = 0;

  /// Hand-over from `link`: `packet` left the far end (endpoint `from`) at
  /// `sent` and reaches this end at `at` (>= now). The default schedules a
  /// delivery event at `at` that drops the packet unless
  /// `link.carried(from, sent, at)`; a sink with a single FIFO feeder may
  /// instead fold the arrival into its own next event.
  virtual void arrive(Link& link, int from, SimTime sent, Packet packet, SimTime at);

  /// Whether this end was transmitting at `at` (<= now).
  virtual bool up_at(SimTime /*at*/) const noexcept { return true; }
};

/// Full-duplex point-to-point link. Each direction serializes packets at
/// `bandwidth_gbps` with FIFO queueing (a sender transmitting faster than the
/// link drains accumulates queueing delay), then delivers after
/// `propagation_delay`. A link can be cut (switch/host crash): packets in
/// flight and future sends are silently dropped, which is what makes RDMA
/// retransmission timeouts fire.
class Link {
 public:
  Link(sim::Simulator& sim, double bandwidth_gbps, Duration propagation_delay)
      : sim_(sim), bandwidth_gbps_(bandwidth_gbps), propagation_(propagation_delay) {}

  /// Attach the two endpoints. Endpoint index 0/1.
  void attach(PacketSink* end0, PacketSink* end1) noexcept {
    ends_[0] = end0;
    ends_[1] = end1;
  }
  PacketSink* end(int index) const noexcept { return ends_[index]; }
  sim::Simulator& simulator() noexcept { return sim_; }

  /// Transmit `packet` from endpoint `from` (0 or 1) toward the other end,
  /// handed to the link at `sent` (>= now). The sender must hand packets
  /// over in `sent` order: each direction is a FIFO with one writer.
  /// Returns the simulated time at which the last bit leaves the sender.
  SimTime send(int from, Packet packet, SimTime sent);
  SimTime send(int from, Packet packet) { return send(from, std::move(packet), sim_.now()); }

  /// The lineage of the delivery event for a packet handed over at `sent`:
  /// the hop that hands it over at `sent` > now would have been scheduled
  /// now and have scheduled the delivery at `sent`.
  sim::Lineage delivery_lineage(SimTime sent) const noexcept {
    return sent == sim_.now() ? sim_.lineage() : sim::Lineage{sent, sim_.now()};
  }

  /// Whether a packet handed over at `sent` by endpoint `from` reaches the
  /// other end at `at`: the sender was up at `sent` and the link was not
  /// cut at any instant in between.
  bool carried(int from, SimTime sent, SimTime at) const noexcept {
    return ends_[from]->up_at(sent) && cuts_.up_throughout(sent, at);
  }

  /// Sever the link (both directions). In-flight deliveries are suppressed.
  void cut() { cuts_.down(sim_.now()); }
  void restore() noexcept { cuts_.up(sim_.now()); }
  bool is_cut() const noexcept { return cuts_.is_down(); }

  /// Total payload-carrying bytes sent per direction (wire bytes).
  u64 wire_bytes_sent(int from) const noexcept { return wire_bytes_[from]; }
  u64 packets_sent(int from) const noexcept { return packets_[from]; }

 private:
  sim::Simulator& sim_;
  double bandwidth_gbps_;
  Duration propagation_;
  PacketSink* ends_[2] = {nullptr, nullptr};
  SimTime busy_until_[2] = {0, 0};
  u64 wire_bytes_[2] = {0, 0};
  u64 packets_[2] = {0, 0};
  Downtime cuts_;
};

}  // namespace p4ce::net
