#include "switchsim/switch.hpp"

#include <cassert>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace p4ce::sw {

SwitchDevice::SwitchDevice(sim::Simulator& sim, std::string name, Ipv4Addr ip,
                           SwitchConfig config)
    : sim_(sim), name_(std::move(name)), ip_(ip), config_(config) {
  auto& reg = obs::MetricsRegistry::global();
  m_ingress_drops_ = &reg.counter(obs::MetricsRegistry::label("switch.ingress_drops", {{"sw", name_}}));
  m_egress_drops_ = &reg.counter(obs::MetricsRegistry::label("switch.egress_drops", {{"sw", name_}}));
  m_punts_ = &reg.counter(obs::MetricsRegistry::label("switch.punts", {{"sw", name_}}));
}

void SwitchDevice::power_off() {
  if (powered() && obs::FlightRecorder::is_enabled()) {
    obs::FlightRecorder::global().trigger("switch_failure", sim_.now(), "switch_ip", ip_);
  }
  downtime_.down(sim_.now());
}

u32 SwitchDevice::add_port() {
  const u32 index = static_cast<u32>(ports_.size());
  ports_.push_back(std::make_unique<Port>(*this, index, config_.parser_pps));
  return index;
}

void SwitchDevice::on_port_rx(u32 port, net::Packet packet) {
  if (!powered() || program_ == nullptr) return;
  const SimTime now = sim_.now();
  sim_.schedule_at(admit_ingress(port, now),
                   sim::inline_event([this, port, now, p = std::move(packet)]() mutable {
                     on_ingress(port, now, std::move(p));
                   }));
}

SimTime SwitchDevice::admit_ingress(u32 port, SimTime at) noexcept {
  // Per-port ingress parser: a finite packet rate, the §IV-D bottleneck.
  const SimTime parsed = ports_[port]->ingress_parser().admit(at);
  ports_[port]->note_ingress_backlog(at);
  return parsed + config_.ingress_latency;
}

void SwitchDevice::on_ingress(u32 port, SimTime at, net::Packet packet) {
  if (!up_at(at) || !powered() || program_ == nullptr) return;
  PacketContext ctx;
  ctx.packet = std::move(packet);
  ctx.ingress_port = port;
  run_ingress(std::move(ctx));
}

void SwitchDevice::inject_from_cpu(net::Packet packet) {
  if (!powered() || program_ == nullptr) return;
  sim_.schedule(config_.punt_latency, sim::inline_event([this, p = std::move(packet)]() mutable {
    if (!powered()) return;
    PacketContext ctx;
    ctx.packet = std::move(p);
    ctx.ingress_port = kCpuPort;
    run_ingress(std::move(ctx));
  }));
}

void SwitchDevice::run_ingress(PacketContext ctx) {
  program_->ingress(ctx);
  route(std::move(ctx));
}

void SwitchDevice::route(PacketContext ctx) {
  if (ctx.drop) {
    ++ingress_drops_;
    m_ingress_drops_->inc();
    return;
  }
  if (ctx.punt_to_cpu) {
    ++punted_;
    m_punts_->inc();
    if (!cpu_handler_) return;
    sim_.schedule(config_.punt_latency,
                  sim::inline_event(
                      [this, p = std::move(ctx.packet), port = ctx.ingress_port]() mutable {
                        if (powered() && cpu_handler_) cpu_handler_(std::move(p), port);
                      }));
    return;
  }
  if (ctx.mcast_group) {
    // Traffic manager: the replication engine produces one carbon copy per
    // configured (port, rid) pair; "operating on packet replicas must be
    // done in the egress" (§II-B).
    const auto& copies = mcast_.lookup(*ctx.mcast_group);
    if (copies.empty()) {
      ++ingress_drops_;
      m_ingress_drops_->inc();
      return;
    }
    for (const auto& copy : copies) {
      PacketContext replica = ctx;  // carbon copy
      replica.egress_port = copy.egress_port;
      replica.replication_id = copy.replication_id;
      run_egress(std::move(replica));
    }
    return;
  }
  if (ctx.unicast_port) {
    ctx.egress_port = *ctx.unicast_port;
    ctx.replication_id = 0;
    run_egress(std::move(ctx));
    return;
  }
  ++ingress_drops_;  // no routing decision: drop
  m_ingress_drops_->inc();
}

void SwitchDevice::run_egress(PacketContext ctx) {
  if (ctx.egress_port >= ports_.size()) {
    count_egress_drop();
    return;
  }
  Port& port = *ports_[ctx.egress_port];
  const SimTime parsed = port.egress_parser().admit(sim_.now());
  port.note_egress_backlog(sim_.now());
  // The egress parser is the only sender on its port's link, in FIFO
  // order, so the egress stage runs now on behalf of the egress instant
  // T4: the copy is stamped with T4 and handed to the link, which drops it
  // if the switch is off at T4.
  ctx.egress_at = parsed + config_.egress_latency;
  program_->egress(ctx);
  if (ctx.drop) {
    // A dropped copy leaves no packet to carry T4; its drop is counted then.
    sim_.schedule_at(ctx.egress_at, sim::inline_event([this] {
                       if (powered()) count_egress_drop();
                     }));
    return;
  }
  port.transmit(std::move(ctx.packet), ctx.egress_at);
}

void SwitchDevice::count_egress_drop() noexcept {
  ++egress_drops_;
  m_egress_drops_->inc();
}

// ---------------------------------------------------------------------------
// Port
// ---------------------------------------------------------------------------

Port::Port(SwitchDevice& device, u32 index, double parser_pps)
    : device_(device), index_(index), ingress_parser_(parser_pps), egress_parser_(parser_pps) {
  auto& reg = obs::MetricsRegistry::global();
  const auto port_label = [&](std::string_view series) {
    return obs::MetricsRegistry::label(series,
                                       {{"sw", device.name()}, {"port", std::to_string(index)}});
  };
  m_rx_pkts_ = &reg.counter(port_label("switch.port.rx_pkts"));
  m_rx_bytes_ = &reg.counter(port_label("switch.port.rx_bytes"));
  m_tx_pkts_ = &reg.counter(port_label("switch.port.tx_pkts"));
  m_tx_bytes_ = &reg.counter(port_label("switch.port.tx_bytes"));
  m_ingress_backlog_ = &reg.gauge(port_label("switch.port.ingress_backlog_ns"));
  m_egress_backlog_ = &reg.gauge(port_label("switch.port.egress_backlog_ns"));
}

void Port::deliver(net::Packet packet) {
  count_rx(packet);
  device_.on_port_rx(index_, std::move(packet));
}

void Port::arrive([[maybe_unused]] net::Link& link, [[maybe_unused]] int from, SimTime sent,
                  net::Packet packet, SimTime at) {
  assert(&link == link_ && from == 1 - end_);
  // The ingress stage runs where the link's delivery event would have
  // scheduled it: at `at`, by an event scheduled at `sent`.
  device_.simulator().schedule_at(
      device_.admit_ingress(index_, at), sim::Lineage{at, sent},
      sim::inline_event([this, sent, at, p = std::move(packet)]() mutable {
        if (!link_->carried(1 - end_, sent, at)) return;  // severed in flight
        count_rx(p);
        device_.on_ingress(index_, at, std::move(p));
      }));
}

bool Port::up_at(SimTime at) const noexcept { return device_.up_at(at); }

void Port::count_rx(const net::Packet& packet) noexcept {
  ++rx_;
  m_rx_pkts_->inc();
  m_rx_bytes_->inc(packet.wire_size());
}

void Port::transmit(net::Packet packet, SimTime at) {
  if (link_ == nullptr) return;
  ++tx_;
  m_tx_pkts_->inc();
  m_tx_bytes_->inc(packet.wire_size());
  link_->send(end_, std::move(packet), at);
}

void Port::note_ingress_backlog(SimTime now) noexcept {
  m_ingress_backlog_->set(static_cast<double>(ingress_parser_.backlog(now)));
}

void Port::note_egress_backlog(SimTime now) noexcept {
  m_egress_backlog_->set(static_cast<double>(egress_parser_.backlog(now)));
}

}  // namespace p4ce::sw
