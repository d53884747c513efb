// Connection-manager handshake tests: ConnectRequest/Reply/RTU flows,
// private data piggybacking, rejection, timeouts, and virtual endpoints
// (the mechanism the P4CE control plane builds on).
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "rdma/cm.hpp"
#include "rdma/nic.hpp"
#include "sim/simulator.hpp"

namespace p4ce::rdma {
namespace {

struct CmFixture : ::testing::Test {
  sim::Simulator sim;
  MemoryManager mem_a{1}, mem_b{2};
  net::Link link{sim, 100.0, 150};
  std::unique_ptr<Nic> nic_a, nic_b;
  CompletionQueue cq_a, cq_b;

  void SetUp() override {
    nic_a = std::make_unique<Nic>(sim, "a", net::make_ip(0, 1), 0xA, mem_a);
    nic_b = std::make_unique<Nic>(sim, "b", net::make_ip(0, 2), 0xB, mem_b);
    link.attach(nic_a.get(), nic_b.get());
    nic_a->attach_link(&link, 0);
    nic_b->attach_link(&link, 1);
  }
};

TEST_F(CmFixture, FullHandshakeConnectsBothQps) {
  QueuePair* server_qp = nullptr;
  bool established = false;
  nic_b->cm().listen(42, [&](const CmMessage& req, Ipv4Addr from) {
    EXPECT_EQ(from, nic_a->ip());
    EXPECT_EQ(req.private_data, to_bytes("hello"));
    CmAgent::AcceptDecision d;
    d.accept = true;
    server_qp = &nic_b->create_qp(cq_b, {});
    d.qp = server_qp;
    d.private_data = to_bytes("world");
    d.on_established = [&] { established = true; };
    return d;
  });

  QueuePair& client_qp = nic_a->create_qp(cq_a, {});
  std::optional<CmAgent::ConnectResult> result;
  nic_a->cm().connect(nic_b->ip(), 42, client_qp, to_bytes("hello"),
                      [&](StatusOr<CmAgent::ConnectResult> r) {
                        ASSERT_TRUE(r.is_ok());
                        result = r.value();
                      });
  sim.run();

  ASSERT_TRUE(result.has_value());
  ASSERT_NE(server_qp, nullptr);
  EXPECT_TRUE(established);
  EXPECT_EQ(result->remote_ip, nic_b->ip());
  EXPECT_EQ(result->remote_qpn, server_qp->qpn());
  EXPECT_EQ(result->private_data, to_bytes("world"));
  // Both halves are RTS and point at each other.
  EXPECT_EQ(client_qp.state(), QpState::kRts);
  EXPECT_EQ(server_qp->state(), QpState::kRts);
  EXPECT_EQ(client_qp.remote_qpn(), server_qp->qpn());
  EXPECT_EQ(server_qp->remote_qpn(), client_qp.qpn());
  // PSN agreement: each side expects what the other sends.
  EXPECT_EQ(client_qp.next_send_psn(), server_qp->expected_recv_psn());
  EXPECT_EQ(server_qp->next_send_psn(), client_qp.expected_recv_psn());
}

TEST_F(CmFixture, ConnectedQpsCarryTraffic) {
  QueuePair* server_qp = nullptr;
  auto& region = mem_b.register_region(4096, kAccessRemoteWrite);
  nic_b->cm().listen(1, [&](const CmMessage&, Ipv4Addr) {
    CmAgent::AcceptDecision d;
    d.accept = true;
    server_qp = &nic_b->create_qp(cq_b, {});
    d.qp = server_qp;
    return d;
  });
  QueuePair& client_qp = nic_a->create_qp(cq_a, {});
  bool wrote = false;
  nic_a->cm().connect(nic_b->ip(), 1, client_qp, {},
                      [&](StatusOr<CmAgent::ConnectResult> r) {
                        ASSERT_TRUE(r.is_ok());
                        ASSERT_TRUE(client_qp
                                        .post({.wr_id = 9,
                                               .remote_vaddr = region.vaddr(),
                                               .rkey = region.rkey(),
                                               .payload = to_bytes("payload")})
                                        .is_ok());
                        wrote = true;
                      });
  sim.run();
  EXPECT_TRUE(wrote);
  EXPECT_EQ(Bytes(region.bytes(), region.bytes() + 7), to_bytes("payload"));
}

TEST_F(CmFixture, RejectionPropagatesReason) {
  nic_b->cm().listen(5, [&](const CmMessage&, Ipv4Addr) {
    CmAgent::AcceptDecision d;
    d.accept = false;
    d.reject_reason = 77;
    return d;
  });
  QueuePair& qp = nic_a->create_qp(cq_a, {});
  Status status = Status::ok();
  nic_a->cm().connect(nic_b->ip(), 5, qp, {}, [&](StatusOr<CmAgent::ConnectResult> r) {
    status = r.status();
  });
  sim.run();
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_NE(status.message().find("77"), std::string::npos);
}

TEST_F(CmFixture, UnknownServiceRejected) {
  QueuePair& qp = nic_a->create_qp(cq_a, {});
  Status status = Status::ok();
  nic_a->cm().connect(nic_b->ip(), 999, qp, {}, [&](StatusOr<CmAgent::ConnectResult> r) {
    status = r.status();
  });
  sim.run();
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

TEST_F(CmFixture, TimeoutWhenPeerUnreachable) {
  link.cut();
  QueuePair& qp = nic_a->create_qp(cq_a, {});
  Status status = Status::ok();
  nic_a->cm().connect(nic_b->ip(), 1, qp, {},
                      [&](StatusOr<CmAgent::ConnectResult> r) { status = r.status(); },
                      /*timeout=*/5'000'000);
  sim.run();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_GE(sim.now(), 5'000'000);
}

TEST_F(CmFixture, VirtualConnectAdvertisesCallerChosenEndpoint) {
  // The P4CE control-plane trick: no backing QP; the responder believes it
  // talks to QPN 0xc0de starting at PSN 7777.
  QueuePair* server_qp = nullptr;
  nic_b->cm().listen(2, [&](const CmMessage& req, Ipv4Addr) {
    CmAgent::AcceptDecision d;
    d.accept = true;
    server_qp = &nic_b->create_qp(cq_b, {});
    d.qp = server_qp;
    EXPECT_EQ(req.sender_qpn, 0xc0deu);
    EXPECT_EQ(req.starting_psn, 7777u);
    return d;
  });
  bool connected = false;
  nic_a->cm().connect_virtual(nic_b->ip(), 2, 0xc0de, 7777, {},
                              [&](StatusOr<CmAgent::ConnectResult> r) {
                                ASSERT_TRUE(r.is_ok());
                                connected = true;
                              });
  sim.run();
  ASSERT_TRUE(connected);
  ASSERT_NE(server_qp, nullptr);
  EXPECT_EQ(server_qp->remote_qpn(), 0xc0deu);
  EXPECT_EQ(server_qp->expected_recv_psn(), 7777u);
}

TEST_F(CmFixture, VirtualAcceptNeedsNoQp) {
  nic_b->cm().listen(3, [&](const CmMessage&, Ipv4Addr) {
    CmAgent::AcceptDecision d;
    d.accept = true;
    d.virtual_qpn = 0x8001;
    d.virtual_start_psn = 42;
    return d;
  });
  std::optional<CmAgent::ConnectResult> result;
  QueuePair& qp = nic_a->create_qp(cq_a, {});
  nic_a->cm().connect(nic_b->ip(), 3, qp, {}, [&](StatusOr<CmAgent::ConnectResult> r) {
    ASSERT_TRUE(r.is_ok());
    result = r.value();
  });
  sim.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->remote_qpn, 0x8001u);
  EXPECT_EQ(result->remote_start_psn, 42u);
  EXPECT_EQ(qp.remote_qpn(), 0x8001u);
}

TEST_F(CmFixture, ConcurrentConnectsGetDistinctTransactions) {
  int accepted = 0;
  nic_b->cm().listen(4, [&](const CmMessage&, Ipv4Addr) {
    CmAgent::AcceptDecision d;
    d.accept = true;
    d.qp = &nic_b->create_qp(cq_b, {});
    ++accepted;
    return d;
  });
  int connected = 0;
  for (int i = 0; i < 5; ++i) {
    QueuePair& qp = nic_a->create_qp(cq_a, {});
    nic_a->cm().connect(nic_b->ip(), 4, qp, {},
                        [&](StatusOr<CmAgent::ConnectResult> r) { connected += r.is_ok(); });
  }
  sim.run();
  EXPECT_EQ(accepted, 5);
  EXPECT_EQ(connected, 5);
}

TEST_F(CmFixture, ListenerCanBeRemoved) {
  nic_b->cm().listen(6, [&](const CmMessage&, Ipv4Addr) {
    CmAgent::AcceptDecision d;
    d.accept = true;
    d.virtual_qpn = 1;
    return d;
  });
  nic_b->cm().unlisten(6);
  QueuePair& qp = nic_a->create_qp(cq_a, {});
  Status status = Status::ok();
  nic_a->cm().connect(nic_b->ip(), 6, qp, {},
                      [&](StatusOr<CmAgent::ConnectResult> r) { status = r.status(); });
  sim.run();
  EXPECT_EQ(status.code(), StatusCode::kAborted);
}

}  // namespace
}  // namespace p4ce::rdma
