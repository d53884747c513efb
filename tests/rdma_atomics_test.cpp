// Verbs atomics over the RC transport: CAS, fetch-and-add and masked-CAS
// end to end between two NICs — original-value reporting, responder-side
// serialization under contention, alignment/permission enforcement, and the
// RC-ordering guarantee the one-sided consensus backend leans on (an atomic
// response completes the unsignaled writes posted before it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "rdma/cm.hpp"
#include "rdma/nic.hpp"
#include "sim/simulator.hpp"

namespace p4ce::rdma {
namespace {

struct AtomicsFixture : ::testing::Test {
  sim::Simulator sim;
  MemoryManager mem_a{1}, mem_b{2};
  net::Link link{sim, 100.0, 150};
  std::unique_ptr<Nic> nic_a, nic_b;
  CompletionQueue cq_a, cq_b;
  QueuePair* qp_a = nullptr;
  QueuePair* qp_b = nullptr;
  MemoryRegion* region_b = nullptr;

  std::vector<Completion> completions_a;

  void SetUp() override {
    nic_a = std::make_unique<Nic>(sim, "a", net::make_ip(0, 1), 0xA, mem_a);
    nic_b = std::make_unique<Nic>(sim, "b", net::make_ip(0, 2), 0xB, mem_b);
    link.attach(nic_a.get(), nic_b.get());
    nic_a->attach_link(&link, 0);
    nic_b->attach_link(&link, 1);
    cq_a.set_callback([this](const Completion& c) { completions_a.push_back(c); });
    qp_a = &nic_a->create_qp(cq_a, QpConfig{});
    qp_b = &nic_b->create_qp(cq_b, QpConfig{});
    qp_a->connect(nic_b->ip(), qp_b->qpn(), /*our_psn=*/100, /*expect=*/500);
    qp_b->connect(nic_a->ip(), qp_a->qpn(), /*our_psn=*/500, /*expect=*/100);
    region_b = &mem_b.register_region(
        1 << 16, kAccessRemoteRead | kAccessRemoteWrite | kAccessRemoteAtomic);
  }

  u64 word_at(u64 offset) const {
    u64 v = 0;
    std::memcpy(&v, region_b->bytes() + offset, 8);
    return v;
  }

  void set_word(u64 offset, u64 v) { std::memcpy(region_b->bytes() + offset, &v, 8); }
};

TEST_F(AtomicsFixture, CasSwapsOnMatchAndReportsOriginal) {
  set_word(0, 17);
  ASSERT_TRUE(
      qp_a->post({.wr_id = 1,
                  .opcode = Opcode::kCompareSwap,
                  .remote_vaddr = region_b->vaddr(),
                  .rkey = region_b->rkey(),
                  .atomic = {.compare = 17, .swap_add = 99}})
          .is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);
  EXPECT_EQ(completions_a[0].atomic_original, 17u);
  EXPECT_EQ(word_at(0), 99u);
}

TEST_F(AtomicsFixture, CasMismatchLeavesWordAndReportsOriginal) {
  set_word(8, 41);
  ASSERT_TRUE(
      qp_a->post({.wr_id = 2,
                  .opcode = Opcode::kCompareSwap,
                  .remote_vaddr = region_b->vaddr() + 8,
                  .rkey = region_b->rkey(),
                  .atomic = {.compare = 7, .swap_add = 99}})
          .is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);  // a failed compare is not an error
  EXPECT_EQ(completions_a[0].atomic_original, 41u);
  EXPECT_EQ(word_at(8), 41u);
}

TEST_F(AtomicsFixture, FetchAddAccumulatesAndReportsEachOriginal) {
  for (u64 i = 0; i < 4; ++i) {
    ASSERT_TRUE(qp_a->post({.wr_id = 10 + i,
                            .opcode = Opcode::kFetchAdd,
                            .remote_vaddr = region_b->vaddr(),
                            .rkey = region_b->rkey(),
                            .atomic = {.swap_add = 5}}).is_ok());
  }
  sim.run();
  ASSERT_EQ(completions_a.size(), 4u);
  for (u64 i = 0; i < 4; ++i) {
    EXPECT_EQ(completions_a[i].status, WcStatus::kSuccess);
    EXPECT_EQ(completions_a[i].atomic_original, i * 5);  // arrival-order serialization
  }
  EXPECT_EQ(word_at(0), 20u);
}

TEST_F(AtomicsFixture, FetchAddZeroIsAnAtomicRead) {
  set_word(16, 0xdeadbeef);
  ASSERT_TRUE(qp_a->post({.wr_id = 3,
                          .opcode = Opcode::kFetchAdd,
                          .remote_vaddr = region_b->vaddr() + 16,
                          .rkey = region_b->rkey(),
                          .atomic = {.swap_add = 0}}).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].atomic_original, 0xdeadbeefu);
  EXPECT_EQ(word_at(16), 0xdeadbeefu);
}

TEST_F(AtomicsFixture, MaskedCasComparesAndWritesOnlyMaskedBits) {
  // Word holds [ballot:16][stamp:48]; raise the ballot while preserving the
  // stamp — the one-sided prepare.
  const u64 stamp = 0x0000'1234'5678'9abcull;
  set_word(24, stamp);
  constexpr u64 kStampMask = (u64{1} << 48) - 1;
  ASSERT_TRUE(qp_a->post({.wr_id = 4,
                          .opcode = Opcode::kMaskedCompareSwap,
                          .remote_vaddr = region_b->vaddr() + 24,
                          .rkey = region_b->rkey(),
                          .atomic = {.compare = 0,
                                     .swap_add = u64{7} << 48,
                                     .compare_mask = 0,
                                     .swap_mask = ~kStampMask}})
                  .is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);
  EXPECT_EQ(completions_a[0].atomic_original, stamp);
  EXPECT_EQ(word_at(24), (u64{7} << 48) | stamp);
}

TEST_F(AtomicsFixture, MaskedCasMismatchOnMaskedBitsLeavesWord) {
  set_word(32, u64{9} << 48);
  ASSERT_TRUE(qp_a->post({.wr_id = 5,
                          .opcode = Opcode::kMaskedCompareSwap,
                          .remote_vaddr = region_b->vaddr() + 32,
                          .rkey = region_b->rkey(),
                          .atomic = {.compare = u64{1} << 48,
                                     .swap_add = 0xff,
                                     .compare_mask = ~((u64{1} << 48) - 1),
                                     .swap_mask = 0xff}})
                  .is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].atomic_original, u64{9} << 48);
  EXPECT_EQ(word_at(32), u64{9} << 48);
}

TEST_F(AtomicsFixture, ContendingConnectionsSerializeAtTheResponder) {
  // A second connection racing FAAs on the same word: the responder executes
  // all atomics in arrival order regardless of source QP, so the originals
  // across both connections form a permutation of the partial sums and the
  // final word is the total.
  CompletionQueue cq_a2;
  std::vector<Completion> completions_a2;
  cq_a2.set_callback([&](const Completion& c) { completions_a2.push_back(c); });
  QueuePair* qp_a2 = &nic_a->create_qp(cq_a2, QpConfig{});
  QueuePair* qp_b2 = &nic_b->create_qp(cq_b, QpConfig{});
  qp_a2->connect(nic_b->ip(), qp_b2->qpn(), /*our_psn=*/1, /*expect=*/2);
  qp_b2->connect(nic_a->ip(), qp_a2->qpn(), /*our_psn=*/2, /*expect=*/1);

  for (u64 i = 0; i < 8; ++i) {
    ASSERT_TRUE(qp_a->post({.wr_id = 100 + i,
                            .opcode = Opcode::kFetchAdd,
                            .remote_vaddr = region_b->vaddr(),
                            .rkey = region_b->rkey(),
                            .atomic = {.swap_add = 1}}).is_ok());
    ASSERT_TRUE(qp_a2->post({.wr_id = 200 + i,
                             .opcode = Opcode::kFetchAdd,
                             .remote_vaddr = region_b->vaddr(),
                             .rkey = region_b->rkey(),
                             .atomic = {.swap_add = 1}}).is_ok());
  }
  sim.run();
  ASSERT_EQ(completions_a.size(), 8u);
  ASSERT_EQ(completions_a2.size(), 8u);
  EXPECT_EQ(word_at(0), 16u);
  std::vector<u64> originals;
  for (const auto& c : completions_a) originals.push_back(c.atomic_original);
  for (const auto& c : completions_a2) originals.push_back(c.atomic_original);
  std::sort(originals.begin(), originals.end());
  for (u64 i = 0; i < 16; ++i) EXPECT_EQ(originals[i], i);  // every partial sum exactly once
}

TEST_F(AtomicsFixture, MisalignedTargetFailsWithRemoteInvalidRequest) {
  ASSERT_TRUE(
      qp_a->post({.wr_id = 6,
                  .opcode = Opcode::kCompareSwap,
                  .remote_vaddr = region_b->vaddr() + 4,
                  .rkey = region_b->rkey(),
                  .atomic = {.compare = 0, .swap_add = 1}}).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kRemoteInvalidRequest);
  EXPECT_EQ(qp_a->state(), QpState::kError);
}

TEST_F(AtomicsFixture, RegionWithoutAtomicPermissionNaks) {
  MemoryRegion& plain =
      mem_b.register_region(64, kAccessRemoteRead | kAccessRemoteWrite);
  ASSERT_TRUE(qp_a->post({.wr_id = 7,
                          .opcode = Opcode::kCompareSwap,
                          .remote_vaddr = plain.vaddr(),
                          .rkey = plain.rkey(),
                          .atomic = {.compare = 0, .swap_add = 1}}).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kRemoteAccessError);
}

TEST_F(AtomicsFixture, RevokedWritePermissionFencesAtomicsToo) {
  // The Mu single-writer permission switch extends to atomics: a fenced-off
  // ex-leader cannot CAS consensus registers either.
  qp_b->set_allow_remote_write(false);
  ASSERT_TRUE(qp_a->post({.wr_id = 8,
                          .opcode = Opcode::kCompareSwap,
                          .remote_vaddr = region_b->vaddr(),
                          .rkey = region_b->rkey(),
                          .atomic = {.compare = 0, .swap_add = 1}}).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kRemoteAccessError);
  EXPECT_EQ(word_at(0), 0u);
}

TEST_F(AtomicsFixture, LostAtomicResponseIsReplayedNotReexecuted) {
  // The responder executes the FAA, then its response is lost. The
  // retransmitted request must be answered from the replay cache: a second
  // execution would add 5 twice.
  ASSERT_TRUE(qp_a->post({.wr_id = 1,
                          .opcode = Opcode::kFetchAdd,
                          .remote_vaddr = region_b->vaddr(),
                          .rkey = region_b->rkey(),
                          .atomic = {.swap_add = 5}})
                  .is_ok());
  while (qp_b->messages_received() == 0) sim.run_for(10);
  link.cut();
  sim.schedule(50'000, [&] { link.restore(); });
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);
  EXPECT_EQ(completions_a[0].atomic_original, 0u);
  EXPECT_EQ(word_at(0), 5u);
  EXPECT_GE(qp_a->retransmissions(), 1u);
}

TEST_F(AtomicsFixture, AtomicResponseCompletesPriorUnsignaledWrites) {
  // The one-sided fast path: an unsignaled write followed by a signaled CAS
  // on the same QP; the single CAS completion proves the write landed.
  Bytes data(256, 0x5a);
  ASSERT_TRUE(qp_a->post({.wr_id = 0,
                          .remote_vaddr = region_b->vaddr() + 1024,
                          .rkey = region_b->rkey(),
                          .payload = Bytes(data),
                          .signaled = false})
                  .is_ok());
  ASSERT_TRUE(qp_a->post({.wr_id = 9,
                          .opcode = Opcode::kCompareSwap,
                          .remote_vaddr = region_b->vaddr(),
                          .rkey = region_b->rkey(),
                          .atomic = {.compare = 0, .swap_add = 1}}).is_ok());
  sim.run();
  ASSERT_EQ(completions_a.size(), 1u);  // only the CAS completes
  EXPECT_EQ(completions_a[0].wr_id, 9u);
  EXPECT_EQ(completions_a[0].status, WcStatus::kSuccess);
  EXPECT_EQ(completions_a[0].atomic_original, 0u);
  EXPECT_EQ(word_at(0), 1u);
  EXPECT_EQ(Bytes(region_b->bytes() + 1024, region_b->bytes() + 1024 + 256), data);
}

}  // namespace
}  // namespace p4ce::rdma
