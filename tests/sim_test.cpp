// Unit tests for the discrete-event kernel: ordering, cancellation,
// postponement, deterministic ties, in-place execution, timers, and the
// serial CPU model.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace p4ce::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(100, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, NestedSchedulingFromEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] {
    order.push_back(1);
    sim.schedule(5, [&] { order.push_back(2); });
  });
  sim.schedule(20, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, CancelAfterFireIsSafe) {
  Simulator sim;
  EventHandle handle = sim.schedule(1, [] {});
  sim.run();
  handle.cancel();  // must not crash
  EXPECT_FALSE(handle.pending());
}

TEST(Simulator, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule(10, [&] { ++count; });
  sim.schedule(100, [&] { ++count; });
  sim.run_until(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run_until(200);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  int count = 0;
  sim.schedule(1, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule(2, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.schedule(5, [] {});
  sim.run_for(10);
  EXPECT_EQ(sim.now(), 10);
  sim.run_for(10);
  EXPECT_EQ(sim.now(), 20);
}

TEST(PeriodicTimer, FiresRepeatedlyUntilStopped) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] { ++fires; });
  timer.start();
  sim.run_until(55);
  EXPECT_EQ(fires, 5);
  timer.stop();
  sim.run_until(200);
  EXPECT_EQ(fires, 5);
}

TEST(PeriodicTimer, RestartAfterStop) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] { ++fires; });
  timer.start();
  sim.run_until(25);
  timer.stop();
  timer.start();
  sim.run_until(100);
  EXPECT_EQ(fires, 2 + 7);
}

TEST(PeriodicTimer, StopFromWithinCallback) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 10, [&] {
    if (++fires == 3) sim.stop();
  });
  timer.start();
  sim.run();
  timer.stop();
  EXPECT_EQ(fires, 3);
}

TEST(CpuExecutor, SerializesTasks) {
  Simulator sim;
  CpuExecutor cpu(sim);
  std::vector<SimTime> completions;
  cpu.execute(100, [&] { completions.push_back(sim.now()); });
  cpu.execute(100, [&] { completions.push_back(sim.now()); });
  cpu.execute(50, [&] { completions.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], 100);
  EXPECT_EQ(completions[1], 200);
  EXPECT_EQ(completions[2], 250);
  EXPECT_EQ(cpu.busy_time(), 250);
  EXPECT_EQ(cpu.tasks_executed(), 3u);
}

TEST(CpuExecutor, BacklogReflectsQueuedWork) {
  Simulator sim;
  CpuExecutor cpu(sim);
  cpu.execute(1000, [] {});
  cpu.execute(1000, [] {});
  EXPECT_EQ(cpu.backlog(), 2000);
  sim.run_until(500);
  EXPECT_EQ(cpu.backlog(), 1500);
  sim.run();
  EXPECT_EQ(cpu.backlog(), 0);
}

TEST(CpuExecutor, IdleGapsDoNotAccumulate) {
  Simulator sim;
  CpuExecutor cpu(sim);
  cpu.execute(10, [] {});
  sim.run();
  EXPECT_EQ(sim.now(), 10);
  // Schedule more work later; it starts at now, not at old busy_until.
  sim.schedule(100, [&] { cpu.execute(10, [&] { EXPECT_EQ(sim.now(), 120); }); });
  sim.run();
  EXPECT_EQ(sim.now(), 120);
}

TEST(CpuExecutor, HaltDropsPendingTasks) {
  Simulator sim;
  CpuExecutor cpu(sim);
  int ran = 0;
  cpu.execute(10, [&] { ++ran; });
  cpu.execute(10, [&] { ++ran; });
  sim.run_until(15);
  cpu.halt();
  sim.run();
  EXPECT_EQ(ran, 1);
  cpu.execute(10, [&] { ++ran; });  // ignored after halt
  sim.run();
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, SlabRecyclesSlotsAcrossWaves) {
  Simulator sim;
  int fired = 0;
  for (int wave = 0; wave < 20; ++wave) {
    for (int i = 0; i < 64; ++i) sim.schedule(1, [&] { ++fired; });
    sim.run();
  }
  EXPECT_EQ(fired, 20 * 64);
  // The slab's high-water mark is one wave of concurrently outstanding
  // events, not the cumulative total.
  EXPECT_LE(sim.event_slab_size(), 64u);
}

TEST(Simulator, StaleHandleCannotTouchRecycledSlot) {
  Simulator sim;
  EventHandle old = sim.schedule(1, [] {});
  sim.run();
  // The slot is recycled; the next event very likely reuses it. The stale
  // handle's generation no longer matches, so cancel() must be inert.
  bool fired = false;
  EventHandle fresh = sim.schedule(1, [&] { fired = true; });
  old.cancel();
  EXPECT_FALSE(old.pending());
  EXPECT_TRUE(fresh.pending());
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelledSlotIsReused) {
  Simulator sim;
  EventHandle h = sim.schedule(100, [] {});
  h.cancel();
  bool fired = false;
  sim.schedule(10, [&] { fired = true; });
  EXPECT_EQ(sim.event_slab_size(), 1u);  // the cancelled slot was recycled
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, SmallCapturesDoNotHeapAllocate) {
  auto& alloc_counter = obs::MetricsRegistry::global().counter("sim.events_alloc");
  Simulator sim;
  const u64 before = alloc_counter.value();
  int x = 0;
  for (int i = 0; i < 100; ++i) {
    sim.schedule(i, [&sim, &x, i] { x += i + static_cast<int>(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(alloc_counter.value(), before);

  // An oversized capture falls back to the heap — and is counted.
  struct Big {
    unsigned char blob[1024] = {};
  } big;
  bool fired = false;
  sim.schedule(1, [big, &fired] {
    fired = true;
    (void)big;
  });
  EXPECT_EQ(alloc_counter.value(), before + 1);
  sim.run();
  EXPECT_TRUE(fired);
}

// The per-packet hop closures (link delivery, switch ingress, NIC rx) carry
// a Packet plus up to three words (a pointer and two instants); they must
// fit the slot's inline buffer (inline_event() checks it at compile time),
// or every hop would heap-allocate.
TEST(Simulator, PacketCapturesStayInline) {
  auto& alloc_counter = obs::MetricsRegistry::global().counter("sim.events_alloc");
  Simulator sim;
  const u64 before = alloc_counter.value();
  u64 delivered = 0;
  net::Packet packet;
  packet.payload = Bytes(64, 0xab);
  sim.schedule(1, inline_event([&delivered, p = packet] {
    delivered += p.payload.size();
  }));
  const SimTime sent = 1, at = 2;
  sim.schedule(2, inline_event([&delivered, sent, at, p = std::move(packet)] {
    EXPECT_LT(sent, at);
    delivered += p.payload.size();
  }));
  sim.run();
  EXPECT_EQ(delivered, 128u);
  EXPECT_EQ(alloc_counter.value(), before);
}

// An event scheduled early on behalf of a hop that would run later keeps
// the place among equal-time events that the hop would have given it.
TEST(Simulator, LineageKeepsTheOrderOfAFoldedHop) {
  const auto order = [](bool fold) {
    Simulator sim;
    std::string out;
    if (fold) {
      sim.schedule_at(20, Lineage{16, 0}, [&] { out += 'x'; });
    } else {
      sim.schedule(16, [&] { sim.schedule_at(20, [&] { out += 'x'; }); });
    }
    sim.schedule(15, [&] { sim.schedule_at(20, [&] { out += 'y'; }); });
    sim.run();
    return out;
  };
  EXPECT_EQ(order(false), "yx");
  EXPECT_EQ(order(true), "yx");
}

TEST(Simulator, PostponedEventFiresOnceAtItsNewTime) {
  Simulator sim;
  std::vector<SimTime> fired;
  EventHandle h = sim.schedule(10, [&] { fired.push_back(sim.now()); });
  sim.run_until(5);
  EXPECT_TRUE(h.postpone(20));  // now 5 -> fires at 25
  EXPECT_TRUE(h.pending());
  sim.run_until(24);
  EXPECT_TRUE(fired.empty());
  sim.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{25}));
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_FALSE(h.pending());
}

// postpone() takes its tie-break ticket at call time, exactly like a
// cancel() + schedule() pair made at the same point.
TEST(Simulator, PostponeOrdersLikeCancelAndSchedule) {
  const auto order = [](bool use_postpone) {
    Simulator sim;
    std::vector<int> out;
    EventHandle timer = sim.schedule(50, [&] { out.push_back(0); });
    sim.schedule(100, [&] { out.push_back(1); });
    sim.schedule(30, [&] {
      if (use_postpone) {
        timer.postpone(70);
      } else {
        timer.cancel();
        timer = sim.schedule(70, [&] { out.push_back(0); });
      }
      sim.schedule(70, [&] { out.push_back(2); });
    });
    sim.schedule(100, [&] { out.push_back(3); });
    sim.run();
    return out;
  };
  EXPECT_EQ(order(true), (std::vector<int>{1, 3, 0, 2}));
  EXPECT_EQ(order(true), order(false));
}

TEST(Simulator, CancelAfterPostponeWorks) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.schedule(10, [&] { fired = true; });
  ASSERT_TRUE(h.postpone(40));
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, PostponeIsANoOpUnlessPendingAndLater) {
  Simulator sim;
  int fires = 0;
  EventHandle fired = sim.schedule(1, [&] { ++fires; });
  sim.run();
  EXPECT_FALSE(fired.postpone(10));

  EventHandle cancelled = sim.schedule(5, [&] { ++fires; });
  cancelled.cancel();
  EXPECT_FALSE(cancelled.postpone(10));

  std::vector<SimTime> when;
  EventHandle later = sim.schedule(50, [&] { when.push_back(sim.now()); });
  EXPECT_FALSE(later.postpone(20));  // earlier than 50: stays at 50
  EXPECT_FALSE(EventHandle().postpone(1));
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(when, (std::vector<SimTime>{51}));
}

TEST(Simulator, EventThatCancelsOrPostponesItselfRunsNormally) {
  Simulator sim;
  EventHandle self;
  std::string seen;
  const std::string text(100, 'x');  // a capture that owns heap memory
  self = sim.schedule(10, [&, text] {
    self.cancel();
    EXPECT_FALSE(self.postpone(5));
    seen = text;  // the captures are still alive after the self-cancel
  });
  sim.run();
  EXPECT_EQ(seen, text);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, EventThatGrowsTheSlabRunsNormally) {
  Simulator sim;
  const std::string text(100, 'y');
  std::string seen;
  int children = 0;
  sim.schedule(1, [&, text] {
    // Many more concurrent events than one slab chunk holds.
    for (int i = 0; i < 1000; ++i) sim.schedule(1, [&] { ++children; });
    seen = text;  // still readable: the running slot did not move
  });
  sim.run();
  EXPECT_EQ(seen, text);
  EXPECT_EQ(children, 1000);
  EXPECT_GT(sim.event_slab_size(), 1000u);
}

class EventStormTest : public ::testing::TestWithParam<int> {};

TEST_P(EventStormTest, ManyEventsAllExecuteInOrder) {
  Simulator sim;
  const int n = GetParam();
  SimTime last = -1;
  int executed = 0;
  for (int i = 0; i < n; ++i) {
    sim.schedule((i * 7919) % 1000, [&, i] {
      EXPECT_GE(sim.now(), last);
      last = sim.now();
      ++executed;
    });
  }
  sim.run();
  EXPECT_EQ(executed, n);
  EXPECT_EQ(sim.events_executed(), static_cast<u64>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EventStormTest, ::testing::Values(10, 1000, 50000));

}  // namespace
}  // namespace p4ce::sim
