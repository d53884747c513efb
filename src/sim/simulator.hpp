// Discrete-event simulation kernel: one priority queue of events ordered
// by time, executed serially. Equal-time events run in scheduling order, so
// a program always executes the same events in the same order. "Scheduling
// order" is spelled out as a key (when, lineage, seq): the instant an event
// was scheduled, the instant its scheduler was scheduled, then a global
// ticket. For events scheduled from running events that is exactly ticket
// order. A packet hop folded into its predecessor (see net::Link) schedules
// its successor early but names the lineage the folded hop would have
// given it, so the successor keeps its place among equal-time events.
//
// Allocation-free in steady state. Each event lives in a slot of a chunked
// slab whose chunks never move: schedule_at() builds the callable directly
// in its slot's SmallFn, and step() runs it there, so a callable is never
// relocated. The inline budget is sized from the largest per-packet hop
// closure, so packet events stay inline; a larger capture falls back to the
// heap and bumps the `sim.events_alloc` counter. Cancellation compares
// arm tickets, and postpone() re-arms a pending event in its slot, so a
// timer that is pushed back on every ACK keeps one queue entry. The
// priority queue itself holds only 32-byte POD entries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "common/types.hpp"

namespace p4ce::sim {

/// Convenience alias for stored callbacks held by components (timers etc.);
/// the kernel itself type-erases into SmallFn below.
using EventFn = std::function<void()>;

namespace detail {

/// Bumps the `sim.events_alloc` metric (defined in simulator.cpp so this
/// header does not depend on obs/).
void note_event_heap_alloc() noexcept;

/// Type-erased callable that is built, run and destroyed in place; it is
/// never moved or copied. A callable that does not fit the inline buffer
/// lives on the heap (counted).
class SmallFn {
 public:
  /// The largest closure the simulation schedules per packet hop: a
  /// `net::Packet` (272 B on x86-64 with libstdc++) plus three words, as in
  /// the link delivery and switch ingress events. Every hop closure goes
  /// through inline_event(), so one that outgrows this budget fails to
  /// compile instead of allocating.
  static constexpr std::size_t kInlineBytes = 296;

  template <class D>
  static constexpr bool fits_inline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t);

  SmallFn() noexcept = default;
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { reset(); }

  /// Construct `f` in this (empty) storage.
  template <class F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = inline_ops<D>();
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = heap_ops<D>();
      note_event_heap_alloc();
    }
  }

  void operator()() { ops_->invoke(storage_); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* slot);
    void (*destroy)(void* slot) noexcept;
  };

  template <class D>
  static const Ops* inline_ops() noexcept {
    static constexpr Ops ops{
        [](void* slot) { (*std::launder(reinterpret_cast<D*>(slot)))(); },
        [](void* slot) noexcept { std::launder(reinterpret_cast<D*>(slot))->~D(); },
    };
    return &ops;
  }

  template <class D>
  static const Ops* heap_ops() noexcept {
    static constexpr Ops ops{
        [](void* slot) { (**std::launder(reinterpret_cast<D**>(slot)))(); },
        [](void* slot) noexcept { delete *std::launder(reinterpret_cast<D**>(slot)); },
    };
    return &ops;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace detail

/// Passes `fn` through unchanged, and fails to compile unless it fits an
/// event slot's inline buffer. Per-packet hop closures are wrapped in it so
/// the packet path can never fall back to a heap allocation.
template <class F>
constexpr F&& inline_event(F&& fn) noexcept {
  static_assert(detail::SmallFn::fits_inline<std::decay_t<F>>,
                "closure exceeds detail::SmallFn::kInlineBytes");
  return std::forward<F>(fn);
}

class Simulator;

/// Where an event sits among events at the same instant: the instant it was
/// scheduled at, and the instant the event that scheduled it was itself
/// scheduled at. Simulator::lineage() gives what an event scheduled now
/// gets; an event scheduled on behalf of a hop that runs later names that
/// hop's instants instead.
struct Lineage {
  SimTime scheduled = 0;
  SimTime parent_scheduled = 0;
};

/// Handle to a scheduled event; allows cancellation (e.g. retransmit timers).
/// A handle is a (slot, arm ticket) pair into the event slab:
/// cancel/pending compare tickets, so handles to long-fired or recycled
/// slots are always safely inert. Handles must not outlive the Simulator.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Safe to call repeatedly.
  void cancel() noexcept;

  /// Move a pending event to `delay` ns from now, keeping its callable and
  /// its handle. Same effect as cancel() followed by schedule() of the same
  /// callable: the event takes its (when, lineage, seq) key now, so all
  /// events run in the same order. (If the event is then cancelled, its
  /// queue entry is dropped at the old time, so the clock a draining run()
  /// stops at can be earlier.) Returns false, and changes nothing, if the
  /// event has fired or been cancelled, or if the new time is earlier than
  /// the old one.
  bool postpone(Duration delay) noexcept;

  bool pending() const noexcept;

 private:
  friend class Simulator;

  EventHandle(Simulator* sim, u32 slot, u64 ticket) noexcept
      : sim_(sim), slot_(slot), ticket_(ticket) {}

  Simulator* sim_ = nullptr;
  u32 slot_ = 0;
  u64 ticket_ = 0;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` ns from now (>= 0).
  template <class F>
  EventHandle schedule(Duration delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedule `fn` at absolute simulated time `when` (>= now()). The
  /// callable is built in its event slot and runs there.
  template <class F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    return schedule_at(when, lineage(), std::forward<F>(fn));
  }

  /// Schedule `fn` at `when` as if the scheduling happened with `lineage`
  /// (instants <= when): it runs before equal-time events whose lineage
  /// compares greater, in ticket order among equal lineages.
  template <class F>
  EventHandle schedule_at(SimTime when, Lineage lineage, F&& fn) {
    const u32 index = acquire_slot();
    slot_at(index).fn.emplace(std::forward<F>(fn));
    return arm(index, when, lineage);
  }

  /// The lineage an event scheduled now gets: now, and the scheduling
  /// instant of the running event (or, outside events, of the last event
  /// run at this instant; none means before them all).
  Lineage lineage() const noexcept { return Lineage{now_, running_scheduled_}; }

  /// Run until the event queue drains or `stop()` is called.
  void run();

  /// Run events with timestamp <= `deadline`; afterwards now() == deadline
  /// (unless stopped earlier).
  void run_until(SimTime deadline);

  /// Run for `span` more nanoseconds of simulated time.
  void run_for(Duration span) { run_until(now_ + span); }

  /// Stop the run loop after the current event returns.
  void stop() noexcept { stopped_ = true; }

  u64 events_executed() const noexcept { return executed_; }

  /// Capacity introspection: currently allocated event slots (high-water of
  /// concurrently outstanding events, recycled forever after).
  std::size_t event_slab_size() const noexcept { return slot_count_; }

 private:
  friend class EventHandle;

  /// One recycled record in the event slab. `ticket` is the seq the
  /// pending occupant was armed with (0: none pending); handles carry it,
  /// and a queue entry belongs to the occupant iff its seq is not older.
  /// Tickets are never reused, so entries and handles from earlier uses of
  /// the slot can never touch the current occupant. `when`, `tie` and `seq`
  /// are the event's current key; postpone() moves them past the key of its
  /// queue entry (the occupant's only one), which step() then re-keys
  /// instead of running.
  struct EventSlot {
    SimTime when = 0;
    u64 tie = 0;
    u64 seq = 0;
    u64 ticket = 0;
    detail::SmallFn fn;
  };
  /// What the priority queue actually orders: plain PODs.
  struct QueueEntry {
    SimTime when;
    u64 tie;
    u64 seq;
    u32 slot;
  };
  struct Later {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      if (a.tie != b.tie) return a.tie > b.tie;
      return a.seq > b.seq;
    }
  };

  // The slab grows in fixed-size chunks so slots never move: a callable
  // stays where it was built while the slab grows under a running event.
  static constexpr u32 kSlabChunkShift = 8;
  static constexpr u32 kSlabChunkSlots = 1u << kSlabChunkShift;

  EventSlot& slot_at(u32 index) noexcept {
    return slab_[index >> kSlabChunkShift][index & (kSlabChunkSlots - 1)];
  }
  const EventSlot& slot_at(u32 index) const noexcept {
    return slab_[index >> kSlabChunkShift][index & (kSlabChunkSlots - 1)];
  }

  u32 acquire_slot();  // an empty slot, recycled or new
  EventHandle arm(u32 index, SimTime when, Lineage lineage);  // queue the slot's callable

  // The lineage of an event at `when`, packed so that one integer compare
  // orders it: how far back it was scheduled, then how far back from there
  // its scheduler was, each saturated at 2^32 - 1 ns (4.3 s) and larger
  // first. Saturation keeps the order: two saturated distances tie, and
  // tickets then follow execution order.
  static constexpr u64 kTieMax = 0xffff'ffffu;
  static u64 tie_key(SimTime when, Lineage lineage) noexcept {
    const u64 back = static_cast<u64>(when - lineage.scheduled);
    const u64 parent_back = static_cast<u64>(lineage.scheduled - lineage.parent_scheduled);
    return (kTieMax - std::min(back, kTieMax)) << 32 | (kTieMax - std::min(parent_back, kTieMax));
  }
  static SimTime scheduled_of(SimTime when, u64 tie) noexcept {
    return when - static_cast<SimTime>(kTieMax - (tie >> 32));
  }
  bool step();  // execute the earliest event; false if the queue is empty
  void cancel_event(u32 slot, u64 ticket) noexcept;
  bool postpone_event(u32 slot, u64 ticket, Duration delay) noexcept;
  bool event_pending(u32 slot, u64 ticket) const noexcept;

  std::priority_queue<QueueEntry, std::vector<QueueEntry>, Later> queue_;
  std::vector<std::unique_ptr<EventSlot[]>> slab_;
  u32 slot_count_ = 0;
  std::vector<u32> free_slots_;
  SimTime now_ = 0;
  /// lineage().parent_scheduled: the scheduling instant of the running
  /// event, or of the last one run at now_; -1 if none ran at now_ yet.
  SimTime running_scheduled_ = -1;
  u64 next_seq_ = 1;  ///< 0 is no ticket
  u64 executed_ = 0;
  bool stopped_ = false;
};

inline void EventHandle::cancel() noexcept {
  if (sim_ != nullptr) sim_->cancel_event(slot_, ticket_);
}

inline bool EventHandle::postpone(Duration delay) noexcept {
  return sim_ != nullptr && sim_->postpone_event(slot_, ticket_, delay);
}

inline bool EventHandle::pending() const noexcept {
  return sim_ != nullptr && sim_->event_pending(slot_, ticket_);
}

/// A repeating timer built on the kernel; reschedules itself until stopped.
/// Used for heartbeats, liveness checks and re-acceleration probes.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Duration period, EventFn fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}
  ~PeriodicTimer() { stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start() {
    if (running_) return;
    running_ = true;
    arm();
  }

  void stop() noexcept {
    running_ = false;
    handle_.cancel();
  }

  bool running() const noexcept { return running_; }
  Duration period() const noexcept { return period_; }

 private:
  void arm() {
    handle_ = sim_.schedule(period_, [this] {
      if (!running_) return;
      fn_();
      if (running_) arm();
    });
  }

  Simulator& sim_;
  Duration period_;
  EventFn fn_;
  EventHandle handle_;
  bool running_ = false;
};

}  // namespace p4ce::sim
