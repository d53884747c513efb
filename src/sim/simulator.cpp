#include "sim/simulator.hpp"

#include <cassert>

#include "obs/metrics.hpp"

namespace p4ce::sim {

namespace detail {

void note_event_heap_alloc() noexcept {
  // Cached once; instruments are never removed from the registry.
  static obs::Counter& c = obs::MetricsRegistry::global().counter("sim.events_alloc");
  c.inc();
}

}  // namespace detail

// --- Scheduling --------------------------------------------------------------

u32 Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const u32 index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if (slot_count_ == slab_.size() * kSlabChunkSlots) {
    slab_.push_back(std::make_unique<EventSlot[]>(kSlabChunkSlots));
  }
  return slot_count_++;
}

EventHandle Simulator::arm(u32 index, SimTime when, Lineage lineage) {
  assert(when >= now_ && "cannot schedule into the past");
  assert(lineage.scheduled <= when && lineage.parent_scheduled <= lineage.scheduled);
  EventSlot& slot = slot_at(index);
  slot.when = when;
  slot.tie = tie_key(when, lineage);
  slot.seq = next_seq_++;
  slot.ticket = slot.seq;
  queue_.push(QueueEntry{when, slot.tie, slot.seq, index});
  return EventHandle(this, index, slot.ticket);
}

// --- Cancellation and postponement -------------------------------------------

void Simulator::cancel_event(u32 slot_index, u64 ticket) noexcept {
  if (slot_index >= slot_count_) return;
  EventSlot& slot = slot_at(slot_index);
  if (ticket == 0 || slot.ticket != ticket) return;
  // The stale queue entry stays behind; the slot has no ticket now (or a
  // newer one), so step() skips it. Free the captures now (they may pin
  // packets).
  slot.ticket = 0;
  slot.fn.reset();
  free_slots_.push_back(slot_index);
}

bool Simulator::postpone_event(u32 slot_index, u64 ticket, Duration delay) noexcept {
  if (slot_index >= slot_count_) return false;
  EventSlot& slot = slot_at(slot_index);
  const SimTime when = now_ + delay;
  if (ticket == 0 || slot.ticket != ticket || when < slot.when) return false;
  // Take the ticket schedule() would take now. The queue entry keeps the
  // old, earlier key until it reaches the top; step() then re-keys it.
  slot.when = when;
  slot.tie = tie_key(when, lineage());
  slot.seq = next_seq_++;
  return true;
}

bool Simulator::event_pending(u32 slot_index, u64 ticket) const noexcept {
  if (slot_index >= slot_count_) return false;
  const EventSlot& slot = slot_at(slot_index);
  return ticket != 0 && slot.ticket == ticket;
}

// --- Event execution ---------------------------------------------------------

bool Simulator::step() {
  if (queue_.empty()) return false;
  const QueueEntry entry = queue_.top();
  queue_.pop();
  if (entry.when != now_) {
    now_ = entry.when;
    running_scheduled_ = -1;
  }
  EventSlot& slot = slot_at(entry.slot);
  if (slot.ticket == 0 || entry.seq < slot.ticket) return true;  // cancelled
  if (slot.seq != entry.seq) {
    // Postponed: the entry goes back under the slot's current key, where
    // cancel() + schedule() would have put a fresh one.
    queue_.push(QueueEntry{slot.when, slot.tie, slot.seq, entry.slot});
    return true;
  }
  // Run the callable where it was built. Disarm first, so the event can
  // neither cancel nor postpone itself; recycle the slot only afterwards,
  // so what the event schedules cannot reuse it while it runs. Chunks never
  // move, so `slot` stays valid if the event grows the slab.
  slot.ticket = 0;
  ++executed_;
  running_scheduled_ = scheduled_of(entry.when, entry.tie);
  slot.fn();
  slot.fn.reset();
  free_slots_.push_back(entry.slot);
  return true;
}

void Simulator::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.top().when <= deadline) step();
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
    running_scheduled_ = -1;
  }
}

}  // namespace p4ce::sim
