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

EventHandle Simulator::arm(u32 index, SimTime when) {
  assert(when >= now_ && "cannot schedule into the past");
  EventSlot& slot = slot_at(index);
  slot.when = when;
  slot.seq = next_seq_++;
  slot.armed = true;
  const u64 gen = ++slot.gen;
  queue_.push(QueueEntry{when, slot.seq, index, gen});
  return EventHandle(this, index, gen);
}

// --- Cancellation and postponement -------------------------------------------

void Simulator::cancel_event(u32 slot_index, u64 gen) noexcept {
  if (slot_index >= slot_count_) return;
  EventSlot& slot = slot_at(slot_index);
  if (slot.gen != gen || !slot.armed) return;
  // The stale queue entry stays behind; its generation no longer matches,
  // so step() skips it. Free the captures now (they may pin packets).
  slot.armed = false;
  slot.fn.reset();
  free_slots_.push_back(slot_index);
}

bool Simulator::postpone_event(u32 slot_index, u64 gen, Duration delay) noexcept {
  if (slot_index >= slot_count_) return false;
  EventSlot& slot = slot_at(slot_index);
  const SimTime when = now_ + delay;
  if (slot.gen != gen || !slot.armed || when < slot.when) return false;
  // Take the ticket schedule() would take now. The queue entry keeps the
  // old, earlier key until it reaches the top; step() then re-keys it.
  slot.when = when;
  slot.seq = next_seq_++;
  return true;
}

bool Simulator::event_pending(u32 slot_index, u64 gen) const noexcept {
  if (slot_index >= slot_count_) return false;
  const EventSlot& slot = slot_at(slot_index);
  return slot.gen == gen && slot.armed;
}

// --- Event execution ---------------------------------------------------------

bool Simulator::step() {
  if (queue_.empty()) return false;
  const QueueEntry entry = queue_.top();
  queue_.pop();
  now_ = entry.when;
  EventSlot& slot = slot_at(entry.slot);
  if (slot.gen != entry.gen || !slot.armed) return true;  // cancelled
  if (slot.seq != entry.seq) {
    // Postponed: the entry goes back under the slot's current key, where
    // cancel() + schedule() would have put a fresh one.
    queue_.push(QueueEntry{slot.when, slot.seq, entry.slot, entry.gen});
    return true;
  }
  // Run the callable where it was built. Disarm first, so the event can
  // neither cancel nor postpone itself; recycle the slot only afterwards,
  // so what the event schedules cannot reuse it while it runs. Chunks never
  // move, so `slot` stays valid if the event grows the slab.
  slot.armed = false;
  ++executed_;
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
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

}  // namespace p4ce::sim
