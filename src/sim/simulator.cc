#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"

namespace qsched::sim {

namespace {
// Typical experiments keep a few hundred events in flight (one per
// client plus controller timers); reserving up front keeps the hot path
// free of vector growth.
constexpr size_t kInitialCapacity = 256;
}  // namespace

Simulator::Simulator() { Reserve(kInitialCapacity); }

void Simulator::Reserve(size_t events) {
  slots_.reserve(events);
  free_slots_.reserve(events);
  heap_.reserve(events);
}

uint32_t Simulator::AllocSlot() {
  if (!free_slots_.empty()) {
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::FreeSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.Reset();
  s.heap_pos = kNoHeapPos;
  // Wrapping past 32 bits would resurrect ~4 billion-cancel-old handles;
  // skip 0 so packed ids never collide with the never-issued id 0.
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
}

void Simulator::SiftUp(uint32_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    uint32_t parent = (pos - 1) >> 2;
    if (!Before(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = pos;
    pos = parent;
  }
  heap_[pos] = moving;
  slots_[moving.slot].heap_pos = pos;
}

void Simulator::SiftDown(uint32_t pos) {
  const HeapEntry moving = heap_[pos];
  const uint32_t size = static_cast<uint32_t>(heap_.size());
  for (;;) {
    uint32_t first_child = 4 * pos + 1;
    if (first_child >= size) break;
    uint32_t last_child = first_child + 4 < size ? first_child + 4 : size;
    uint32_t best = first_child;
    for (uint32_t c = first_child + 1; c < last_child; ++c) {
      if (Before(heap_[c], heap_[best])) best = c;
    }
    if (!Before(heap_[best], moving)) break;
    heap_[pos] = heap_[best];
    slots_[heap_[pos].slot].heap_pos = pos;
    pos = best;
  }
  heap_[pos] = moving;
  slots_[moving.slot].heap_pos = pos;
}

void Simulator::RemoveAt(uint32_t pos) {
  uint32_t last = static_cast<uint32_t>(heap_.size()) - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slots_[heap_[pos].slot].heap_pos = pos;
    heap_.pop_back();
    // The displaced element may belong above or below its new position.
    if (pos > 0 && Before(heap_[pos], heap_[(pos - 1) >> 2])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  } else {
    heap_.pop_back();
  }
}

EventId Simulator::ScheduleAt(SimTime when, EventFn fn) {
  return Push(when, next_seq_++, std::move(fn));
}

uint64_t Simulator::ReserveSequence(uint64_t n) {
  const uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

EventId Simulator::ScheduleAtSequence(SimTime when, uint64_t seq,
                                      EventFn fn) {
  QSCHED_CHECK(seq < next_seq_) << "sequence rank was never reserved";
  return Push(when, seq, std::move(fn));
}

EventId Simulator::Push(SimTime when, uint64_t seq, EventFn&& fn) {
  if (when < now_) when = now_;
  uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  const uint32_t generation = s.generation;
  heap_.push_back(HeapEntry{when, seq, slot});
  SiftUp(static_cast<uint32_t>(heap_.size() - 1));
  return PackId(generation, slot);
}

EventId Simulator::ScheduleAfter(SimTime delay, EventFn fn) {
  if (delay < 0.0) delay = 0.0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

bool Simulator::Cancel(EventId id) {
  uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu);
  uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.generation != generation || s.heap_pos == kNoHeapPos) return false;
  RemoveAt(s.heap_pos);
  FreeSlot(slot);
  return true;
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  uint32_t slot = heap_[0].slot;
  Slot& s = slots_[slot];
  now_ = heap_[0].when;
  // Move the callback out and release the slot before invoking: the
  // callback may schedule, cancel, and reuse this very slot.
  EventFn fn = std::move(s.fn);
  RemoveAt(0);
  FreeSlot(slot);
  ++events_processed_;
  fn();
  return true;
}

size_t Simulator::RunUntil(SimTime until) {
  size_t processed = 0;
  while (!heap_.empty() && heap_[0].when <= until) {
    Step();
    ++processed;
  }
  if (now_ < until) now_ = until;
  return processed;
}

size_t Simulator::RunToCompletion() {
  size_t processed = 0;
  while (Step()) ++processed;
  return processed;
}

}  // namespace qsched::sim
