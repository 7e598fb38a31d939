#ifndef QSCHED_SIM_SIMULATOR_H_
#define QSCHED_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/clock.h"

namespace qsched::sim {

// EventId here packs (generation << 32 | slot index); a stale handle
// whose slot has been reused fails the generation check, so Cancel()
// needs no hash-set lookup.

/// Discrete-event simulation core: a clock plus an ordered queue of
/// callbacks. Events at equal timestamps fire in scheduling order (FIFO),
/// which makes runs deterministic.
///
/// Implementation: a flat 4-ary heap over a pooled slot array. Heap
/// entries carry their (time, sequence) key next to the slot index, so
/// sifting compares contiguous entries instead of chasing slot pointers.
/// Each slot carries its heap position, so Cancel() finds and removes the
/// event in O(1) lookup + one sift — no lazy tombstones, no hash sets —
/// and the slot (including its callback's memory) is reclaimed
/// immediately. Slots are generation-stamped; freed slots are reused and
/// a stale EventId fails the generation check. The FIFO tie-break uses a
/// separate monotonic sequence number, so ordering is bit-for-bit
/// identical to the historical (time, schedule-order) rule.
///
/// All simulated components (clients, controllers, the engine) hold a
/// sim::Clock* (this class in DES mode) and express waiting as
/// `ScheduleAfter(delay, callback)`. Externally serialized: calls must
/// never overlap. The DES drives it from one thread; rt::WallClock keeps
/// one as its timer queue and calls it only under its core lock.
class Simulator final : public Clock {
 public:
  Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const override { return now_; }

  /// Schedules `fn` at absolute time `when`. Times in the past are clamped
  /// to Now(). Returns an id usable with Cancel().
  EventId ScheduleAt(SimTime when, EventFn fn) override;

  /// Schedules `fn` after `delay` seconds (negative delays clamp to 0).
  EventId ScheduleAfter(SimTime delay, EventFn fn) override;

  // Ranked scheduling (see sim::Clock).
  uint64_t ReserveSequence(uint64_t n) override;
  EventId ScheduleAtSequence(SimTime when, uint64_t seq,
                             EventFn fn) override;

  /// Cancels a pending event and reclaims its slot immediately. Returns
  /// false if it already fired, was already cancelled, or never existed.
  bool Cancel(EventId id) override;

  /// Runs a single event. Returns false when the queue is empty.
  bool Step();

  /// Runs events with timestamp <= `until`, then advances the clock to
  /// exactly `until`. Returns the number of events processed.
  size_t RunUntil(SimTime until);

  /// Runs until the queue drains. Returns the number of events processed.
  size_t RunToCompletion();

  /// Pre-sizes the slot pool and heap for `events` concurrent events.
  void Reserve(size_t events);

  /// Timestamp of the earliest pending event; infinity when none is.
  SimTime next_time() const {
    return heap_.empty() ? std::numeric_limits<SimTime>::infinity()
                         : heap_[0].when;
  }

  /// Number of events currently pending (cancelled events excluded).
  size_t pending_events() const { return heap_.size(); }

  /// Total events executed so far.
  uint64_t events_processed() const { return events_processed_; }

  /// Slots ever allocated — the high-water mark of concurrently pending
  /// events. Stays flat under schedule/cancel churn (slot reuse).
  size_t slot_capacity() const { return slots_.size(); }

 private:
  static constexpr uint32_t kNoHeapPos = UINT32_MAX;

  struct Slot {
    EventFn fn;
    uint32_t generation = 1;  // bumped on free; 0 never stamped into ids
    uint32_t heap_pos = kNoHeapPos;  // kNoHeapPos = slot is free
  };

  struct HeapEntry {
    SimTime when;
    uint64_t seq;  // FIFO tie-breaker: lower seq scheduled earlier
    uint32_t slot;
  };

  static EventId PackId(uint32_t generation, uint32_t slot) {
    return (static_cast<uint64_t>(generation) << 32) | slot;
  }

  /// True when entry `a`'s event fires strictly before entry `b`'s.
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// Inserts `fn` at (`when` clamped to Now(), `seq`).
  EventId Push(SimTime when, uint64_t seq, EventFn&& fn);
  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);
  void SiftUp(uint32_t pos);
  void SiftDown(uint32_t pos);
  /// Removes the heap entry at `pos`, restoring heap order.
  void RemoveAt(uint32_t pos);

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  /// 4-ary heap ordered by (when, seq).
  std::vector<HeapEntry> heap_;
};

}  // namespace qsched::sim

#endif  // QSCHED_SIM_SIMULATOR_H_
