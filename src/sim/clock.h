#ifndef QSCHED_SIM_CLOCK_H_
#define QSCHED_SIM_CLOCK_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace qsched::sim {

/// Model time in seconds since the start of the run. In the discrete-event
/// simulator this is virtual time; in the real-time runtime it is scaled
/// wall-clock time — components cannot tell the difference.
using SimTime = double;

/// Opaque handle for cancelling a scheduled event. Id 0 is never issued.
using EventId = uint64_t;

/// Move-only callable with a small-buffer optimization: callables whose
/// state fits kInlineCapacity bytes (and are nothrow-movable) live inside
/// the EventFn itself, so scheduling a typical lambda performs no heap
/// allocation. Larger callables fall back to a heap box whose pointer is
/// relocated (not the callable) on move.
class EventFn {
 public:
  static constexpr size_t kInlineCapacity = 48;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  EventFn(F&& f) {  // NOLINT: implicit so lambdas convert at call sites
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCapacity &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      Fn* boxed = new Fn(std::forward<F>(f));
      std::memcpy(storage_, &boxed, sizeof(boxed));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  /// Destroys the held callable (if any); the EventFn becomes empty.
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(unsigned char* storage);
    /// Move-constructs into `to` and destroys `from` (for the heap case,
    /// only the box pointer moves — the callable itself stays put).
    void (*relocate)(unsigned char* from, unsigned char* to);
    void (*destroy)(unsigned char* storage);
  };

  template <typename Fn>
  static Fn* Inline(unsigned char* storage) {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }
  template <typename Fn>
  static Fn* Boxed(unsigned char* storage) {
    Fn* boxed;
    std::memcpy(&boxed, storage, sizeof(boxed));
    return boxed;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](unsigned char* s) { (*Inline<Fn>(s))(); },
      [](unsigned char* from, unsigned char* to) {
        ::new (static_cast<void*>(to)) Fn(std::move(*Inline<Fn>(from)));
        Inline<Fn>(from)->~Fn();
      },
      [](unsigned char* s) { Inline<Fn>(s)->~Fn(); },
  };
  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](unsigned char* s) { (*Boxed<Fn>(s))(); },
      [](unsigned char* from, unsigned char* to) {
        std::memcpy(to, from, sizeof(Fn*));
      },
      [](unsigned char* s) { delete Boxed<Fn>(s); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

/// The time source every model component (engine, Query Patroller,
/// scheduler, clients) is written against: read the current model time,
/// schedule a callback for later, cancel a pending one. Two
/// implementations exist:
///
///  * `sim::Simulator` — virtual time; callbacks fire when the
///    single-threaded event loop reaches their timestamp. Deterministic.
///  * `rt::WallClock` — model time derived from `std::chrono::steady_clock`
///    (optionally compressed by a time-scale factor); callbacks fire on
///    the real-time runtime's clock thread when the wall deadline passes.
///
/// Semantics shared by both: times in the past clamp to Now(); events at
/// equal timestamps fire in scheduling order (FIFO); Cancel() returns
/// false once the callback has fired (or the id never existed). Whether
/// calls may come from multiple threads is an implementation property:
/// the Simulator is externally serialized, the WallClock is thread-safe.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current model time.
  virtual SimTime Now() const = 0;

  /// Schedules `fn` at absolute model time `when` (past times clamp to
  /// Now()). Returns an id usable with Cancel().
  virtual EventId ScheduleAt(SimTime when, EventFn fn) = 0;

  /// Schedules `fn` after `delay` model seconds (negative delays clamp
  /// to 0).
  virtual EventId ScheduleAfter(SimTime delay, EventFn fn) = 0;

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or never existed.
  virtual bool Cancel(EventId id) = 0;

  /// Reserves `n` consecutive FIFO tie-break ranks and returns the first.
  /// An event later scheduled with ScheduleAtSequence(when, first + i)
  /// fires exactly where it would have had it been scheduled with
  /// ScheduleAt(when) at the moment of reservation — so a chain of events
  /// each scheduling its successor needs only one pending slot, not one
  /// per event, yet keeps the up-front order bit for bit. Unused ranks
  /// are harmless gaps.
  virtual uint64_t ReserveSequence(uint64_t n) = 0;

  /// Schedules `fn` at `when` under a rank obtained from ReserveSequence
  /// (each rank used at most once). Times in the past clamp to Now().
  virtual EventId ScheduleAtSequence(SimTime when, uint64_t seq,
                                     EventFn fn) = 0;

  /// Periodic source: calls `fn` at model times interval, 2·interval, …
  /// accumulated as `t += interval` while `t <= until` — the same times
  /// and, at equal timestamps, the same FIFO order as the loop
  ///
  ///   for (t = interval; t <= until; t += interval) ScheduleAt(t, fn);
  ///
  /// run at this call, but with one pending event instead of one per
  /// tick: the ranks that loop would have taken are reserved here and
  /// each tick schedules its successor under the next one. An unbounded
  /// `until` (infinity, or more than kMaxReservedTicks ticks) ticks until
  /// the clock stops, each successor taking a fresh rank when scheduled.
  /// No ticks when interval <= 0 or until < interval. `fn` must stay
  /// callable for as long as the clock runs and be at most one pointer
  /// in size: it is copied into every tick, and a static_assert keeps a
  /// tick inside EventFn's inline buffer, so re-arming never allocates.
  template <typename F>
  void SchedulePeriodic(SimTime interval, SimTime until, F fn);

 private:
  /// Longest periodic source whose ranks are reserved up front. Below
  /// it, the rounding of `t += interval` drifts by under 1/64 of an
  /// interval, so floor(until / interval) + 2 ranks always cover the
  /// loop's tick count.
  static constexpr double kMaxReservedTicks = 16777216.0;  // 2^24
  /// Rank marker of an unbounded periodic source's ticks.
  static constexpr uint64_t kFreshRank = UINT64_MAX;

  /// One pending tick of a periodic source.
  template <typename F>
  struct PeriodicTick {
    Clock* clock;
    F fn;
    SimTime t;
    SimTime interval;
    SimTime until;
    uint64_t seq;  // reserved rank, or kFreshRank

    /// Arms the successor before running `fn`, so (as with every tick
    /// pending up front) it ranks before anything `fn` schedules.
    void operator()() {
      if (t + interval <= until) {
        clock->Arm(PeriodicTick{clock, fn, t + interval, interval, until,
                                seq == kFreshRank ? kFreshRank : seq + 1});
      }
      fn();
    }
  };

  /// Schedules `tick` at its time under its rank (a fresh one when the
  /// source is unbounded).
  template <typename F>
  void Arm(PeriodicTick<F> tick) {
    const SimTime when = tick.t;
    const uint64_t seq =
        tick.seq == kFreshRank ? ReserveSequence(1) : tick.seq;
    ScheduleAtSequence(when, seq, std::move(tick));
  }
};

template <typename F>
void Clock::SchedulePeriodic(SimTime interval, SimTime until, F fn) {
  static_assert(sizeof(PeriodicTick<F>) <= EventFn::kInlineCapacity,
                "a periodic tick must fit EventFn inline");
  if (!(interval > 0.0) || !(interval <= until)) return;
  const double ticks = until / interval;
  const uint64_t seq =
      ticks < kMaxReservedTicks
          ? ReserveSequence(static_cast<uint64_t>(ticks) + 2)
          : kFreshRank;
  Arm(PeriodicTick<F>{this, std::move(fn), interval, interval, until, seq});
}

}  // namespace qsched::sim

#endif  // QSCHED_SIM_CLOCK_H_
