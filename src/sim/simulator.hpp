// Discrete-event simulation kernel.
//
// Events are closures scheduled at absolute simulated times. Ties are broken
// by insertion order so a run is fully deterministic for a fixed seed. An
// EventHandle allows O(1) logical cancellation (the event stays in the heap
// but is skipped when popped), which is how pending retransmit timers and
// feedback timers are withdrawn.
//
// Hot-path layout (the kernel executes every packet, timer, and feedback
// event of every experiment, so BatchRunner wall clock is mostly spent here):
//
//   - Callbacks are InlineFunction<void(), 56>: typical timer captures
//     (`this` plus a few words, or a Packet pointer) are stored inline, so
//     scheduling an event performs zero heap allocations. Only captures
//     beyond 56 bytes fall back to a heap box (counted, see
//     inline_function_heap_allocs()).
//   - The priority queue is a hand-rolled 4-ary min-heap over 24-byte POD
//     entries {time, seq, slot}. Sift operations move trivially copyable
//     PODs — four children per node halves the tree depth and keeps the
//     working set in two cache lines — while the callbacks themselves sit
//     still inside the slab and are moved exactly once, out of the slot,
//     when their entry is popped.
//   - Liveness tracking uses a pooled generation slab shared by the
//     simulator and its handles: scheduling recycles slots from a free list
//     (the old shared_ptr<bool>-per-event design is long gone), and the slot
//     now owns the callback storage too. Each Simulator owns its own slab,
//     so independent instances are safe to run concurrently on separate
//     threads.
//
// The observable semantics — (time, insertion-seq) execution order, cancel /
// retire / generation behavior, handles reporting !pending() inside their
// own callback — are bit-identical to the previous std::priority_queue
// kernel; tests/golden_determinism_test.cpp pins that with an execution
// order recorded from the old kernel.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/timing_wheel.hpp"

namespace ebrc::sim {

/// The kernel's callback type: captures up to 56 bytes are stored inline
/// (one cache line per callback including the dispatch pointer).
using EventFn = InlineFunction<void(), 56>;

/// A pinned callback: one word of capture inline, 16 bytes with the
/// dispatch pointer. Components pin `[this]` once per object — two pins per
/// dumbbell flow, two per connection — so the pinned table grows with the
/// flow pool. See Simulator::pin for the contract.
using PinnedFn = InlineFunction<void(), 8>;

/// Pool of event slots. A slot is identified by (index, generation);
/// retiring a slot bumps its generation, so handles to a recycled slot go
/// stale instead of observing the next event that reuses it. The slot also
/// owns its event's callback: the heap above it only shuffles POD entries.
///
/// Two layout decisions keep the pool cache-resident:
///   - Structure-of-arrays: the 8-byte liveness metadata that cancel /
///     pending checks touch lives in its own dense array, separate from the
///     callback storage.
///   - Two slot classes: callbacks whose state compresses to one word (a
///     captureless lambda, a `this` capture, or an oversized capture's heap
///     box pointer — i.e. almost every closure the protocols schedule) live
///     in 16-byte "tiny" slots; only mid-sized captures (9..56 bytes) use a
///     full cache line. With tens of thousands of events pending, the tiny
///     pool is a quarter the footprint of a one-line-per-callback layout.
/// Slot indices carry the class in their top bit.
class EventSlab {
 public:
  struct Ticket {
    std::uint32_t index = 0;
    std::uint32_t generation = 0;
  };

  EventSlab() = default;
  EventSlab(const EventSlab&) = delete;
  EventSlab& operator=(const EventSlab&) = delete;

  /// Tiny slots store compressed callbacks as raw words, so a heap-boxed
  /// callable in a slot that was never retired (simulator destroyed with
  /// events still pending) must be reclaimed here; wide slots destroy
  /// themselves through ~EventFn.
  ~EventSlab() {
    std::vector<bool> retired(tiny_.size(), false);
    for (const std::uint32_t i : tiny_free_) retired[i] = true;
    for (std::size_t i = 0; i < tiny_.size(); ++i) {
      if (!retired[i]) (void)EventFn::decompress(tiny_[i]);  // dtor frees any box
    }
  }

  /// Reserves a live slot holding `fn`, recycling a retired slot when one is
  /// available.
  Ticket acquire(EventFn&& fn) {
    if (fn.compressible()) {
      if (!tiny_free_.empty()) {
        const std::uint32_t idx = tiny_free_.back();
        tiny_free_.pop_back();
        tiny_[idx] = fn.compress();
        Meta& m = tiny_meta_[idx];
        m.alive = true;
        return {idx, m.generation};
      }
      tiny_meta_.push_back(Meta{0, true});
      tiny_.push_back(fn.compress());
      return {static_cast<std::uint32_t>(tiny_meta_.size() - 1), 0};
    }
    if (!wide_free_.empty()) {
      const std::uint32_t idx = wide_free_.back();
      wide_free_.pop_back();
      wide_[idx].fn = std::move(fn);
      Meta& m = wide_meta_[idx];
      m.alive = true;
      return {idx | kWideBit, m.generation};
    }
    wide_meta_.push_back(Meta{0, true});
    wide_.emplace_back();
    wide_.back().fn = std::move(fn);
    return {static_cast<std::uint32_t>(wide_meta_.size() - 1) | kWideBit, 0};
  }

  /// True while the ticket's event is pending (not fired, not cancelled).
  [[nodiscard]] bool alive(Ticket t) const noexcept {
    const std::vector<Meta>& meta = meta_of(t.index);
    const std::uint32_t i = t.index & ~kWideBit;
    return i < meta.size() && meta[i].generation == t.generation && meta[i].alive;
  }

  /// Marks the ticket's event as no longer pending; stale tickets are ignored.
  void cancel(Ticket t) noexcept {
    std::vector<Meta>& meta = meta_of(t.index);
    const std::uint32_t i = t.index & ~kWideBit;
    if (i < meta.size() && meta[i].generation == t.generation) {
      meta[i].alive = false;
    }
  }

  /// Liveness of a slot by index. Only the simulator calls this — a slot is
  /// owned by exactly one heap entry, so when that entry is popped the slot's
  /// current generation is necessarily the entry's generation.
  [[nodiscard]] bool slot_live(std::uint32_t index) const noexcept {
    const std::vector<Meta>& meta = meta_of(index);
    const std::uint32_t i = index & ~kWideBit;
    assert(i < meta.size());
    return meta[i].alive;
  }

  /// Moves the callback out and returns the slot to the free list once its
  /// heap entry has been popped. The slot is immediately reusable (under a
  /// fresh generation) even while the returned callback is still executing.
  [[nodiscard]] EventFn retire(std::uint32_t index) {
    const std::uint32_t i = index & ~kWideBit;
    if ((index & kWideBit) == 0) {
      Meta& m = tiny_meta_[i];
      m.alive = false;
      ++m.generation;
      tiny_free_.push_back(i);
      return EventFn::decompress(tiny_[i]);
    }
    Meta& m = wide_meta_[i];
    m.alive = false;
    ++m.generation;
    wide_free_.push_back(i);
    return std::move(wide_[i].fn);
  }

  /// Hints the prefetcher at the callback of the slot about to be retired —
  /// called as soon as the next event's slot is known so the line load
  /// overlaps the preceding callback's execution.
  void prefetch(std::uint32_t index) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const std::uint32_t i = index & ~kWideBit;
    if ((index & kWideBit) == 0) {
      __builtin_prefetch(&tiny_[i], /*rw=*/0, /*locality=*/3);
    } else {
      __builtin_prefetch(&wide_[i], /*rw=*/0, /*locality=*/3);
    }
#else
    (void)index;
#endif
  }

  /// Pre-sizes slot and free-list storage (no slots are created). Sized for
  /// the common case: most callbacks are tiny, a fraction are wide.
  void reserve(std::size_t n) {
    tiny_meta_.reserve(n);
    tiny_.reserve(n);
    tiny_free_.reserve(n);
    const std::size_t wide = n / 4 + 1;
    wide_meta_.reserve(wide);
    wide_.reserve(wide);
    wide_free_.reserve(wide);
  }

  /// Number of slots ever created (capacity watermark, for tests).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return tiny_meta_.size() + wide_meta_.size();
  }

  // Intrusive, non-atomic reference count keeping the slab alive for the
  // simulator plus any outstanding EventHandles (so a handle never dangles,
  // even if it outlives its simulator). Non-atomic is deliberate: a
  // Simulator, its slab, and all handles to its events are confined to one
  // thread — BatchRunner gives every run its own simulator on its own
  // worker — and the shared_ptr this replaces paid two atomic RMWs on every
  // scheduled event just to construct and discard the returned handle.
  void retain() noexcept { ++refs_; }
  void release() noexcept {
    if (--refs_ == 0) delete this;
  }

 private:
  static constexpr std::uint32_t kWideBit = 0x8000'0000u;
  std::uint32_t refs_ = 1;  // the owning simulator's reference

  struct Meta {
    std::uint32_t generation = 0;
    bool alive = false;
  };
  struct alignas(64) WideFn {  // one cache line per callback, exactly
    EventFn fn;
  };
  static_assert(sizeof(WideFn) == 64);

  [[nodiscard]] const std::vector<Meta>& meta_of(std::uint32_t index) const noexcept {
    return (index & kWideBit) == 0 ? tiny_meta_ : wide_meta_;
  }
  [[nodiscard]] std::vector<Meta>& meta_of(std::uint32_t index) noexcept {
    return (index & kWideBit) == 0 ? tiny_meta_ : wide_meta_;
  }

  std::vector<Meta> tiny_meta_;
  std::vector<EventFn::Compressed> tiny_;  // 16-byte compressed callbacks
  std::vector<std::uint32_t> tiny_free_;
  std::vector<Meta> wide_meta_;
  std::vector<WideFn> wide_;
  std::vector<std::uint32_t> wide_free_;
};

/// Handle to a scheduled event; cancel() is idempotent. Copyable; each copy
/// holds a (non-atomic) reference on the simulator's slab, so a handle stays
/// safe to query even after the simulator is gone — but must stay on the
/// simulator's thread.
class EventHandle {
 public:
  EventHandle() = default;

  EventHandle(const EventHandle& other) noexcept : slab_(other.slab_), ticket_(other.ticket_) {
    if (slab_) slab_->retain();
  }
  EventHandle(EventHandle&& other) noexcept : slab_(other.slab_), ticket_(other.ticket_) {
    other.slab_ = nullptr;
  }
  EventHandle& operator=(const EventHandle& other) noexcept {
    if (this != &other) {
      if (other.slab_) other.slab_->retain();
      if (slab_) slab_->release();
      slab_ = other.slab_;
      ticket_ = other.ticket_;
    }
    return *this;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      if (slab_) slab_->release();
      slab_ = other.slab_;
      ticket_ = other.ticket_;
      other.slab_ = nullptr;
    }
    return *this;
  }
  ~EventHandle() {
    if (slab_) slab_->release();
  }

  /// Logically removes the event; a cancelled event never fires.
  void cancel() const {
    if (slab_) slab_->cancel(ticket_);
  }

  /// True when the event is still pending (not fired, not cancelled).
  [[nodiscard]] bool pending() const noexcept { return slab_ && slab_->alive(ticket_); }

 private:
  friend class Simulator;
  EventHandle(EventSlab* slab, EventSlab::Ticket ticket) : slab_(slab), ticket_(ticket) {
    slab_->retain();
  }
  EventSlab* slab_ = nullptr;  // shared with the simulator, not per-event
  EventSlab::Ticket ticket_;
};

/// Optional view of an externally owned POD ring the kernel writes one
/// 16-byte record into per executed event — the obs flight recorder's window
/// into the hot loop. The simulator does not own any of it; whoever installs
/// the view (obs::FlightRecorder maps it from a MAP_SHARED file so the tail
/// survives SIGKILL) guarantees `records` spans `mask + 1` slots and that
/// `cursor` stays valid for the simulator's lifetime. A default-constructed
/// ring (null `records`) disables recording: the hot loop pays exactly one
/// predictable branch per event.
struct KernelRing {
  struct Record {
    double at = 0.0;        // sim time of the executed event
    std::uint32_t slot = 0; // raw heap-entry slot (pinned bit included)
    std::uint8_t src = 0;   // bit 0: popped from wheel; bit 1: pinned path
    std::uint8_t pad[3] = {};
  };
  static_assert(sizeof(Record) == 16);

  Record* records = nullptr;
  std::uint32_t mask = 0;          // capacity - 1; capacity is a power of two
  std::uint64_t* cursor = nullptr; // total records ever written (monotone)
};

/// The event-driven simulator: a clock plus a 4-ary min-heap of POD entries
/// whose callbacks live in the event slab.
class Simulator {
 public:
  Simulator() : slab_(new EventSlab) { reserve(kDefaultReserve); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator() { slab_->release(); }  // outstanding handles keep the slab alive

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `fn` to run at `now() + delay`. `delay` must be >= 0.
  EventHandle schedule(Time delay, EventFn fn) {
    if (delay < 0) throw_negative_delay();
    return schedule_impl(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at the absolute time `at` (>= now()).
  EventHandle schedule_at(Time at, EventFn fn) {
    if (at < now_) throw_past_time();
    return schedule_impl(at, std::move(fn));
  }

  // --- pinned events --------------------------------------------------------
  //
  // The packet path schedules the SAME component callback over and over: a
  // link's head-of-line delivery, a pipe's chain hop, a sender's pacing
  // tick. The general schedule() pays slab acquire/retire, callback
  // compression, and handle refcounting for every one of those — all pure
  // overhead when the callback never changes and is never cancelled. A
  // pinned event registers the callback once; scheduling it afterwards is a
  // bare entry push (24 bytes, zero slab traffic) — an O(1) timing-wheel
  // bucket append once the wheel has calibrated, a heap push before — and
  // firing invokes it in place. Pinned events cannot be cancelled
  // individually — guard with a component-side flag, as the protocols'
  // `running_` already does. Execution order remains the global
  // (time, insertion-seq) order shared with slab events: wheel and heap pops
  // merge on the same 128-bit key.
  //
  // The contract for callers: pin a closure that captures only `this` (or
  // one other word). It is stored in 16 bytes and invoked in place; a wider
  // capture is boxed once at pin time and costs one more indirection per
  // firing.

  using PinnedEvent = std::uint32_t;

  /// Registers `fn` as a pinned callback; the id stays valid for the
  /// simulator's lifetime. Safe to call between runs (storage is stable).
  PinnedEvent pin(PinnedFn fn) {
    pinned_.push_back(std::move(fn));
    return static_cast<PinnedEvent>(pinned_.size() - 1) | kPinnedBit;
  }

  /// Schedules a pinned callback after `delay` (>= 0).
  void schedule_pinned(Time delay, PinnedEvent ev) {
    if (delay < 0) throw_negative_delay();
    schedule_pinned_at(now_ + delay, ev);
  }

  /// Schedules a pinned callback at absolute time `at` (>= now()). Once the
  /// wheel has calibrated its tick from the first pinned delays this is an
  /// O(1) bucket append; until then (and for all slab events, always) entries
  /// go to the heap, so calibration can never perturb execution order.
  void schedule_pinned_at(Time at, PinnedEvent ev) {
    if (at < now_) throw_past_time();
    assert((ev & kPinnedBit) != 0 && "not a pin() id");
    at += 0.0;  // normalize -0.0, as in schedule_impl
    if (wheel_.active()) {
      wheel_.push(Entry{at, next_seq_++, ev});
      return;
    }
    const Time delay = at - now_;
    if (delay > 0) wheel_.observe(delay, now_);
    push_entry(Entry{at, next_seq_++, ev});
  }

  /// Runs events until the queue drains or the clock passes `horizon`.
  /// The clock is left at min(horizon, time of last event).
  void run_until(Time horizon);

  /// Runs until the queue drains completely.
  void run();

  /// Pre-sizes the heap, slab, and wheel buckets for `events` concurrently
  /// pending events, so warm-up bursts don't pay vector regrowth on the hot
  /// path.
  void reserve(std::size_t events) {
    heap_.reserve(events);
    slab_->reserve(events);
    wheel_.reserve(events);
  }

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Number of events currently pending (including cancelled-but-unpopped),
  /// across both the heap and the wheel.
  [[nodiscard]] std::size_t queue_size() const noexcept {
    return heap_.size() + wheel_.size();
  }

  /// Kernel telemetry: how many executed events were popped from the timing
  /// wheel vs the 4-ary heap (a wheel that never activates pops everything
  /// from the heap; a saturated packet path should pop almost everything
  /// from the wheel).
  [[nodiscard]] std::uint64_t wheel_pops() const noexcept { return wheel_pops_; }
  [[nodiscard]] std::uint64_t heap_pops() const noexcept { return heap_pops_; }

  /// The pinned-event timing wheel (exposed for tests and benchmarks).
  [[nodiscard]] const TimingWheel& wheel() const noexcept { return wheel_; }

  /// Number of pinned callbacks ever registered. Pins are permanent, so a
  /// component that pins per-flow-arrival instead of per-component leaks
  /// them; the workload churn tests assert this stays flat in steady state.
  [[nodiscard]] std::size_t pinned_callbacks() const noexcept { return pinned_.size(); }

  /// Liveness slab (exposed for allocation-churn tests).
  [[nodiscard]] const EventSlab& slab() const noexcept { return *slab_; }

  /// Installs (or, with a default-constructed ring, removes) the flight
  /// recorder's event ring. See KernelRing for the ownership contract.
  void set_kernel_ring(KernelRing ring) noexcept { ring_ = ring; }

 private:
  /// Heap entries are the 24-byte trivially copyable PODs shared with the
  /// timing wheel (see timing_wheel.hpp for the layout and the branchless
  /// 128-bit key order the free `earlier()` implements).
  using Entry = QueuedEvent;

  /// Shared hot path of schedule()/schedule_at(). Takes the callback by
  /// rvalue reference: the call-site conversion constructs the EventFn once,
  /// and acquire() compresses or moves straight out of that object — no
  /// intermediate 64-byte copies.
  EventHandle schedule_impl(Time at, EventFn&& fn) {
    at += 0.0;  // normalize -0.0 to +0.0 so the bit-pattern key order holds
    const EventSlab::Ticket ticket = slab_->acquire(std::move(fn));
    push_entry(Entry{at, next_seq_++, ticket.index});
    return EventHandle{slab_, ticket};
  }

  void push_entry(Entry e) {
    // Sift up with a hole: the entry is written once, into its final position.
    std::size_t i = heap_.size();
    heap_.push_back(e);  // reserve the leaf; overwritten below unless already placed
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  [[noreturn]] static void throw_negative_delay();
  [[noreturn]] static void throw_past_time();
  void pop_min();

  /// Flight-recorder write: one store per executed event when a ring is
  /// installed, one predictable branch when it is not (the default).
  void record_executed(double at, std::uint32_t slot, std::uint8_t src) noexcept {
    if (ring_.records == nullptr) [[likely]] return;
    KernelRing::Record& r = ring_.records[*ring_.cursor & ring_.mask];
    r.at = at;
    r.slot = slot;
    r.src = src;
    ++*ring_.cursor;
  }

  static constexpr std::size_t kDefaultReserve = 256;
  /// Tags a heap entry's slot as a pinned-callback index. Distinct from
  /// EventSlab's kWideBit (the top bit): a pinned entry never reaches the
  /// slab, and slab indices stay far below 2^30.
  static constexpr std::uint32_t kPinnedBit = 0x4000'0000u;

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t wheel_pops_ = 0;
  std::uint64_t heap_pops_ = 0;
  EventSlab* slab_;  // intrusively refcounted; see EventSlab::retain/release
  std::vector<Entry> heap_;  // 4-ary min-heap: children of i at 4i+1 .. 4i+4
  std::deque<PinnedFn> pinned_;  // deque: pin() during a run never relocates
  TimingWheel wheel_;  // pinned entries after calibration; merged at pop
  KernelRing ring_;   // null records (the default) = recording disabled
};

}  // namespace ebrc::sim
