// Hierarchical timing wheel for pinned-event scheduling.
//
// The packet path schedules pinned callbacks — pipe deliveries, pacing
// ticks, feedback timers — whose deadlines are overwhelmingly near-monotone
// and clustered a few RTTs ahead. A comparison heap pays O(log n) sifts over
// adversarially unpredictable keys for every one of them; at 10^5..10^6
// concurrent flows those sifts dominate the kernel. The wheel turns the
// common case into an O(1) bucket append plus one amortized sort per
// occupied tick, while the 4-ary heap remains the exact-order home for
// irregular slab events. The two structures merge at pop time on the same
// branchless 128-bit (time bits ‖ seq) key, so execution order is
// bit-identical to the heap-only kernel (pinned by the golden determinism
// recordings).
//
// Layout: three levels of 256 buckets. A level-0 bucket is one tick wide, a
// level-1 bucket covers 256 ticks, a level-2 bucket 2^16 ticks; deadlines
// beyond the 2^24-tick span wait in an overflow ring that is rehomed once
// per span crossing. Each level keeps a 256-bit occupancy bitmap so "next
// nonempty bucket" is a couple of countr_zero scans, never a walk over
// empty vectors. The front of the wheel is a sorted "run" — the current
// tick's events, drained in key order through a head index; cascades are
// lazy (an upper-level bucket is scattered down only when the scan enters
// its window).
//
// The tick granularity is calibrated once per simulator from the first 64
// positive pinned delays (dt = p25/16, clamped): until then pinned entries
// go to the heap exactly as before, and because the tick mapping only needs
// to be MONOTONE in the deadline — equal times share a tick, a tick's
// events are key-sorted on load — the calibration choice can never perturb
// execution order, only bucket occupancy.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

namespace ebrc::sim {

/// Simulated time, in seconds.
using Time = double;

/// Queue entries shared by the wheel and the 4-ary heap: 24-byte trivially
/// copyable PODs. `slot` is either an event-slab index or a pinned-callback
/// id (tagged with the simulator's pinned bit); the queues never look inside.
struct QueuedEvent {
  Time at;
  std::uint64_t seq;   // FIFO tie-break for equal timestamps
  std::uint32_t slot;  // slab index or tagged pinned id
};
static_assert(std::is_trivially_copyable_v<QueuedEvent>);
static_assert(sizeof(QueuedEvent) <= 24, "queue entries must stay two words + tag");
static_assert(alignof(QueuedEvent) == 8);

/// Strict order shared by the heap and the wheel: earlier time first, then
/// insertion order — compared as one 128-bit key. Simulated time never goes
/// negative (schedule rejects the past, the clock starts at 0, and -0.0 is
/// normalized away), so the IEEE-754 bit pattern of `at` is monotone in its
/// value and (bits(at), seq) compares branchlessly with a sub/sbb pair.
[[nodiscard]] inline bool earlier(const QueuedEvent& a, const QueuedEvent& b) noexcept {
#if defined(__SIZEOF_INT128__)
  const auto key = [](const QueuedEvent& e) {
    return (static_cast<unsigned __int128>(std::bit_cast<std::uint64_t>(e.at)) << 64) |
           e.seq;
  };
  return key(a) < key(b);
#else
  const std::uint64_t abits = std::bit_cast<std::uint64_t>(a.at);
  const std::uint64_t bbits = std::bit_cast<std::uint64_t>(b.at);
  if (abits != bbits) return abits < bbits;
  return a.seq < b.seq;
#endif
}

/// Function-object form of earlier() so sort/upper_bound inline the compare.
struct EarlierCompare {
  [[nodiscard]] bool operator()(const QueuedEvent& a, const QueuedEvent& b) const noexcept {
    return earlier(a, b);
  }
};

/// A growable array of queue entries — the subset of std::vector the wheel
/// uses — whose storage may be lent by its owner. The wheel seeds every
/// bucket from one block at activation; an array that outgrows its loan
/// moves to storage of its own, which it keeps and grows geometrically, so
/// each array's capacity still rises monotonically to its peak load.
class EventArray {
 public:
  EventArray() = default;
  EventArray(const EventArray&) = delete;
  EventArray& operator=(const EventArray&) = delete;
  ~EventArray() { release(); }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  [[nodiscard]] QueuedEvent* begin() noexcept { return data_; }
  [[nodiscard]] QueuedEvent* end() noexcept { return data_ + size_; }
  [[nodiscard]] const QueuedEvent* begin() const noexcept { return data_; }
  [[nodiscard]] const QueuedEvent* end() const noexcept { return data_ + size_; }
  [[nodiscard]] QueuedEvent& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const QueuedEvent& operator[](std::size_t i) const noexcept { return data_[i]; }

  // Entries are taken by value: a reference into this array would dangle
  // across a regrowth.
  void push_back(QueuedEvent e) {
    if (size_ == cap_) grow();
    data_[size_++] = e;
  }

  /// Inserts `e` before `pos` (an iterator into this array).
  void insert(QueuedEvent* pos, QueuedEvent e) {
    const auto at = static_cast<std::size_t>(pos - data_);
    if (size_ == cap_) grow();
    std::copy_backward(data_ + at, data_ + size_, data_ + size_ + 1);
    data_[at] = e;
    ++size_;
  }

  /// Replaces the contents with [first, last), which must not alias this.
  void assign(const QueuedEvent* first, const QueuedEvent* last) {
    const auto n = static_cast<std::size_t>(last - first);
    size_ = 0;
    if (n > cap_) reallocate(std::max(n, 2 * std::size_t{cap_}));
    std::copy(first, last, data_);
    size_ = static_cast<std::uint32_t>(n);
  }

  void clear() noexcept { size_ = 0; }
  /// Keeps the first `n` <= size() entries.
  void truncate(std::size_t n) noexcept {
    assert(n <= size_);
    size_ = static_cast<std::uint32_t>(n);
  }

  void reserve(std::size_t n) {
    if (n > cap_) reallocate(n);
  }

  /// Adopts `n` entries of storage the caller keeps alive for this array's
  /// lifetime, when that is more than the array holds now. The array must
  /// be empty; storage of its own is freed.
  void lend(QueuedEvent* storage, std::size_t n) noexcept {
    assert(size_ == 0);
    if (n <= cap_) return;
    release();
    data_ = storage;
    cap_ = static_cast<std::uint32_t>(n);
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  void grow() { reallocate(std::max<std::size_t>(2 * std::size_t{cap_}, kMinCapacity)); }

  void reallocate(std::size_t n) {
    assert(n < (std::size_t{1} << 32));
    auto* next = new QueuedEvent[n];
    std::copy(data_, data_ + size_, next);
    release();
    data_ = next;
    cap_ = static_cast<std::uint32_t>(n);
    owned_ = true;
  }

  void release() noexcept {
    if (owned_) delete[] data_;
    owned_ = false;
  }

  // Three words, like the std::vector this replaces: the wheel holds 770.
  QueuedEvent* data_ = nullptr;  // owned or lent storage
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
  bool owned_ = false;
};
static_assert(sizeof(EventArray) == 24);

class TimingWheel {
 public:
  static constexpr int kBucketBits = 8;
  static constexpr std::uint64_t kBuckets = 1ull << kBucketBits;  // per level
  static constexpr int kLevels = 3;
  static constexpr std::uint64_t kSpanTicks = 1ull << (kLevels * kBucketBits);
  static constexpr int kCalibrationSamples = 64;

  TimingWheel() = default;
  TimingWheel(const TimingWheel&) = delete;
  TimingWheel& operator=(const TimingWheel&) = delete;

  /// True once the tick granularity has been calibrated; until then the
  /// simulator keeps routing pinned entries to the heap.
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Calibrated tick width in seconds (0 until active).
  [[nodiscard]] double granularity() const noexcept { return dt_; }

  /// Feeds one positive pinned-delay sample; the 64th activates the wheel at
  /// dt = p25/16, so a typical delay spans ~16 ticks and same-tick pileups
  /// stay shallow. Returns true when this call activated the wheel.
  bool observe(Time delay, Time now) {
    assert(!active_ && delay > 0);
    samples_[sample_count_++] = delay;
    if (sample_count_ < kCalibrationSamples) return false;
    std::sort(samples_, samples_ + kCalibrationSamples);
    activate(std::clamp(samples_[kCalibrationSamples / 4] / 16.0, 1e-9, 1e6), now);
    return true;
  }

  /// Activates immediately with an explicit granularity (benchmarks and the
  /// wheel's own unit tests; production goes through observe()).
  void activate(double dt, Time now) {
    dt_ = dt;
    inv_dt_ = 1.0 / dt;
    pos_ = tick_of(now);
    active_ = true;
    // Seed every bucket with a uniform capacity, once. Bucket indexes are
    // touched for the first time throughout the first full rotation of their
    // level — minutes of simulated time for level 1, hours for level 2 at
    // typical granularities — and a fresh array's geometric growth would
    // otherwise trickle allocations long past any warm-up window. The seed
    // must cover the per-bucket occupancy of a steady workload (churn at RTT
    // granularity peaks around 32 per level-2 bucket); ~600 KB of address
    // space per activated simulator buys an allocation-free steady state.
    // It is ONE allocation, lent out in slices: 770 separate reserves cost
    // tens of microseconds per simulator, a visible share of a short cell.
    // (With glibc the block is mmapped the first time; freeing it raises
    // malloc's mmap and trim thresholds to its size, so later seeds reuse
    // already-faulted arena memory, at the price of each arena keeping up
    // to ~1 MB more free memory resident.)
    // A slice an array does not take (reserve() already sized it) is never
    // touched, so it costs no resident memory.
    seed_.reset(new QueuedEvent[kSeedEntries]);
    QueuedEvent* next = seed_.get();
    const auto lend = [&next](EventArray& a, std::size_t n) {
      a.lend(next, n);
      next += n;
    };
    for (auto& b : l0_) lend(b, kSeedCapacity);
    for (auto& b : l1_) lend(b, kSeedCapacity);
    for (auto& b : l2_) lend(b, kSeedCapacity);
    lend(run_, 4 * kSeedCapacity);
    lend(overflow_, 4 * kSeedCapacity);
  }

  /// Number of events currently queued (front run + buckets + overflow).
  [[nodiscard]] std::size_t size() const noexcept {
    return pending_ + (run_.size() - run_head_);
  }

  /// O(1) append. Requires active(); `e.at` must be >= the time of the last
  /// event popped (the simulator's clock guarantees it).
  void push(const QueuedEvent& e) {
    assert(active_);
    const std::uint64_t t = tick_of(e.at);
    if (t <= pos_) {
      // The tick is already drained into the front run: sorted-insert at or
      // after the head (rare — same-instant re-bookings of the current tick).
      run_.insert(std::upper_bound(run_.begin() + run_head_, run_.end(), e, EarlierCompare{}), e);
      return;
    }
    ++pending_;
    place(e, t, pos_);
  }

  /// Earliest queued event, or nullptr when empty. May advance the wheel
  /// (lazy cascade + load of the next occupied tick); never touches time
  /// semantics, so calling it early is always safe.
  [[nodiscard]] const QueuedEvent* peek() {
    if (run_head_ < run_.size()) return &run_[run_head_];
    if (pending_ == 0) return nullptr;
    refill();
    assert(run_head_ < run_.size());
    return &run_[run_head_];
  }

  /// Non-advancing peek: the front-run head if one is ready (prefetch hints).
  [[nodiscard]] const QueuedEvent* peek_ready() const noexcept {
    return run_head_ < run_.size() ? &run_[run_head_] : nullptr;
  }

  /// Consumes the event returned by the last peek().
  void pop_front() noexcept {
    assert(run_head_ < run_.size());
    ++run_head_;
  }

  /// Pre-sizes the front run and level-0 buckets for `events` concurrently
  /// pending events. Skipped for small simulators — 256 tiny allocations
  /// would cost more than they save.
  void reserve(std::size_t events) {
    if (events < 4 * kBuckets) return;
    const std::size_t per = events / kBuckets + 1;
    run_.reserve(2 * per);
    for (auto& b : l0_) b.reserve(per);
    overflow_.reserve(kBuckets);
  }

 private:
  static constexpr std::uint64_t kMask = kBuckets - 1;
  static constexpr std::uint64_t kWords = kBuckets / 64;
  static constexpr std::size_t kSeedCapacity = 32;  // per-bucket, at activation
  static constexpr std::size_t kSeedEntries = (3 * kBuckets + 8) * kSeedCapacity;

  /// Maps a deadline to its tick. Only MONOTONICITY matters for correctness
  /// (equal times share a tick; ticks are key-sorted on load); the clamp
  /// keeps the cast defined for absurd horizons without breaking order.
  [[nodiscard]] std::uint64_t tick_of(Time at) const noexcept {
    double x = at * inv_dt_;
    if (x > 9.0e18) x = 9.0e18;
    return static_cast<std::uint64_t>(x);
  }

  static void add(EventArray* lvl, std::uint64_t* occ, std::uint64_t idx,
                  const QueuedEvent& e) {
    lvl[idx].push_back(e);
    occ[idx >> 6] |= 1ull << (idx & 63);
  }

  /// Routes an event with tick `t` > `p` into the level whose window around
  /// `p` contains it (or overflow beyond the span). Invariant: level-0 holds
  /// only p's 256-tick window, level-1 p's 2^16 window, level-2 p's 2^24
  /// window — so a level-0 bucket always holds exactly one tick value.
  void place(const QueuedEvent& e, std::uint64_t t, std::uint64_t p) {
    if ((t >> kBucketBits) == (p >> kBucketBits)) {
      add(l0_, occ0_, t & kMask, e);
    } else if ((t >> (2 * kBucketBits)) == (p >> (2 * kBucketBits))) {
      add(l1_, occ1_, (t >> kBucketBits) & kMask, e);
    } else if ((t >> (3 * kBucketBits)) == (p >> (3 * kBucketBits))) {
      add(l2_, occ2_, (t >> (2 * kBucketBits)) & kMask, e);
    } else {
      overflow_.push_back(e);
    }
  }

  /// First occupied bucket index >= `from`, or -1.
  [[nodiscard]] static int find_from(const std::uint64_t occ[kWords],
                                     std::uint64_t from) noexcept {
    if (from >= kBuckets) return -1;
    std::uint64_t w = from >> 6;
    std::uint64_t m = occ[w] & (~0ull << (from & 63));
    for (;;) {
      if (m != 0) return static_cast<int>(w * 64 + std::countr_zero(m));
      if (++w == kWords) return -1;
      m = occ[w];
    }
  }

  void scatter2(std::uint64_t i, std::uint64_t p) {
    EventArray& b = l2_[i];
    occ2_[i >> 6] &= ~(1ull << (i & 63));
    for (const QueuedEvent& e : b) {
      const std::uint64_t t = tick_of(e.at);
      if ((t >> kBucketBits) == (p >> kBucketBits)) {
        add(l0_, occ0_, t & kMask, e);
      } else {
        add(l1_, occ1_, (t >> kBucketBits) & kMask, e);
      }
    }
    b.clear();
  }

  void scatter1(std::uint64_t i, std::uint64_t p) {
    EventArray& b = l1_[i];
    occ1_[i >> 6] &= ~(1ull << (i & 63));
    (void)p;  // covering bucket: every tick is in p's level-0 window
    for (const QueuedEvent& e : b) add(l0_, occ0_, tick_of(e.at) & kMask, e);
    b.clear();
  }

  /// Crossed out of pos_'s 2^24 window: every bucket is empty, so jump to the
  /// window of the earliest overflow deadline and partition that window's
  /// events back into the levels, in place.
  void rehome(std::uint64_t& p) {
    assert(!overflow_.empty());
    std::uint64_t tmin = ~0ull;
    for (const QueuedEvent& e : overflow_) tmin = std::min(tmin, tick_of(e.at));
    if ((tmin >> (3 * kBucketBits)) > (p >> (3 * kBucketBits))) {
      p = (tmin >> (3 * kBucketBits)) << (3 * kBucketBits);
    }
    pos_ = p;  // p is a span start here, so no queued tick can precede it
    std::size_t keep = 0;
    for (std::size_t i = 0; i < overflow_.size(); ++i) {
      const QueuedEvent e = overflow_[i];
      const std::uint64_t t = tick_of(e.at);
      if ((t >> (3 * kBucketBits)) == (p >> (3 * kBucketBits))) {
        place(e, t, p);  // same span, so never routes back to overflow
      } else {
        overflow_[keep++] = e;
      }
    }
    overflow_.truncate(keep);
  }

  /// Loads level-0 bucket `k` (one tick's events) into the front run. The
  /// events are COPIED out (a memcpy of PODs), not swapped: swapping storage
  /// would rotate capacities through bucket indexes, and every rarely-used
  /// bucket would re-inject a small vector into the rotation — with stable
  /// per-object storage each vector's capacity grows monotonically to its
  /// index's peak load and steady state is allocation-free.
  void load(std::uint64_t k) {
    EventArray& b = l0_[k];
    occ0_[k >> 6] &= ~(1ull << (k & 63));
    pending_ -= b.size();
    run_.assign(b.begin(), b.end());  // run_ was cleared at refill entry
    b.clear();
    std::sort(run_.begin(), run_.end(), EarlierCompare{});
  }

  /// Advances to the next occupied tick and loads it. Requires pending_ > 0.
  /// Scan invariants: at the top of each iteration the covering level-2 and
  /// level-1 buckets of `p` are scattered down BEFORE level 0 is scanned
  /// (no-ops except right after a window boundary), and `p` only ever jumps
  /// to the window start of a found bucket — never past unexamined ticks.
  void refill() {
    assert(run_head_ == run_.size() && pending_ > 0);
    run_.clear();
    run_head_ = 0;
    std::uint64_t p = pos_ + 1;
    for (;;) {
      if ((p >> (3 * kBucketBits)) != (pos_ >> (3 * kBucketBits))) rehome(p);
      const std::uint64_t i2 = (p >> (2 * kBucketBits)) & kMask;
      if (!l2_[i2].empty()) scatter2(i2, p);
      const std::uint64_t i1 = (p >> kBucketBits) & kMask;
      if (!l1_[i1].empty()) scatter1(i1, p);
      const int k = find_from(occ0_, p & kMask);
      if (k >= 0) {
        p = (p & ~kMask) | static_cast<std::uint64_t>(k);
        load(static_cast<std::uint64_t>(k));
        pos_ = p;
        return;
      }
      const int j = find_from(occ1_, ((p >> kBucketBits) & kMask) + 1);
      if (j >= 0) {
        p = (p & ~(kMask << kBucketBits | kMask)) |
            (static_cast<std::uint64_t>(j) << kBucketBits);
        continue;
      }
      const int m = find_from(occ2_, ((p >> (2 * kBucketBits)) & kMask) + 1);
      if (m >= 0) {
        p = (p & ~(kSpanTicks - 1)) | (static_cast<std::uint64_t>(m) << (2 * kBucketBits));
        continue;
      }
      p = (p & ~(kSpanTicks - 1)) + kSpanTicks;  // span empty: rehome next pass
    }
  }

  double dt_ = 0.0;
  double inv_dt_ = 0.0;
  std::uint64_t pos_ = 0;       // drained watermark: buckets hold ticks > pos_
  std::size_t pending_ = 0;     // events in buckets + overflow (run_ excluded)
  std::size_t run_head_ = 0;    // consumption index into run_
  bool active_ = false;
  int sample_count_ = 0;
  double samples_[kCalibrationSamples] = {};
  std::uint64_t occ0_[kWords] = {};
  std::uint64_t occ1_[kWords] = {};
  std::uint64_t occ2_[kWords] = {};
  std::unique_ptr<QueuedEvent[]> seed_;  // activation block lent to the arrays below
  EventArray run_;       // current tick, key-sorted
  EventArray overflow_;  // deadlines beyond the 2^24-tick span
  EventArray l0_[kBuckets];
  EventArray l1_[kBuckets];
  EventArray l2_[kBuckets];
};

}  // namespace ebrc::sim
