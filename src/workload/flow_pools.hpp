// Structure-of-arrays storage for the dynamic-flow pool.
//
// The churn engine's per-event work divides cleanly into two access
// patterns. Protocol work (pacing, feedback, ACK clocking) is handled by the
// connection objects themselves, which are pinned at their construction
// address — their handlers capture `this`. Pool work — admit, complete,
// quarantine release, and the epoch sweeps that snapshot and fold every
// slot's counters — touches a few small fields per slot and, at 10^5–10^6
// slots, dominates cache behavior. FlowPools therefore splits the pool into
// parallel arrays:
//
//   SlotState[]        — per slot id: the per-transfer attributes
//                        admit/complete touch plus the slot's connection
//                        index in each class (40 B each; -1 = never wired)
//   deque<Connection>  — per traffic class, the heavy protocol objects,
//                        constructed on a slot's first use of that class,
//                        address-stable forever, referenced from SlotState
//                        by index (never by pointer, so the arrays stay
//                        trivially copyable)
//   EpochSnapshot[]    — per traffic class, parallel to its connection
//                        pool: the counters begin_epoch() snapshots (48 B
//                        per wired connection, none for a class a slot never
//                        carried)
//
// The dumbbell flow id lives in the connection, which stamps it on every
// packet; the pool never reads it again after wiring.
//
// The traffic classes are the rows of the class table (workload/zoo.hpp):
// the connection deques are one std::tuple built from it, and with_pool() /
// with_sender() dispatch a generic visitor over the class index, so the
// manager's epoch sweeps are written once for the whole zoo.
//
// Static tripwires pin the record layouts the same way the 56-B Packet and
// 24-B queue-entry guards do: growing a record past its budget is a compile
// error, not a silent regression.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <tuple>
#include <type_traits>
#include <vector>

#include "workload/zoo.hpp"

namespace ebrc::workload {

/// Per-slot record: everything admit()/complete() read or write per
/// transfer, and the slot's connection in each class.
struct SlotState {
  double size_pkts = 0.0;
  double opened_at = 0.0;
  std::int32_t session_remaining = 0;  // follow-up transfers after this one
  std::int8_t cls = 0;                 // current/last occupant (FlowClass)
  bool busy = false;                   // occupancy guard: admit/complete alternate
  /// Index into each class's connection pool; -1 = never wired.
  std::array<std::int32_t, kFlowClasses> conn = [] {
    std::array<std::int32_t, kFlowClasses> a{};
    a.fill(-1);
    return a;
  }();
};
static_assert(sizeof(SlotState) == 40, "SlotState grew past its budget");
static_assert(alignof(SlotState) == 8);
static_assert(std::is_trivially_copyable_v<SlotState>);

/// Epoch snapshots of one connection's cumulative counters, taken by
/// begin_epoch() and subtracted by summarize().
struct EpochSnapshot {
  std::uint64_t delivered0 = 0;
  std::uint64_t packets0 = 0;
  std::uint64_t losses0 = 0;
  std::uint64_t events0 = 0;
  // queuing-delay telemetry (delay-sensing controllers; zero for the
  // loss-based classes)
  double qd_sum0 = 0.0;
  std::uint64_t qd_count0 = 0;
};
static_assert(sizeof(EpochSnapshot) == 48, "EpochSnapshot grew past its budget");
static_assert(std::is_trivially_copyable_v<EpochSnapshot>);

class FlowPools {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Pre-sizes the slot array (not the connection pools or their snapshots —
  /// those are built lazily, one per slot-side actually exercised).
  void reserve(std::size_t n) { slots_.reserve(n); }

  /// Appends an empty slot (no class wired) and returns its id.
  std::size_t add_slot() {
    slots_.emplace_back();
    return slots_.size() - 1;
  }

  [[nodiscard]] SlotState& slot(std::size_t i) noexcept { return slots_[i]; }
  [[nodiscard]] const SlotState& slot(std::size_t i) const noexcept { return slots_[i]; }

  [[nodiscard]] EpochSnapshot& snapshot(FlowClass cls, std::int32_t c) noexcept {
    return snaps_[cls][c];
  }
  [[nodiscard]] const EpochSnapshot& snapshot(FlowClass cls, std::int32_t c) const noexcept {
    return snaps_[cls][c];
  }

  /// Constructs a connection of class `cls` in its pool (address-stable
  /// deque) with a zeroed epoch snapshot and returns its index for
  /// SlotState::conn. `configs` holds one config per distinct Config type of
  /// the zoo; the class takes the one of its connection's Config type.
  template <typename... Configs>
  [[nodiscard]] std::int32_t make(FlowClass cls, net::Dumbbell& net, int flow_id, double rtt,
                                  const Configs&... configs) {
    with_class(cls, [&](auto k) {
      using Config = typename std::tuple_element_t<k, decltype(pools_)>::value_type::Config;
      std::get<k>(pools_).emplace_back(net, flow_id, rtt,
                                       std::get<const Config&>(std::tie(configs...)));
    });
    std::deque<EpochSnapshot>& s = snaps_[cls];
    s.emplace_back();
    return static_cast<std::int32_t>(s.size() - 1);
  }

  /// Applies `fn` to class `cls`'s connection deque as its concrete type.
  /// Pool/epoch code generic over the zoo is written once against the
  /// Sender concept and dispatched here, once per class.
  template <typename Fn>
  void with_pool(FlowClass cls, Fn&& fn) const {
    with_class(cls, [&](auto k) { fn(std::get<k>(pools_)); });
  }

  /// Applies `fn` to connection `c` of class `cls` as whatever concrete
  /// Sender it is.
  template <typename Fn>
  void with_sender(FlowClass cls, std::int32_t c, Fn&& fn) {
    with_class(cls, [&](auto k) { fn(std::get<k>(pools_)[c]); });
  }

 private:
  template <typename Rows>
  struct PoolsOf;
  template <typename... Rows>
  struct PoolsOf<std::tuple<Rows...>> {
    using type = std::tuple<std::deque<typename Rows::Connection>...>;
  };

  std::vector<SlotState> slots_;
  std::deque<EpochSnapshot> snaps_[kFlowClasses];  // parallel to the pools below
  // One deque per class, in kZoo order: connections never relocate.
  typename PoolsOf<std::remove_const_t<decltype(kZoo)>>::type pools_;
};

}  // namespace ebrc::workload
