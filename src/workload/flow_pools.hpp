// Structure-of-arrays storage for the dynamic-flow pool.
//
// The churn engine's per-event work divides cleanly into two access
// patterns. Protocol work (pacing, feedback, ACK clocking) is handled by the
// connection objects themselves, which are pinned at their construction
// address — their handlers capture `this`. Pool work — admit, complete,
// quarantine release, and the epoch sweeps that snapshot and fold every
// slot's counters — touches a few small fields per slot and, at 10^5–10^6
// slots, dominates cache behavior: with the old deque<Slot> layout each slot
// visit dragged in two std::optional connections' worth of cold bytes
// (~1 KB per slot) to read ~30 hot ones.
//
// FlowPools therefore splits the pool into parallel arrays:
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
// Four traffic classes ride the pool (FlowClass): TFRC and TCP from the
// paper, plus the controller zoo — delay-based AIMD and RCP. All four
// connection types satisfy the workload::Sender concept (checked below), and
// with_sender() dispatches a generic visitor over the class tag so the
// manager's epoch sweeps are written once, not four times.
//
// Static tripwires pin the record layouts the same way the 56-B Packet and
// 24-B queue-entry guards do: growing a record past its budget is a compile
// error, not a silent regression.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <type_traits>
#include <vector>

#include "delay_aimd/delay_aimd_connection.hpp"
#include "rcp/rcp_connection.hpp"
#include "tcp/tcp_connection.hpp"
#include "tfrc/tfrc_connection.hpp"
#include "workload/sender.hpp"

namespace ebrc::workload {

enum class FlowClass : int { kTfrc = 0, kTcp = 1, kDelayAimd = 2, kRcp = 3 };
inline constexpr int kFlowClasses = 4;

// The whole zoo satisfies the Sender contract — a controller that forgets
// part of the pooled lifecycle fails here, at compile time.
static_assert(Sender<tfrc::TfrcConnection>);
static_assert(Sender<tcp::TcpConnection>);
static_assert(Sender<delay_aimd::DelayAimdConnection>);
static_assert(Sender<rcp::RcpConnection>);

/// Per-slot record: everything admit()/complete() read or write per
/// transfer, and the slot's connection in each class.
struct SlotState {
  double size_pkts = 0.0;
  double opened_at = 0.0;
  std::int32_t session_remaining = 0;  // follow-up transfers after this one
  std::int8_t cls = 0;                 // current/last occupant (FlowClass)
  bool busy = false;                   // occupancy guard: admit/complete alternate
  std::int32_t conn[kFlowClasses] = {-1, -1, -1, -1};  // index into each class's pool
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

  /// Connections ever built in class `cls`.
  [[nodiscard]] std::int32_t connections(int cls) const noexcept {
    return static_cast<std::int32_t>(snaps_[cls].size());
  }
  [[nodiscard]] EpochSnapshot& snapshot(int cls, std::int32_t c) noexcept {
    return snaps_[cls][c];
  }
  [[nodiscard]] const EpochSnapshot& snapshot(int cls, std::int32_t c) const noexcept {
    return snaps_[cls][c];
  }

  /// Constructs a connection in the class pool (address-stable deque) with
  /// a zeroed epoch snapshot and returns its index for SlotState::conn.
  [[nodiscard]] std::int32_t make_tfrc(net::Dumbbell& net, int flow_id, double rtt,
                                       const tfrc::TfrcConfig& cfg) {
    tfrc_.emplace_back(net, flow_id, rtt, cfg);
    return add_snapshot(FlowClass::kTfrc);
  }
  [[nodiscard]] std::int32_t make_tcp(net::Dumbbell& net, int flow_id, double rtt,
                                      const tcp::TcpConfig& cfg) {
    tcp_.emplace_back(net, flow_id, rtt, cfg);
    return add_snapshot(FlowClass::kTcp);
  }
  [[nodiscard]] std::int32_t make_delay_aimd(net::Dumbbell& net, int flow_id, double rtt,
                                             const delay_aimd::DelayAimdConfig& cfg) {
    aimd_.emplace_back(net, flow_id, rtt, cfg);
    return add_snapshot(FlowClass::kDelayAimd);
  }
  [[nodiscard]] std::int32_t make_rcp(net::Dumbbell& net, int flow_id, double rtt,
                                      const rcp::RcpConfig& cfg) {
    rcp_.emplace_back(net, flow_id, rtt, cfg);
    return add_snapshot(FlowClass::kRcp);
  }

  [[nodiscard]] tfrc::TfrcConnection& tfrc(std::int32_t c) noexcept { return tfrc_[c]; }
  [[nodiscard]] const tfrc::TfrcConnection& tfrc(std::int32_t c) const noexcept {
    return tfrc_[c];
  }
  [[nodiscard]] tcp::TcpConnection& tcp(std::int32_t c) noexcept { return tcp_[c]; }
  [[nodiscard]] const tcp::TcpConnection& tcp(std::int32_t c) const noexcept { return tcp_[c]; }
  [[nodiscard]] delay_aimd::DelayAimdConnection& delay_aimd(std::int32_t c) noexcept {
    return aimd_[c];
  }
  [[nodiscard]] const delay_aimd::DelayAimdConnection& delay_aimd(std::int32_t c) const noexcept {
    return aimd_[c];
  }
  [[nodiscard]] rcp::RcpConnection& rcp(std::int32_t c) noexcept { return rcp_[c]; }
  [[nodiscard]] const rcp::RcpConnection& rcp(std::int32_t c) const noexcept { return rcp_[c]; }

  /// Applies `fn` to connection `c` of class `cls` as whatever concrete
  /// Sender it is. Pool/epoch code generic over the zoo is written once
  /// against the Sender concept and dispatched here.
  template <typename Fn>
  decltype(auto) with_sender(int cls, std::int32_t c, Fn&& fn) {
    switch (static_cast<FlowClass>(cls)) {
      case FlowClass::kTfrc: return fn(tfrc_[c]);
      case FlowClass::kTcp: return fn(tcp_[c]);
      case FlowClass::kDelayAimd: return fn(aimd_[c]);
      case FlowClass::kRcp: return fn(rcp_[c]);
    }
    return fn(tfrc_[c]);  // unreachable; keeps -Wreturn-type quiet
  }
  template <typename Fn>
  decltype(auto) with_sender(int cls, std::int32_t c, Fn&& fn) const {
    switch (static_cast<FlowClass>(cls)) {
      case FlowClass::kTfrc: return fn(tfrc_[c]);
      case FlowClass::kTcp: return fn(tcp_[c]);
      case FlowClass::kDelayAimd: return fn(aimd_[c]);
      case FlowClass::kRcp: return fn(rcp_[c]);
    }
    return fn(tfrc_[c]);  // unreachable; keeps -Wreturn-type quiet
  }

 private:
  std::int32_t add_snapshot(FlowClass cls) {
    std::deque<EpochSnapshot>& s = snaps_[static_cast<int>(cls)];
    s.emplace_back();
    return static_cast<std::int32_t>(s.size() - 1);
  }

  std::vector<SlotState> slots_;
  std::deque<EpochSnapshot> snaps_[kFlowClasses];  // parallel to the pools below
  std::deque<tfrc::TfrcConnection> tfrc_;  // deque: connections never relocate
  std::deque<tcp::TcpConnection> tcp_;
  std::deque<delay_aimd::DelayAimdConnection> aimd_;
  std::deque<rcp::RcpConnection> rcp_;
};

}  // namespace ebrc::workload
