// The controller zoo's class table: one row per traffic class.
//
// A row names the connection type, the WorkloadConfig::controller value that
// pins a churn workload to the class, the short tag of its summary fields and
// obs instruments (wl_opens_<tag>, transfer:<tag> spans), and whether the
// bottleneck must run the RCP router law. The row's position is its
// FlowClass. FlowPools' pools and dispatch, FlowManager's controller lookup,
// the experiment's instrument names and router decision, and the controller
// matrix's arms all derive from this table.
#pragma once

#include <array>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "delay_aimd/delay_aimd_connection.hpp"
#include "rcp/rcp_connection.hpp"
#include "stats/population.hpp"
#include "tcp/tcp_connection.hpp"
#include "tfrc/tfrc_connection.hpp"
#include "workload/sender.hpp"

namespace ebrc::workload {

/// The plain columns of a row, indexable at run time (see kClassInfo).
struct ClassInfo {
  std::string_view controller;  // WorkloadConfig::controller value
  std::string_view tag;         // summary/obs tag; "aimd" is in cached payloads
  bool rcp_router;              // the bottleneck runs the RCP router law
};

template <Sender Conn>
struct ClassRow : ClassInfo {
  using Connection = Conn;
};

/// The zoo, in FlowClass order. A new controller is one more row.
inline constexpr std::tuple kZoo{
    ClassRow<tfrc::TfrcConnection>{{"tfrc", "tfrc", false}},
    ClassRow<tcp::TcpConnection>{{"tcp", "tcp", false}},
    ClassRow<delay_aimd::DelayAimdConnection>{{"delay_aimd", "aimd", false}},
    ClassRow<rcp::RcpConnection>{{"rcp", "rcp", true}},
};

/// A traffic class: the index of its row in kZoo.
using FlowClass = int;
inline constexpr int kFlowClasses = static_cast<int>(std::tuple_size_v<decltype(kZoo)>);
static_assert(stats::PopulationTracker::kClasses == kFlowClasses,
              "PopulationTracker tracks one slot per zoo class");

inline constexpr auto kClassInfo = std::apply(
    [](const auto&... row) { return std::array<ClassInfo, sizeof...(row)>{row...}; }, kZoo);

/// Calls fn(std::integral_constant<FlowClass, K>{}) for the row K == cls:
/// the one run-time dispatch over the zoo. No-op for an out-of-range cls.
template <typename Fn>
constexpr void with_class(FlowClass cls, Fn&& fn) {
  [&]<FlowClass... K>(std::integer_sequence<FlowClass, K...>) {
    (void)((cls == K && (fn(std::integral_constant<FlowClass, K>{}), true)) || ...);
  }(std::make_integer_sequence<FlowClass, kFlowClasses>{});
}

/// The class a WorkloadConfig::controller value names, or -1.
[[nodiscard]] constexpr FlowClass find_class(std::string_view controller) noexcept {
  for (FlowClass c = 0; c < kFlowClasses; ++c) {
    if (kClassInfo[c].controller == controller) return c;
  }
  return -1;
}

}  // namespace ebrc::workload
