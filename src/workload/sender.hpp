// The Sender concept: the contract every controller in the zoo satisfies.
// Three types implement it: TfrcConnection, TcpConnection, and the paced
// rate sender rate::RateConnection<Law> (delay-based AIMD and RCP are laws).
//
// A Sender is constructed ONCE per pool slot from (dumbbell, flow id, base
// RTT, its Config) — handlers and pinned events are permanent, the object is
// address-stable — and then cycled through open()/close() per transfer:
// open() rewinds per-transfer POD state while cumulative measurement
// counters survive, close() retires the flow with pacing/feedback chains
// dying lazily against the running flag. Every row of the class table
// (workload/zoo.hpp) is checked against the concept at compile time.
#pragma once

#include <concepts>
#include <cstdint>

#include "net/dumbbell.hpp"
#include "sim/inline_function.hpp"
#include "stats/loss_events.hpp"
#include "stats/online.hpp"

namespace ebrc::workload {

/// Flow-retirement notification shared by all pooled controllers.
using CompletionFn = sim::InlineFunction<void(), 24>;

template <typename S>
concept Sender =
    std::constructible_from<S, net::Dumbbell&, int, double, const typename S::Config&> &&
    requires(S s, const S cs, double at, std::uint64_t n, CompletionFn done) {
      // continuous-source control (figure experiments)
      s.start(at);
      s.stop();
      // pooled per-transfer lifecycle (dynamic workloads)
      s.open(n, std::move(done));
      s.close();
      { cs.active() } -> std::convertible_to<bool>;
      { cs.transfers_completed() } -> std::convertible_to<std::uint64_t>;
      // measurement surface the workload/testbed layers aggregate over
      { cs.recorder() } -> std::convertible_to<const stats::LossEventRecorder&>;
      { cs.delivered() } -> std::convertible_to<std::uint64_t>;
      { cs.sent() } -> std::convertible_to<std::uint64_t>;
      { cs.srtt() } -> std::convertible_to<double>;
      { cs.rtt_stats() } -> std::convertible_to<const stats::OnlineMoments&>;
      // queuing-delay telemetry: delay-sensing controllers report (sum, count)
      // of per-RTT queuing-delay samples; loss-based ones report zero samples.
      { cs.queuing_delay_sum_s() } -> std::convertible_to<double>;
      { cs.queuing_delay_samples() } -> std::convertible_to<std::uint64_t>;
    };

}  // namespace ebrc::workload
