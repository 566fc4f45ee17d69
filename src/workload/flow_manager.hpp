// The dynamic-workload engine: spawns and retires finite transfers DURING a
// run, over any controller class in the zoo (TFRC, TCP, delay-AIMD, RCP).
//
// Arrivals fire on one pinned simulator event (Poisson or Pareto-renewal
// inter-arrival gaps from the manager's own Rng); each arrival draws a
// traffic class, a finite flow size, and possibly a session continuation,
// then claims a slot from the run-time flow pool.
//
// The pool is where the zero-steady-state-allocation contract lives. A slot
// wires itself into the dumbbell ONCE per traffic class: one dumbbell flow
// id plus one permanently constructed connection of that class's row in the
// class table (workload/zoo.hpp), its pinned events and packet handlers
// registered at that first use. Every later transfer merely open()s it (a
// state rewind). Once every slot has served every class it carries, the pool
// is saturated: further churn performs no heap allocation and registers no
// new kernel state (asserted by tests/workload_alloc_test.cpp).
//
// Retired slots are QUARANTINED for a drain interval before re-entering the
// free list: a packet of the previous transfer still inside the bottleneck
// queue, the tail pipe, or the reverse path must not reach the slot's next
// incarnation (the connections reset their sequencing state at open, so a
// stale packet arriving before the quarantine expires lands in the OLD
// incarnation's tolerant, closed state instead). The drain bound is
// computed by the caller from the scenario's worst-case path residency.
//
// Determinism: all draws come from strictly event-ordered callbacks inside
// a single-threaded Simulator — runs are bit-identical for a fixed seed
// under any BatchRunner --jobs, shard layout, or cache state. The
// randomness is split into TWO streams so common-random-number pairing
// works: the WORKLOAD stream (inter-arrival gaps, traffic class, transfer
// size, session length — drawn in fixed order per arrival, BEFORE the
// admission check, so rejected arrivals consume exactly what admitted ones
// would) is a pure function of the seed and the arrival index; the PATH
// stream (per-slot RTT jitter, session think times) absorbs every draw
// whose timing depends on pool state. Two configs paired on one seed
// therefore see identical arrival times, classes, and sizes even when
// their completions, slot reuse, and rejections diverge. (Session
// follow-up admissions draw from the workload stream at completion-driven
// times, so CRN contrasts should pair session-free workloads.)
#pragma once

#include <cstdint>
#include <vector>

#include "net/dumbbell.hpp"
#include "sim/random.hpp"
#include "stats/population.hpp"
#include "workload/flow_pools.hpp"
#include "workload/workload_config.hpp"

namespace ebrc::workload {

/// Everything the manager needs beyond the dumbbell: the workload law, the
/// protocol configurations shared with the static population, the path
/// geometry for per-slot RTT draws, and the drain quarantine.
struct FlowManagerConfig {
  WorkloadConfig workload{};
  tfrc::TfrcConfig tfrc{};
  tcp::TcpConfig tcp{};
  /// The paced rate sender's settings, shared by delay-AIMD and RCP (their
  /// rate laws run with default parameters).
  rate::RateSenderConfig rate{};
  double base_rtt_s = 0.050;
  double rtt_spread = 0.1;
  /// Propagation of the dumbbell's shared segment (subtracted from the
  /// forward one-way delay, as the static flow constructor does).
  double shared_prop_s = 0.001;
  /// Quarantine after retirement before a slot can be reused; must bound the
  /// residency of any in-flight packet of the retired transfer.
  double drain_s = 0.5;
  std::uint64_t seed = 1;
};

/// Long-run churn telemetry over the measurement window (begin_epoch to
/// summarize), embedded into testbed::ExperimentResult.
struct WorkloadSummary {
  std::uint64_t arrivals = 0;     // admitted transfers
  std::uint64_t completions = 0;  // transfers finished
  std::uint64_t rejections = 0;   // turned away, pool full
  double mean_flows = 0.0;        // time-averaged concurrent dynamic flows
  double mean_flows_tfrc = 0.0;
  double mean_flows_tcp = 0.0;
  std::uint64_t peak_flows = 0;   // max concurrent over the whole run
  double tfrc_completion_s = 0.0;    // mean per-transfer completion time
  double tcp_completion_s = 0.0;
  double tfrc_completion_cov = 0.0;  // CoV of the completion time
  double tcp_completion_cov = 0.0;
  double tfrc_goodput_pps = 0.0;  // delivered packets / window, per class
  double tcp_goodput_pps = 0.0;
  double tfrc_share = 0.0;        // tfrc goodput / (tfrc + tcp goodput)
  double tfrc_p = 0.0;            // aggregate per-class loss-event rates
  double tcp_p = 0.0;
  // Controller-zoo classes (PR 9); zero when the class carried no traffic.
  double mean_flows_aimd = 0.0;
  double mean_flows_rcp = 0.0;
  double aimd_completion_s = 0.0;
  double rcp_completion_s = 0.0;
  double aimd_completion_cov = 0.0;
  double rcp_completion_cov = 0.0;
  double aimd_goodput_pps = 0.0;
  double rcp_goodput_pps = 0.0;
  double aimd_p = 0.0;
  double rcp_p = 0.0;
  /// Mean queuing delay over every delay-sensing sample in the window
  /// (delay-AIMD + RCP senders; zero when only loss-based classes ran).
  double qdelay_mean_s = 0.0;
};

/// One traffic class's slice of a WorkloadSummary as member pointers, so
/// code can loop over the classes while the named members above stay the
/// public surface (figure drivers and the result schema read them by name).
struct ClassFields {
  double WorkloadSummary::*mean_flows;
  double WorkloadSummary::*completion_s;
  double WorkloadSummary::*completion_cov;
  double WorkloadSummary::*goodput_pps;
  double WorkloadSummary::*p;
};

/// Indexed by FlowClass.
inline constexpr ClassFields kClassFields[kFlowClasses] = {
    {&WorkloadSummary::mean_flows_tfrc, &WorkloadSummary::tfrc_completion_s,
     &WorkloadSummary::tfrc_completion_cov, &WorkloadSummary::tfrc_goodput_pps,
     &WorkloadSummary::tfrc_p},
    {&WorkloadSummary::mean_flows_tcp, &WorkloadSummary::tcp_completion_s,
     &WorkloadSummary::tcp_completion_cov, &WorkloadSummary::tcp_goodput_pps,
     &WorkloadSummary::tcp_p},
    {&WorkloadSummary::mean_flows_aimd, &WorkloadSummary::aimd_completion_s,
     &WorkloadSummary::aimd_completion_cov, &WorkloadSummary::aimd_goodput_pps,
     &WorkloadSummary::aimd_p},
    {&WorkloadSummary::mean_flows_rcp, &WorkloadSummary::rcp_completion_s,
     &WorkloadSummary::rcp_completion_cov, &WorkloadSummary::rcp_goodput_pps,
     &WorkloadSummary::rcp_p},
};

class FlowManager {
 public:
  FlowManager(net::Dumbbell& net, FlowManagerConfig cfg);

  FlowManager(const FlowManager&) = delete;  // pinned arrival event captures this
  FlowManager& operator=(const FlowManager&) = delete;

  /// Schedules the first arrival at absolute time `at` (>= now).
  void start(double at);

  /// Stops generating arrivals (active transfers run to completion; their
  /// session continuations still fire).
  void stop() noexcept { running_ = false; }

  /// Warm-up truncation: restarts the windowed statistics and snapshots
  /// every slot's cumulative counters at the CURRENT simulated time.
  void begin_epoch();

  /// Closes the window at the current time and folds the telemetry.
  /// Callable once per epoch (finishes the population time averages).
  [[nodiscard]] WorkloadSummary summarize();

  /// Observability hook, fired once per transfer completion (a rare path —
  /// thousands of packets per transfer). Raw function pointer + context so
  /// workload/ stays free of any obs dependency; the obs layer uses it to
  /// feed completion-time histograms and trace spans.
  using CompletionHook = void (*)(void* ctx, double opened_at, double closed_at, int cls,
                                  double size_pkts);
  void set_completion_hook(CompletionHook hook, void* ctx) noexcept {
    completion_hook_ = hook;
    completion_ctx_ = ctx;
  }

  // --- introspection (tests, drivers) ----------------------------------
  [[nodiscard]] const stats::PopulationTracker& population() const noexcept { return pop_; }
  [[nodiscard]] std::size_t pool_slots() const noexcept { return pools_.size(); }
  [[nodiscard]] int active_flows() const noexcept { return pop_.active_total(); }
  /// Transfers started as session follow-ups (after a think time).
  [[nodiscard]] std::uint64_t session_followups() const noexcept { return session_followups_; }

 private:
  void arrival();                    // pinned: admit one arrival, schedule the next
  void admit(int session_remaining);
  void complete(std::size_t idx);
  void release(std::size_t idx);     // post-quarantine: slot back on the free list
  void ensure_side(std::size_t idx, FlowClass cls);

  [[nodiscard]] double draw_interarrival();
  [[nodiscard]] double draw_size();
  [[nodiscard]] int draw_session_remaining();

  net::Dumbbell& net_;
  FlowManagerConfig cfg_;
  sim::Rng workload_rng_;  // arrival process + transfer attributes (CRN-common)
  sim::Rng path_rng_;      // RTT jitter + think times (pool-state dependent)
  sim::Simulator::PinnedEvent arrival_ev_;
  FlowPools pools_;                  // SoA slot state + on-demand connections
  std::vector<std::size_t> free_;    // LIFO free list of drained slots
  stats::PopulationTracker pop_;
  CompletionHook completion_hook_ = nullptr;
  void* completion_ctx_ = nullptr;
  int forced_cls_ = -1;  // workload.controller override; -1 = tfrc_fraction mix
  double epoch_start_ = 0.0;
  bool running_ = false;
  bool epoch_open_ = false;
  std::uint64_t session_followups_ = 0;
};

}  // namespace ebrc::workload
