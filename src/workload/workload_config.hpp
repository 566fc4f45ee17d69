// Dynamic-workload description: the knobs of a flow-churn experiment.
//
// Every scenario in the repo used to pin its flow population at t = 0 and
// hold it to the end — the one regime real networks never exhibit. A
// WorkloadConfig instead describes an ARRIVAL PROCESS of finite transfers:
// connections are spawned during the run (Poisson or heavy-tailed renewal
// arrivals), carry a finite flow size (exponential or bounded-Pareto), run
// the real TFRC or TCP protocol machinery over the shared bottleneck, and
// retire when the transfer completes. Session traffic (a user fetching
// several objects with think times in between) rides the same pool.
//
// The default-constructed config is DISABLED (arrival_rate_per_s == 0) and
// is deliberately invisible to scenario serialization and the cache
// fingerprint: pre-workload scenario files parse unchanged and keep their
// exact pre-workload fingerprints (see scenario_io.cpp's defaulted_table).
#pragma once

#include <string>

namespace ebrc::workload {

struct WorkloadConfig {
  /// Mean transfer arrivals per second; 0 disables the dynamic workload.
  double arrival_rate_per_s = 0.0;

  /// Inter-arrival law: "exponential" (Poisson arrivals) or "pareto" (a
  /// heavy-tailed renewal process with the same mean).
  std::string interarrival = "exponential";
  /// Shape of the Pareto renewal inter-arrival (> 1; only used for "pareto").
  double interarrival_shape = 1.5;

  /// Flow-size law: "exponential" or "pareto" (bounded Pareto).
  std::string size_dist = "exponential";
  /// Mean transfer size in data packets.
  double mean_size_pkts = 100.0;
  /// Bounded-Pareto shape (> 0; only used for "pareto" sizes).
  double pareto_shape = 1.3;
  /// Upper truncation of a Pareto size draw, in packets.
  double max_size_pkts = 1e6;
  /// Floor applied to every size draw (a transfer is at least this long).
  double min_size_pkts = 1.0;

  /// Probability an arriving transfer runs TFRC; the rest run TCP.
  double tfrc_fraction = 0.5;

  /// Controller override for the whole arrival process: "" (default) keeps
  /// the two-class tfrc_fraction mix; a controller name from the class table
  /// (workload/zoo.hpp) pins EVERY arrival to that class (the class draw is
  /// still burned so CRN-paired arms see identical arrival streams). A class
  /// whose row asks for it also turns the bottleneck into an RCP router.
  std::string controller = "";

  /// Flow-pool capacity: the maximum number of concurrently active dynamic
  /// flows. Arrivals that find the pool full are rejected (counted, not
  /// queued) — the classic loss-system admission model.
  int max_concurrent = 256;

  /// Probability an arrival opens a SESSION: after its first transfer
  /// completes, the session sleeps an exponential think time and fetches
  /// another object, for a geometrically distributed number of transfers.
  double session_fraction = 0.0;
  /// Mean transfers per session (geometric, >= 1).
  double session_transfers_mean = 5.0;
  /// Mean think time between a session's transfers, seconds.
  double session_think_s = 1.0;

  friend bool operator==(const WorkloadConfig&, const WorkloadConfig&) = default;
};

/// True when the config describes an active arrival process.
[[nodiscard]] inline bool workload_enabled(const WorkloadConfig& w) noexcept {
  return w.arrival_rate_per_s > 0.0;
}

}  // namespace ebrc::workload
