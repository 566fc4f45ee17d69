// Dynamic flow-population telemetry.
//
// Under flow churn the paper's per-flow, whole-run statistics stop being the
// right primitives: the population itself is a stochastic process. This
// tracker turns open/close/reject notifications from the workload layer into
// the long-run quantities the churn experiments report — the time-averaged
// number of concurrent flows per traffic class (a TimeWeightedAverage over
// the piecewise-constant population signal), the peak population, arrival /
// completion / rejection counts, and per-class moments of the completion
// time and transfer size (whose CoV is how heavy-tailed sizes show up).
//
// begin_epoch(t) restarts every windowed statistic at t without touching the
// instantaneous population — the same warm-up truncation the experiment
// runner applies to its other metrics.
#pragma once

#include <array>
#include <cstdint>

#include "stats/online.hpp"
#include "stats/time_average.hpp"

namespace ebrc::stats {

class PopulationTracker {
 public:
  /// Traffic classes tracked separately: one per row of the workload
  /// layer's class table (workload/zoo.hpp asserts the two agree).
  static constexpr int kClasses = 4;

  /// A flow of class `cls` became active at time `t`.
  void on_open(double t, int cls);

  /// An arrival of class `cls` was turned away (pool full) at time `t`.
  void on_reject(double t, int cls);

  /// A flow of class `cls` retired at `t` after `duration_s` seconds,
  /// having carried a transfer of `size_pkts` packets.
  void on_close(double t, int cls, double duration_s, double size_pkts);

  /// Restarts the windowed statistics (time averages, counters, completion
  /// moments) at `t`; the current population carries over.
  void begin_epoch(double t);

  /// Closes the time-average window at `t` (call once, at the end of the
  /// measurement window, before reading the averages).
  void finish(double t);

  // --- instantaneous ---------------------------------------------------
  [[nodiscard]] int active(int cls) const { return active_.at(static_cast<std::size_t>(cls)); }
  [[nodiscard]] int active_total() const noexcept;
  /// Largest concurrent population ever seen (not reset by begin_epoch —
  /// peaks during warm-up count; churn ramps up from an empty system).
  [[nodiscard]] std::uint64_t peak() const noexcept { return peak_; }

  /// Cumulative per-class open/close totals since construction. NOT reset by
  /// begin_epoch — these back the obs layer's monotone counters, which want
  /// whole-run totals, not the warm-up-truncated window.
  [[nodiscard]] std::uint64_t class_opens(int cls) const {
    return class_opens_.at(static_cast<std::size_t>(cls));
  }
  [[nodiscard]] std::uint64_t class_closes(int cls) const {
    return class_closes_.at(static_cast<std::size_t>(cls));
  }

  // --- windowed --------------------------------------------------------
  [[nodiscard]] std::uint64_t arrivals() const noexcept { return arrivals_; }
  [[nodiscard]] std::uint64_t completions() const noexcept { return completions_; }
  [[nodiscard]] std::uint64_t rejections() const noexcept { return rejections_; }
  /// Time-averaged concurrent flows of `cls` over the epoch.
  [[nodiscard]] double mean_flows(int cls) const {
    return flows_avg_.at(static_cast<std::size_t>(cls)).average();
  }
  [[nodiscard]] double mean_flows_total() const noexcept { return total_avg_.average(); }
  /// Completion-time moments (seconds) of transfers that FINISHED in the
  /// epoch, including ones opened before it (long-run view).
  [[nodiscard]] const OnlineMoments& completion_time(int cls) const {
    return completion_s_.at(static_cast<std::size_t>(cls));
  }
  /// Size moments (packets) of transfers that finished in the epoch.
  [[nodiscard]] const OnlineMoments& completion_size(int cls) const {
    return completion_pkts_.at(static_cast<std::size_t>(cls));
  }

 private:
  void set_population(double t);

  std::array<int, kClasses> active_{};
  std::array<std::uint64_t, kClasses> class_opens_{};
  std::array<std::uint64_t, kClasses> class_closes_{};
  std::uint64_t peak_ = 0;
  std::uint64_t arrivals_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t rejections_ = 0;
  std::array<TimeWeightedAverage, kClasses> flows_avg_{};
  TimeWeightedAverage total_avg_{};
  std::array<OnlineMoments, kClasses> completion_s_{};
  std::array<OnlineMoments, kClasses> completion_pkts_{};
};

}  // namespace ebrc::stats
