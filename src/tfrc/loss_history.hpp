// TFRC receiver-side loss history (RFC 3448 Section 5).
//
// Turns the arriving sequence-number stream into loss-event intervals:
// losses within one RTT of the start of a loss event belong to that event;
// the average loss interval is the moving average of the last L closed
// intervals, and — when the comprehensive control is enabled — the open
// (still growing) interval is promoted into the newest slot whenever that
// increases the average (Eq. 4 of the paper).
#pragma once

#include <cstdint>

#include "core/estimator.hpp"

namespace ebrc::tfrc {

class LossHistory {
 public:
  /// `weights`: the moving-average profile (normally the shared
  /// core::tfrc_weight_profile(L)).
  /// `comprehensive`: include the open interval (TFRC default). The paper's
  /// lab runs disable it to isolate the basic control.
  /// `discounting`: RFC 3448 Section 5.5 history discounting — when the open
  /// interval exceeds twice the average, older intervals are de-weighted by
  /// max(0.5, 2 I_mean / I_0) so the rate recovers faster after a loss-free
  /// stretch (an extension the paper's analysis deliberately omits).
  LossHistory(core::WeightProfile weights, bool comprehensive, bool discounting = false);

  /// Feeds one arrived packet. `missing_before` is how many sequence numbers
  /// were skipped right before this packet (0 when in order); `now` the
  /// arrival time; `rtt` the current loss-event grouping window.
  void on_packet(std::int64_t missing_before, double now, double rtt);

  /// True once at least one loss event has been seen (the estimator is live).
  [[nodiscard]] bool has_loss() const noexcept { return events_ > 0; }

  /// The TFRC average loss interval hat-theta (with the open-interval rule
  /// when comprehensive). Requires has_loss().
  [[nodiscard]] double mean_interval() const;

  /// Estimated loss-event rate p = 1/mean_interval(); 0 before any loss.
  [[nodiscard]] double loss_event_rate() const;

  /// Seeds the history after the first loss event so the reported rate
  /// matches the current throughput (RFC 3448 Section 6.3.1).
  void seed(double interval_packets);

  /// Forgets all loss state (connection reuse in the flow pool): the next
  /// transfer on this history starts from a clean estimator. Retains the
  /// weight profile and the estimator's ring — reset allocates nothing.
  void reset() noexcept;

  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
  [[nodiscard]] double open_interval() const noexcept { return open_packets_; }
  /// The closed intervals: the last L of them, newest first, behind the
  /// estimator's value().
  [[nodiscard]] const core::MovingAverageEstimator& estimator() const noexcept {
    return estimator_;
  }

 private:
  core::MovingAverageEstimator estimator_;
  bool comprehensive_;
  bool discounting_;
  bool seeded_ = false;
  double open_packets_ = 0.0;
  double last_event_time_ = -1.0;
  std::uint64_t events_ = 0;
};

}  // namespace ebrc::tfrc
