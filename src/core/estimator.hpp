// The moving-average loss-event interval estimator (Eq. 2) together with the
// "open interval" view used by the comprehensive control (Eq. 4).
//
// Storage is a fixed ring of the last L intervals (no deque nodes), and the
// weighted aggregates every query needs — the closed average, the shifted
// tail W_n, its weight mass, and the open-interval threshold theta* — are
// recomputed once per push()/seed() and cached. Queries are therefore O(1):
// the packet-level senders consult the estimator on every packet (TFRC's
// comprehensive control, the Figure-6 audio source), while intervals close
// only once per loss event, so the O(L) work now runs once per event instead
// of once per packet. The cached recompute accumulates in exactly the order
// the naive per-query loops used, so every query is bit-identical to the old
// implementation (pinned by tests/estimator_property_test.cpp).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/weights.hpp"

namespace ebrc::core {

class MovingAverageEstimator {
 public:
  /// `weights` must satisfy validate_weights (sum 1, w1 > 0). The profile is
  /// held by reference count, so estimators built from one shared profile
  /// (tfrc_weight_profile) store it once between them.
  explicit MovingAverageEstimator(WeightProfile weights);
  explicit MovingAverageEstimator(std::vector<double> weights);

  /// Records the newly completed loss-event interval theta_n (packets).
  void push(double theta);

  /// Pre-fills the whole history with `theta` (TFRC's initialization after
  /// the first loss event).
  void seed(double theta);

  /// Forgets every observed interval (connection reuse in the flow pool);
  /// the weight profile is kept and the ring's storage is retained, so a
  /// reset-and-refill allocates nothing.
  void reset() noexcept;

  /// True once L intervals have been observed.
  [[nodiscard]] bool warmed_up() const noexcept { return count_ >= window(); }
  [[nodiscard]] std::size_t history_size() const noexcept { return count_; }
  [[nodiscard]] std::size_t window() const noexcept { return weights_->size(); }
  [[nodiscard]] const std::vector<double>& weights() const noexcept { return *weights_; }

  /// hat-theta_n = sum_l w_l theta_{n-l}. Before warm-up the observed prefix
  /// is renormalized by the weight mass actually used (TFRC behavior).
  /// Requires at least one interval.
  [[nodiscard]] double value() const;

  /// W_n = sum_{l=1}^{L-1} w_{l+1} theta_{n-l}: the history contribution when
  /// the open interval is promoted to the newest slot.
  [[nodiscard]] double shifted_tail() const;

  /// The open-interval threshold theta*_n = (hat-theta_n - W_n)/w1 beyond
  /// which the comprehensive estimator starts to grow (condition A_t).
  [[nodiscard]] double open_threshold() const;

  /// hat-theta(t) = max(hat-theta_n, w1 * open + W_n): Eq. 4's estimator.
  [[nodiscard]] double value_with_open(double open_packets) const;

  /// Weight mass behind shifted_tail() (w2..wL over the observed prefix);
  /// needed by RFC 3448 history discounting to renormalize.
  [[nodiscard]] double shifted_tail_mass() const;

  /// RFC 3448 Section 5.5 history discounting: the open interval keeps full
  /// weight while every closed interval's weight is scaled by `discount`
  /// in [0.5, 1]:
  ///   (w1 * open + discount * W_n) / (w1 + discount * mass(W_n)).
  [[nodiscard]] double value_with_open_discounted(double open_packets, double discount) const;

 private:
  void require_history() const;
  /// Rebuilds every cached aggregate from the ring, accumulating in the same
  /// newest-to-oldest order as the former per-query loops (bit-identity).
  void recompute() noexcept;

  WeightProfile weights_;
  std::unique_ptr<double[]> ring_;  // L entries; ring_[newest_] is theta_n
  std::size_t newest_ = 0;
  std::size_t count_ = 0;

  // Aggregates cached at the last push()/seed().
  double value_ = 0.0;
  double tail_ = 0.0;
  double tail_mass_ = 0.0;
};

}  // namespace ebrc::core
