// Delay-based AIMD rate control in the goog_cc style, as a rate law over the
// shared paced sender (rate/rate_connection.hpp).
//
// Per receiver report the law takes the queuing delay (the RTT sample minus
// the per-transfer minimum RTT; there is no one-way-delay gradient or
// trendline filter), compares it with an adaptive overuse threshold, and
// runs a Hold/Increase/Decrease state machine with link-capacity estimation:
// multiplicative decrease to beta times the delivered rate on overuse,
// additive increase near the capacity estimate, multiplicative increase far
// below it. A report without a positive RTT sample is dropped whole.
//
// Unlike TFRC/TCP this controller SEES the queue: it backs off before losses
// happen, which is the point of putting it in the controller matrix.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "rate/rate_connection.hpp"
#include "util/units.hpp"

namespace ebrc::delay_aimd {

class DelayAimdLaw {
 public:
  struct Params {
    /// Multiplicative-decrease factor applied to the delivered rate on overuse.
    double beta = 0.85;
    /// Multiplicative-increase factor when far below the capacity estimate.
    double increase_factor = 1.08;
    /// Overuse threshold adaptation (goog_cc): the threshold chases |queuing
    /// delay| fast when exceeded (k_up) and decays slowly otherwise (k_down),
    /// bounded to [min_threshold, max_threshold].
    util::TimeDelta min_threshold = util::TimeDelta::millis(2.0);
    util::TimeDelta max_threshold = util::TimeDelta::millis(600.0);
    util::TimeDelta initial_threshold = util::TimeDelta::millis(12.5);
    double k_up = 0.01;
    double k_down = 0.00018;
  };

  explicit DelayAimdLaw(const Params& params) : p_(params) {
    if (p_.beta <= 0.0 || p_.beta > 1.0 || p_.increase_factor < 1.0) {
      throw std::invalid_argument("DelayAimdLaw: bad parameters");
    }
    reset();
  }

  void reset() noexcept {
    s_ = State{};
    s_.threshold = p_.initial_threshold;
  }

  [[nodiscard]] util::DataRate step(const rate::RateFeedback& fb, util::DataRate rate,
                                    util::DataRate min_rate) {
    if (!fb.rtt_valid) return rate;  // the whole report is dropped

    // Adaptive overuse threshold (goog_cc): chase the observed queuing delay
    // fast when exceeded, decay toward it slowly otherwise.
    // dt capped at 100 ms, as in goog_cc: a long feedback gap must not let one
    // adaptation step overshoot the target.
    const double dt_ms = s_.last_feedback_time > 0
                             ? std::min(100.0, (fb.now - s_.last_feedback_time) * 1e3)
                             : 0.0;
    const double k = fb.qdelay > s_.threshold ? p_.k_up : p_.k_down;
    s_.threshold = util::min(
        p_.max_threshold,
        util::max(p_.min_threshold, s_.threshold + k * dt_ms * (fb.qdelay - s_.threshold)));
    s_.last_feedback_time = fb.now;

    const auto recv_rate = util::DataRate::packets_per_second(std::max(0.0, fb.recv_rate));
    if (fb.qdelay > s_.threshold) {  // overuse
      s_.state = RateState::kDecrease;
      if (recv_rate > util::DataRate::zero()) {
        // The delivered rate during overuse IS a link-capacity sample; track
        // its EWMA mean and variance for the near-capacity test below.
        const double err = recv_rate.pps() - s_.capacity.pps();
        if (s_.capacity.is_zero()) {
          s_.capacity = recv_rate;
        } else {
          s_.capacity = s_.capacity + util::DataRate::packets_per_second(0.05 * err);
        }
        s_.capacity_var = 0.95 * s_.capacity_var + 0.05 * err * err;
        rate = p_.beta * recv_rate;
      } else {
        rate = p_.beta * rate;
      }
    } else if (s_.state == RateState::kDecrease) {
      s_.state = RateState::kHold;  // one interval of hold after backing off
    } else {
      s_.state = RateState::kIncrease;
      if (s_.capacity.is_zero()) {
        // No capacity estimate yet (no overuse seen): slow-start like TFRC,
        // doubling per feedback capped at twice the delivered rate.
        rate = rate * 2.0;
        if (recv_rate > util::DataRate::zero()) rate = util::min(rate, 2.0 * recv_rate);
      } else {
        const double sigma = std::sqrt(std::max(0.0, s_.capacity_var));
        if (rate.pps() >= s_.capacity.pps() - 3.0 * sigma) {
          // Near capacity, additive: one packet per RTT, the classic AIMD probe.
          rate = rate + util::DataRate::packets_per_second(1.0 / std::max(1e-3, fb.srtt));
        } else {
          rate = rate * p_.increase_factor;
        }
        if (recv_rate > util::DataRate::zero()) rate = util::min(rate, 1.5 * recv_rate);
      }
    }
    return util::max(rate, min_rate);
  }

 private:
  enum class RateState : std::uint8_t { kHold, kIncrease, kDecrease };

  /// Per-transfer detector and capacity state.
  struct State {
    util::DataRate capacity;    // link-capacity EWMA (0 = no estimate yet)
    double capacity_var = 0.0;  // EWMA variance of capacity samples (pps^2)
    util::TimeDelta threshold;  // adaptive overuse threshold
    double last_feedback_time = 0.0;
    RateState state = RateState::kHold;
  };

  Params p_;
  State s_;
};

using DelayAimdConnection = rate::RateConnection<DelayAimdLaw>;

}  // namespace ebrc::delay_aimd
