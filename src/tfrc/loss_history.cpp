#include "tfrc/loss_history.hpp"

#include <algorithm>
#include <stdexcept>

namespace ebrc::tfrc {

LossHistory::LossHistory(core::WeightProfile weights, bool comprehensive, bool discounting)
    : estimator_(std::move(weights)), comprehensive_(comprehensive), discounting_(discounting) {}

void LossHistory::on_packet(std::int64_t missing_before, double now, double rtt) {
  if (missing_before < 0) throw std::invalid_argument("LossHistory: negative gap");
  if (missing_before > 0) {
    // All packets in the gap were lost; a new loss event starts only when the
    // previous one is at least one RTT old (all gap members share one event —
    // they were sent within a transmission burst).
    const bool new_event = last_event_time_ < 0.0 || now >= last_event_time_ + rtt;
    // The lost packets still advance the interval count.
    open_packets_ += static_cast<double>(missing_before);
    if (new_event) {
      if (events_ > 0 && seeded_) estimator_.push(open_packets_);
      ++events_;
      last_event_time_ = now;
      open_packets_ = 0.0;
    }
  }
  open_packets_ += 1.0;
}

void LossHistory::seed(double interval_packets) {
  estimator_.seed(interval_packets);
  seeded_ = true;
}

void LossHistory::reset() noexcept {
  estimator_.reset();
  seeded_ = false;
  open_packets_ = 0.0;
  last_event_time_ = -1.0;
  events_ = 0;
}

double LossHistory::mean_interval() const {
  if (!has_loss() || !seeded_) throw std::logic_error("LossHistory: no loss events yet");
  if (!comprehensive_) return estimator_.value();
  if (discounting_) {
    const double avg = estimator_.value();
    if (open_packets_ > 2.0 * avg && open_packets_ > 0.0) {
      const double discount = std::max(0.5, std::min(1.0, 2.0 * avg / open_packets_));
      return estimator_.value_with_open_discounted(open_packets_, discount);
    }
  }
  return estimator_.value_with_open(open_packets_);
}

double LossHistory::loss_event_rate() const {
  if (!has_loss() || !seeded_) return 0.0;
  return 1.0 / mean_interval();
}

}  // namespace ebrc::tfrc
