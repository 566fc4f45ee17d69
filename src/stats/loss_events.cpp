#include "stats/loss_events.hpp"

namespace ebrc::stats {

LossEventRecorder::LossEventRecorder(double rtt_window, bool store_series)
    : rtt_window_(rtt_window), store_series_(store_series) {}

void LossEventRecorder::on_packet(double /*t*/) noexcept {
  ++packets_;
  ++packets_since_event_;
}

bool LossEventRecorder::on_loss(double t) {
  ++losses_;
  if (have_event_ && t < last_event_t_ + rtt_window_) {
    return false;  // same loss event (within one RTT of its start)
  }
  if (have_event_) {
    if (store_series_) theta_.push_back(static_cast<double>(packets_since_event_));
  } else {
    packets_at_first_event_ = packets_;
  }
  have_event_ = true;
  ++events_;
  last_event_t_ = t;
  packets_since_event_ = 0;
  return true;
}

double LossEventRecorder::loss_event_rate() const noexcept {
  // Rate over the span covered by complete intervals: events that closed an
  // interval divided by packets sent between the first and last event.
  if (events_ < 2) return 0.0;
  const auto span_packets = packets_ - packets_at_first_event_ - packets_since_event_;
  if (span_packets == 0) return 0.0;
  return static_cast<double>(events_ - 1) / static_cast<double>(span_packets);
}

double LossEventRecorder::mean_interval() const noexcept {
  const double p = loss_event_rate();
  return p > 0.0 ? 1.0 / p : 0.0;
}

}  // namespace ebrc::stats
