// Loss-event instrumentation shared by every sender in the testbed.
//
// Following TFRC (and the paper's measurement methodology), packet losses
// that occur within one round-trip time of the start of a loss event belong
// to that same event. The recorder turns a raw (packet-sent, packet-lost)
// stream into:
//   * the loss-event count and the loss-event rate p = events / packets, and
//   * the loss-event intervals theta_n (packets between successive events),
//     which the testbed's covariance analysis reads.
//
// Using one recorder type for TCP, TFRC, and probe senders removes the
// measurement asymmetry the paper had to bridge with tcpdump post-processing.
#pragma once

#include <cstdint>
#include <vector>

namespace ebrc::stats {

class LossEventRecorder {
 public:
  /// `rtt_window`: losses within this many seconds of the event start are
  /// merged into the event (use the connection's smoothed RTT).
  explicit LossEventRecorder(double rtt_window, bool store_series = true);

  /// Updates the merge window as the RTT estimate evolves.
  void set_rtt_window(double rtt_window) noexcept { rtt_window_ = rtt_window; }

  /// Counts one sent (or arrived — pick one convention per experiment) packet.
  void on_packet(double t) noexcept;

  /// Reports a detected loss at time `t`. Returns true when this loss opened
  /// a NEW loss event.
  bool on_loss(double t);

  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_; }
  [[nodiscard]] std::uint64_t losses() const noexcept { return losses_; }
  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

  /// Loss-event rate p = events / packets (Eq. 1's empirical counterpart);
  /// 0 before any packet.
  [[nodiscard]] double loss_event_rate() const noexcept;

  /// Mean loss-event interval in packets (1/p).
  [[nodiscard]] double mean_interval() const noexcept;

  /// Completed loss-event intervals theta_n in packets (needs store_series).
  [[nodiscard]] const std::vector<double>& intervals_packets() const noexcept {
    return theta_;
  }

  /// Packets sent since the current (open) loss event started.
  [[nodiscard]] std::uint64_t open_interval_packets() const noexcept {
    return packets_since_event_;
  }
  /// Time of the most recent loss-event start; negative before any event.
  [[nodiscard]] double last_event_time() const noexcept { return last_event_t_; }

 private:
  double rtt_window_;
  bool store_series_;
  std::uint64_t packets_ = 0;
  std::uint64_t losses_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t packets_since_event_ = 0;
  std::uint64_t packets_at_first_event_ = 0;
  double last_event_t_ = -1.0;
  bool have_event_ = false;
  std::vector<double> theta_;
};

}  // namespace ebrc::stats
