// RCP (Rate Control Protocol): router-assisted explicit-rate congestion
// control per the RCP equilibrium analysis, as a rate law over the shared
// paced sender (rate/rate_connection.hpp).
//
// The router on the bottleneck (net::Link with enable_rcp()) computes one
// fair-share rate for all flows and stamps it into passing data packets; the
// receiver echoes the stamp once per RTT and the law adopts it: no probing,
// no loss-driven sawtooth. Until the first stamp arrives the law slow-starts
// like TFRC (double per feedback, capped at twice the delivered rate). A
// report without a positive RTT sample still carries a usable stamp.
//
// The sender's queuing-delay telemetry is how the controller matrix shows
// whether RCP's equilibrium queue stays near empty.
#pragma once

#include "rate/rate_connection.hpp"
#include "util/units.hpp"

namespace ebrc::rcp {

class RcpLaw {
 public:
  struct Params {};  // the fair share comes from the router (net::RcpParams)

  explicit RcpLaw(const Params&) noexcept {}

  void reset() noexcept { stamped_ = false; }
  [[nodiscard]] util::DataRate step(const rate::RateFeedback& fb, util::DataRate rate,
                                    util::DataRate min_rate) noexcept {
    if (fb.router_rate > 0.0) {
      // The router has spoken: pace at its advertised fair share.
      stamped_ = true;
      return util::max(min_rate, util::DataRate::packets_per_second(fb.router_rate));
    }
    if (stamped_) return rate;
    // No RCP router on the path yet: TFRC-style slow start, doubling per
    // feedback capped at twice the delivered rate.
    auto next = rate * 2.0;
    if (fb.recv_rate > 0.0) {
      next = util::min(next, 2.0 * util::DataRate::packets_per_second(fb.recv_rate));
    }
    return util::max(min_rate, next);
  }
  /// True once the sender has adopted a router-advertised rate this transfer.
  [[nodiscard]] bool stamped() const noexcept { return stamped_; }

 private:
  bool stamped_ = false;
};

using RcpConnection = rate::RateConnection<RcpLaw>;

}  // namespace ebrc::rcp
