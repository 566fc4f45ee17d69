#include "net/probe_senders.hpp"

#include <stdexcept>

namespace ebrc::net {

ProbeSender::ProbeSender(Dumbbell& net, int flow_id, double rate_pps, double packet_bytes,
                         ProbePattern pattern, double rtt_window_s, std::uint64_t seed)
    : net_(net),
      flow_(flow_id),
      rate_pps_(rate_pps),
      packet_bytes_(packet_bytes),
      pattern_(pattern),
      send_ev_(net.simulator().pin([this] { send_next(); })),
      rng_(seed),
      recorder_(rtt_window_s) {
  if (rate_pps <= 0 || packet_bytes <= 0) {
    throw std::invalid_argument("ProbeSender: rate and packet size must be > 0");
  }
  net_.on_data_at_receiver(flow_, [this](const Packet& p) { on_arrival(p); });
}

void ProbeSender::start(double at) {
  running_ = true;
  net_.simulator().schedule_pinned_at(at, send_ev_);
}

void ProbeSender::send_next() {
  if (!running_) return;
  Packet p;
  p.seq = next_seq_++;
  p.size_bytes = packet_bytes_;
  p.send_time = net_.simulator().now();
  net_.send_data(flow_, p);
  ++sent_;
  const double gap = pattern_ == ProbePattern::kCbr
                         ? 1.0 / rate_pps_
                         : rng_.exponential_mean(1.0 / rate_pps_);
  net_.simulator().schedule_pinned(gap, send_ev_);
}

void ProbeSender::on_arrival(const Packet& p) {
  const double now = net_.simulator().now();
  // FIFO network: a sequence gap means every skipped packet was dropped.
  for (std::int64_t missing = expected_seq_; missing < p.seq; ++missing) {
    recorder_.on_loss(now);
  }
  if (p.seq >= expected_seq_) expected_seq_ = p.seq + 1;
  recorder_.on_packet(now);
  ++received_;
}

OnOffSender::OnOffSender(Dumbbell& net, int flow_id, double peak_pps, double packet_bytes,
                         double mean_on_s, double mean_off_s, std::uint64_t seed)
    : net_(net),
      flow_(flow_id),
      peak_pps_(peak_pps),
      packet_bytes_(packet_bytes),
      mean_on_s_(mean_on_s),
      mean_off_s_(mean_off_s),
      begin_on_ev_(net.simulator().pin([this] { begin_on(); })),
      send_ev_(net.simulator().pin([this] { send_next(); })),
      rng_(seed) {
  if (peak_pps <= 0 || packet_bytes <= 0 || mean_on_s <= 0 || mean_off_s <= 0) {
    throw std::invalid_argument("OnOffSender: positive parameters required");
  }
}

void OnOffSender::start(double at) {
  running_ = true;
  net_.simulator().schedule_pinned_at(at, begin_on_ev_);
}

void OnOffSender::begin_on() {
  if (!running_) return;
  on_until_ = net_.simulator().now() + rng_.exponential_mean(mean_on_s_);
  send_next();
}

void OnOffSender::send_next() {
  if (!running_) return;
  const double now = net_.simulator().now();
  if (now >= on_until_) {
    net_.simulator().schedule_pinned(rng_.exponential_mean(mean_off_s_), begin_on_ev_);
    return;
  }
  Packet p;
  p.seq = next_seq_++;
  p.size_bytes = packet_bytes_;
  p.send_time = now;
  net_.send_data(flow_, p);
  ++sent_;
  net_.simulator().schedule_pinned(1.0 / peak_pps_, send_ev_);
}

}  // namespace ebrc::net
