#include "tcp/aimd_sender.hpp"

#include <stdexcept>

namespace ebrc::tcp {

AimdSender::AimdSender(net::Dumbbell& net, int flow_id, AimdSenderConfig cfg)
    : net_(net), flow_(flow_id), cfg_(cfg), rate_(cfg.initial_rate), recorder_(cfg.rtt_s) {
  if (cfg.alpha <= 0 || !(cfg.beta > 0 && cfg.beta < 1) || cfg.rtt_s <= 0 ||
      cfg.initial_rate <= 0) {
    throw std::invalid_argument("AimdSender: bad configuration");
  }
  net_.on_data_at_receiver(flow_, [this](const net::Packet& p) { on_arrival(p); });
}

void AimdSender::start(double at) {
  running_ = true;
  net_.simulator().schedule_at(at, [this] {
    send_next();
    increase_tick();
  });
}

void AimdSender::send_next() {
  if (!running_) return;
  net::Packet p;
  p.seq = next_seq_++;
  p.size_bytes = cfg_.packet_bytes;
  p.send_time = net_.simulator().now();
  net_.send_data(flow_, p);
  ++sent_;
  net_.simulator().schedule(1.0 / rate_, [this] { send_next(); });
}

void AimdSender::increase_tick() {
  if (!running_) return;
  // Additive increase: alpha packets/RTT per RTT, i.e. alpha/rtt in rate
  // units every RTT.
  rate_ += cfg_.alpha / cfg_.rtt_s;
  net_.simulator().schedule(cfg_.rtt_s, [this] { increase_tick(); });
}

void AimdSender::on_arrival(const net::Packet& p) {
  const double now = net_.simulator().now();
  bool new_event = false;
  for (std::int64_t missing = expected_seq_; missing < p.seq; ++missing) {
    new_event = recorder_.on_loss(now) || new_event;
  }
  if (p.seq >= expected_seq_) expected_seq_ = p.seq + 1;
  recorder_.on_packet(now);
  ++received_;
  if (new_event) rate_ *= cfg_.beta;
}

}  // namespace ebrc::tcp
