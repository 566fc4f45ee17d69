#include "rcp/rcp_connection.hpp"

#include <algorithm>
#include <stdexcept>

namespace ebrc::rcp {

RcpConnection::RcpConnection(net::Dumbbell& net, int flow_id, double base_rtt_s, RcpConfig cfg)
    : net_(net),
      flow_(flow_id),
      base_rtt_s_(base_rtt_s),
      cfg_(cfg),
      send_ev_(net.simulator().pin([this] { send_next(); })),
      feedback_ev_(net.simulator().pin([this] { feedback_tick(); })),
      recorder_(base_rtt_s) {
  if (base_rtt_s <= 0) throw std::invalid_argument("RcpConnection: base RTT must be > 0");
  if (cfg_.initial_rate <= util::DataRate::zero() || cfg_.packet_bytes <= 0) {
    throw std::invalid_argument("RcpConnection: bad configuration");
  }
  snd_.rate = cfg_.initial_rate;
  snd_.srtt = base_rtt_s;
  rcv_.rtt_hint = base_rtt_s;
  net_.on_data_at_receiver(flow_, [this](const net::Packet& p) { on_data(p); });
  net_.on_packet_at_sender(flow_, [this](const net::Packet& p) { on_feedback(p); });
}

void RcpConnection::start(double at) {
  net_.simulator().schedule_at(at, [this] {
    snd_.running = true;
    send_next();
  });
}

void RcpConnection::stop() { snd_.running = false; }

void RcpConnection::open(std::uint64_t transfer_packets, CompletionFn on_complete) {
  reset_transfer_state();
  snd_.transfer_limit = transfer_packets;
  done_ = std::move(on_complete);
  snd_.running = true;
  if (!snd_.pacing_armed) {
    snd_.pacing_armed = true;
    net_.simulator().schedule_pinned(0.0, send_ev_);
  }
}

void RcpConnection::close() {
  snd_.running = false;
  done_ = CompletionFn{};
}

void RcpConnection::finish_transfer() {
  snd_.running = false;
  ++transfers_completed_;
  if (done_) {
    CompletionFn done = std::move(done_);
    done_ = CompletionFn{};
    done();
  }
}

void RcpConnection::reset_transfer_state() {
  const bool pacing = snd_.pacing_armed;
  const bool feedback = snd_.feedback_armed;
  snd_ = SenderState{};
  snd_.rate = cfg_.initial_rate;
  snd_.srtt = base_rtt_s_;
  snd_.pacing_armed = pacing;
  snd_.feedback_armed = feedback;
  rcv_ = ReceiverState{};
  rcv_.rtt_hint = base_rtt_s_;
  recorder_.set_rtt_window(base_rtt_s_);
}

void RcpConnection::reset_counters() {
  sent_ = 0;
  delivered_ = 0;
  qdelay_sum_s_ = 0.0;
  qdelay_samples_ = 0;
}

// --------------------------------------------------------------- sender ----

void RcpConnection::send_next() {
  if (!snd_.running) {
    snd_.pacing_armed = false;
    return;
  }
  net::Packet p;
  p.seq = snd_.next_seq++;
  p.size_bytes = cfg_.packet_bytes;
  p.send_time = net_.simulator().now();
  p.data.rtt_hint = snd_.srtt;
  // data.router_rate starts 0; the RCP router stamps it in transit.
  net_.send_data(flow_, p);
  ++sent_;
  ++snd_.transfer_sent;
  if (snd_.transfer_limit != 0 && snd_.transfer_sent >= snd_.transfer_limit) {
    // Paced unreliable stream: done at the emission of the final packet.
    snd_.pacing_armed = false;
    finish_transfer();
    return;
  }
  snd_.pacing_armed = true;
  net_.simulator().schedule_pinned(snd_.rate.packet_interval().seconds(), send_ev_);
}

void RcpConnection::on_feedback(const net::Packet& p) {
  if (!snd_.running || p.kind != net::PacketKind::kRcpFeedback) return;
  const double now = net_.simulator().now();

  const double sample_s = now - p.rcp.echo_time;
  if (sample_s > 0) {
    if (snd_.srtt <= 0) {
      snd_.srtt = sample_s;
    } else {
      snd_.srtt = cfg_.rtt_smoothing * snd_.srtt + (1.0 - cfg_.rtt_smoothing) * sample_s;
    }
    if (now >= next_rtt_sample_at_) {
      rtt_stats_.add(sample_s);
      next_rtt_sample_at_ = now + snd_.srtt;
    }
    const auto sample = util::TimeDelta::seconds(sample_s);
    if (snd_.min_rtt.is_zero() || sample < snd_.min_rtt) snd_.min_rtt = sample;
    qdelay_sum_s_ += (sample - snd_.min_rtt).seconds();
    ++qdelay_samples_;
  }

  if (p.rcp.rate_pps > 0.0) {
    // The router has spoken: pace at its advertised fair share.
    snd_.have_stamp = true;
    snd_.rate = util::max(cfg_.min_rate, util::DataRate::packets_per_second(p.rcp.rate_pps));
  } else if (!snd_.have_stamp) {
    // No RCP router on the path yet: TFRC-style slow start, doubling per
    // feedback capped at twice the delivered rate.
    auto rate = snd_.rate * 2.0;
    if (p.rcp.recv_rate > 0.0) {
      rate = util::min(rate, 2.0 * util::DataRate::packets_per_second(p.rcp.recv_rate));
    }
    snd_.rate = util::max(cfg_.min_rate, rate);
  }
}

// ------------------------------------------------------------- receiver ----

void RcpConnection::on_data(const net::Packet& p) {
  const double now = net_.simulator().now();
  if (p.data.rtt_hint > 0) rcv_.rtt_hint = p.data.rtt_hint;
  recorder_.set_rtt_window(rcv_.rtt_hint);
  rcv_.router_rate = p.data.router_rate;

  const std::int64_t missing = std::max<std::int64_t>(0, p.seq - rcv_.expected_seq);
  if (p.seq >= rcv_.expected_seq) rcv_.expected_seq = p.seq + 1;
  for (std::int64_t i = 0; i < missing; ++i) recorder_.on_loss(now);
  recorder_.on_packet(now);
  ++delivered_;
  ++rcv_.recv_since_feedback;
  rcv_.last_data_send_time = p.send_time;

  if (!rcv_.started) {
    rcv_.started = true;
    rcv_.last_feedback_time = now;
    if (!snd_.feedback_armed) {
      snd_.feedback_armed = true;
      net_.simulator().schedule_pinned(std::max(1e-3, rcv_.rtt_hint), feedback_ev_);
    }
  }
}

void RcpConnection::feedback_tick() {
  if (!snd_.running) {
    snd_.feedback_armed = false;
    return;
  }
  const double now = net_.simulator().now();
  if (rcv_.recv_since_feedback > 0) {
    net::Packet report;
    report.kind = net::PacketKind::kRcpFeedback;
    report.size_bytes = 40.0;
    report.send_time = now;
    const double elapsed = std::max(1e-9, now - rcv_.last_feedback_time);
    report.rcp = {/*rate_pps=*/rcv_.router_rate,
                  /*recv_rate=*/static_cast<double>(rcv_.recv_since_feedback) / elapsed,
                  /*echo_time=*/rcv_.last_data_send_time};
    net_.send_back(flow_, report);
    rcv_.recv_since_feedback = 0;
    rcv_.last_feedback_time = now;
  }
  snd_.feedback_armed = true;
  net_.simulator().schedule_pinned(std::max(1e-3, rcv_.rtt_hint), feedback_ev_);
}

}  // namespace ebrc::rcp
