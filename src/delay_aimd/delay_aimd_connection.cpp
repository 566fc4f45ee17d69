#include "delay_aimd/delay_aimd_connection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ebrc::delay_aimd {

DelayAimdConnection::DelayAimdConnection(net::Dumbbell& net, int flow_id, double base_rtt_s,
                                         DelayAimdConfig cfg)
    : net_(net),
      flow_(flow_id),
      base_rtt_s_(base_rtt_s),
      cfg_(cfg),
      send_ev_(net.simulator().pin([this] { send_next(); })),
      feedback_ev_(net.simulator().pin([this] { feedback_tick(); })),
      recorder_(base_rtt_s) {
  if (base_rtt_s <= 0) throw std::invalid_argument("DelayAimdConnection: base RTT must be > 0");
  if (cfg_.initial_rate <= util::DataRate::zero() || cfg_.packet_bytes <= 0 ||
      cfg_.beta <= 0.0 || cfg_.beta > 1.0 || cfg_.increase_factor < 1.0) {
    throw std::invalid_argument("DelayAimdConnection: bad configuration");
  }
  snd_.rate = cfg_.initial_rate;
  snd_.srtt = base_rtt_s;
  snd_.threshold = cfg_.initial_threshold;
  rcv_.rtt_hint = base_rtt_s;
  net_.on_data_at_receiver(flow_, [this](const net::Packet& p) { on_data(p); });
  net_.on_packet_at_sender(flow_, [this](const net::Packet& p) { on_feedback(p); });
}

void DelayAimdConnection::start(double at) {
  net_.simulator().schedule_at(at, [this] {
    snd_.running = true;
    send_next();
  });
}

void DelayAimdConnection::stop() { snd_.running = false; }

void DelayAimdConnection::open(std::uint64_t transfer_packets, CompletionFn on_complete) {
  reset_transfer_state();
  snd_.transfer_limit = transfer_packets;
  done_ = std::move(on_complete);
  snd_.running = true;
  // Reuse a pacing chain still armed from the previous incarnation; either
  // way exactly one chain is live (same guard discipline as TFRC).
  if (!snd_.pacing_armed) {
    snd_.pacing_armed = true;
    net_.simulator().schedule_pinned(0.0, send_ev_);
  }
}

void DelayAimdConnection::close() {
  snd_.running = false;
  done_ = CompletionFn{};
}

void DelayAimdConnection::finish_transfer() {
  snd_.running = false;
  ++transfers_completed_;
  if (done_) {
    CompletionFn done = std::move(done_);
    done_ = CompletionFn{};
    done();
  }
}

void DelayAimdConnection::reset_transfer_state() {
  // Wholesale POD rewind; the chain guards survive it (see TFRC's idiom).
  // min_rtt and the detector threshold are per-transfer: a pool slot's next
  // incarnation may live on a different path.
  const bool pacing = snd_.pacing_armed;
  const bool feedback = snd_.feedback_armed;
  snd_ = SenderState{};
  snd_.rate = cfg_.initial_rate;
  snd_.srtt = base_rtt_s_;
  snd_.threshold = cfg_.initial_threshold;
  snd_.pacing_armed = pacing;
  snd_.feedback_armed = feedback;
  rcv_ = ReceiverState{};
  rcv_.rtt_hint = base_rtt_s_;
  recorder_.set_rtt_window(base_rtt_s_);
}

void DelayAimdConnection::reset_counters() {
  sent_ = 0;
  delivered_ = 0;
  qdelay_sum_s_ = 0.0;
  qdelay_samples_ = 0;
}

// --------------------------------------------------------------- sender ----

void DelayAimdConnection::send_next() {
  if (!snd_.running) {
    snd_.pacing_armed = false;  // the chain dies here; open() may start a new one
    return;
  }
  net::Packet p;
  p.seq = snd_.next_seq++;
  p.size_bytes = cfg_.packet_bytes;
  p.send_time = net_.simulator().now();
  p.data.rtt_hint = snd_.srtt;
  net_.send_data(flow_, p);
  ++sent_;
  ++snd_.transfer_sent;
  if (snd_.transfer_limit != 0 && snd_.transfer_sent >= snd_.transfer_limit) {
    // Paced unreliable stream, like TFRC: the source is done the moment it
    // emits its last packet; the pacing chain ends with it.
    snd_.pacing_armed = false;
    finish_transfer();
    return;
  }
  snd_.pacing_armed = true;
  net_.simulator().schedule_pinned(snd_.rate.packet_interval().seconds(), send_ev_);
}

void DelayAimdConnection::on_feedback(const net::Packet& p) {
  if (!snd_.running || p.kind != net::PacketKind::kFeedback) return;
  const double now = net_.simulator().now();

  const double sample_s = now - p.fb.echo_time;
  if (sample_s <= 0) return;
  const auto sample = util::TimeDelta::seconds(sample_s);

  if (snd_.srtt <= 0) {
    snd_.srtt = sample_s;
  } else {
    snd_.srtt = cfg_.rtt_smoothing * snd_.srtt + (1.0 - cfg_.rtt_smoothing) * sample_s;
  }
  if (now >= next_rtt_sample_at_) {
    rtt_stats_.add(sample_s);
    next_rtt_sample_at_ = now + snd_.srtt;
  }

  // Queuing delay: the sample's excess over the per-transfer RTT floor.
  if (snd_.min_rtt.is_zero() || sample < snd_.min_rtt) snd_.min_rtt = sample;
  const util::TimeDelta qdelay = sample - snd_.min_rtt;
  qdelay_sum_s_ += qdelay.seconds();
  ++qdelay_samples_;

  // Adaptive overuse threshold (goog_cc): chase the observed queuing delay
  // fast when exceeded, decay toward it slowly otherwise.
  // dt capped at 100 ms, as in goog_cc: a long feedback gap must not let one
  // adaptation step overshoot the target.
  const double dt_ms = snd_.last_feedback_time > 0
                           ? std::min(100.0, (now - snd_.last_feedback_time) * 1e3)
                           : 0.0;
  const double k = qdelay > snd_.threshold ? cfg_.k_up : cfg_.k_down;
  snd_.threshold = util::min(
      cfg_.max_threshold,
      util::max(cfg_.min_threshold,
                snd_.threshold + k * dt_ms * (qdelay - snd_.threshold)));
  snd_.last_feedback_time = now;

  const bool overuse = qdelay > snd_.threshold;
  const auto recv_rate = util::DataRate::packets_per_second(std::max(0.0, p.fb.recv_rate));

  if (overuse) {
    snd_.state = RateState::kDecrease;
  } else if (snd_.state == RateState::kDecrease) {
    snd_.state = RateState::kHold;  // one interval of hold after backing off
  } else {
    snd_.state = RateState::kIncrease;
  }

  switch (snd_.state) {
    case RateState::kDecrease: {
      if (recv_rate > util::DataRate::zero()) {
        // The delivered rate during overuse IS a link-capacity sample; track
        // its EWMA mean and variance for the near-capacity test below.
        const double err = recv_rate.pps() - snd_.capacity.pps();
        if (snd_.capacity.is_zero()) {
          snd_.capacity = recv_rate;
        } else {
          snd_.capacity = snd_.capacity + util::DataRate::packets_per_second(0.05 * err);
        }
        snd_.capacity_var = 0.95 * snd_.capacity_var + 0.05 * err * err;
        snd_.rate = cfg_.beta * recv_rate;
      } else {
        snd_.rate = cfg_.beta * snd_.rate;
      }
      break;
    }
    case RateState::kHold:
      break;
    case RateState::kIncrease: {
      if (snd_.capacity.is_zero()) {
        // No capacity estimate yet (no overuse seen): slow-start like TFRC,
        // doubling per feedback capped at twice the delivered rate.
        snd_.rate = snd_.rate * 2.0;
        if (recv_rate > util::DataRate::zero()) {
          snd_.rate = util::min(snd_.rate, 2.0 * recv_rate);
        }
      } else {
        const double sigma = std::sqrt(std::max(0.0, snd_.capacity_var));
        const bool near_capacity =
            snd_.rate.pps() >= snd_.capacity.pps() - 3.0 * sigma;
        if (near_capacity) {
          // Additive: one packet per RTT, the classic AIMD probe.
          snd_.rate = snd_.rate + util::DataRate::packets_per_second(
                                      1.0 / std::max(1e-3, snd_.srtt));
        } else {
          snd_.rate = snd_.rate * cfg_.increase_factor;
        }
        if (recv_rate > util::DataRate::zero()) {
          snd_.rate = util::min(snd_.rate, 1.5 * recv_rate);
        }
      }
      break;
    }
  }
  snd_.rate = util::max(snd_.rate, cfg_.min_rate);
}

// ------------------------------------------------------------- receiver ----

void DelayAimdConnection::on_data(const net::Packet& p) {
  const double now = net_.simulator().now();
  if (p.data.rtt_hint > 0) rcv_.rtt_hint = p.data.rtt_hint;
  recorder_.set_rtt_window(rcv_.rtt_hint);

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

void DelayAimdConnection::feedback_tick() {
  if (!snd_.running) {
    snd_.feedback_armed = false;  // chain dies; the next incarnation re-arms
    return;
  }
  const double now = net_.simulator().now();
  if (rcv_.recv_since_feedback > 0) {
    net::Packet report;
    report.kind = net::PacketKind::kFeedback;
    report.size_bytes = 40.0;
    report.send_time = now;
    const double elapsed = std::max(1e-9, now - rcv_.last_feedback_time);
    report.fb = {/*mean_interval=*/0.0,  // no loss-interval estimator here
                 /*recv_rate=*/static_cast<double>(rcv_.recv_since_feedback) / elapsed,
                 /*echo_time=*/rcv_.last_data_send_time};
    net_.send_back(flow_, report);
    rcv_.recv_since_feedback = 0;
    rcv_.last_feedback_time = now;
  }
  snd_.feedback_armed = true;
  net_.simulator().schedule_pinned(std::max(1e-3, rcv_.rtt_hint), feedback_ev_);
}

}  // namespace ebrc::delay_aimd
