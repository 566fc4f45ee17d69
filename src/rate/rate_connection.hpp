// One paced rate sender for the rate-based controllers of the zoo: a
// connection that holds a pacing rate, plus a rate law that moves it.
//
// The sender emits one data packet every 1/rate seconds and stamps its
// smoothed RTT into each as a hint. The receiver sends one kRateFeedback
// report per RTT hint: the router stamp of the newest data packet (0 when no
// RCP router is on the path), the packets/s received since the last report,
// and the newest data packet's send time, which the sender turns into an RTT
// sample. Per report the sender updates the srtt EWMA, the sampled RTT
// statistics, the per-transfer minimum RTT and the queuing-delay telemetry
// (sample minus that minimum), and then asks its law for the new rate.
//
// Everything but the law is shared: construction, the lifecycle (start/stop
// for static flows, open/close for pooled transfers), the POD rewind that
// keeps the chain guards, the pacing and feedback chains, the receiver and
// the cumulative counters. A law (see RateLaw) holds only its parameters and
// per-transfer state; it is a template argument, so the packet path makes no
// virtual call.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "net/dumbbell.hpp"
#include "stats/loss_events.hpp"
#include "stats/online.hpp"
#include "util/units.hpp"

namespace ebrc::rate {

struct RateSenderConfig {
  double packet_bytes = 1000.0;
  util::DataRate initial_rate = util::DataRate::packets_per_second(2.0);
  util::DataRate min_rate = util::DataRate::packets_per_second(0.1);
  /// EWMA coefficient for the RTT estimate (same convention as TFRC).
  double rtt_smoothing = 0.9;
};

/// One receiver report as a rate law sees it.
struct RateFeedback {
  double now = 0.0;
  bool rtt_valid = false;    // the echo gave a positive RTT sample
  util::TimeDelta qdelay;    // RTT sample minus the per-transfer minimum (valid only)
  double srtt = 0.0;         // smoothed RTT, this sample included
  double recv_rate = 0.0;    // packets/s received over the report interval
  double router_rate = 0.0;  // RCP router stamp in packets/s; 0 = none
};

/// A rate law: `Params` are its tunables (validated by `Law(const Params&)`),
/// reset() rewinds its per-transfer state, and step(report, rate, min_rate)
/// returns the next pacing rate.
template <typename L>
concept RateLaw =
    std::is_trivially_copyable_v<L> && std::constructible_from<L, typename L::Params> &&
    requires(L law, const RateFeedback& fb, util::DataRate r) {
      law.reset();
      { law.step(fb, r, r) } -> std::same_as<util::DataRate>;
    };

template <RateLaw Law>
class RateConnection {
 public:
  using Config = RateSenderConfig;
  using CompletionFn = sim::InlineFunction<void(), 24>;

  // Registers this-capturing handlers and pinned events at construction;
  // the object must stay at its construction address.
  RateConnection(net::Dumbbell& net, int flow_id, double base_rtt_s, Config cfg = {},
                 typename Law::Params params = {})
      : net_(net),
        flow_(flow_id),
        base_rtt_s_(base_rtt_s),
        cfg_(cfg),
        send_ev_(net.simulator().pin([this] { send_next(); })),
        feedback_ev_(net.simulator().pin([this] { feedback_tick(); })),
        law_(params),
        recorder_(base_rtt_s) {
    if (base_rtt_s <= 0) throw std::invalid_argument("RateConnection: base RTT must be > 0");
    if (cfg_.initial_rate <= util::DataRate::zero() || cfg_.packet_bytes <= 0) {
      throw std::invalid_argument("RateConnection: bad configuration");
    }
    reset_transfer_state();
    net_.on_data_at_receiver(flow_, [this](const net::Packet& p) { on_data(p); });
    net_.on_packet_at_sender(flow_, [this](const net::Packet& p) { on_feedback(p); });
  }
  RateConnection(const RateConnection&) = delete;
  RateConnection& operator=(const RateConnection&) = delete;

  void start(double at) {
    net_.simulator().schedule_at(at, [this] {
      snd_.running = true;
      send_next();
    });
  }
  void stop() { snd_.running = false; }

  // --- pooled lifecycle (Sender concept; see workload/sender.hpp) --------
  void open(std::uint64_t transfer_packets, CompletionFn on_complete = {}) {
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
  void close() {
    snd_.running = false;
    done_ = CompletionFn{};
  }
  [[nodiscard]] bool active() const noexcept { return snd_.running; }
  [[nodiscard]] std::uint64_t transfers_completed() const noexcept {
    return transfers_completed_;
  }

  // --- measurement -------------------------------------------------------
  [[nodiscard]] const stats::LossEventRecorder& recorder() const noexcept { return recorder_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] double srtt() const noexcept { return snd_.srtt; }
  [[nodiscard]] const stats::OnlineMoments& rtt_stats() const noexcept { return rtt_stats_; }
  /// Cumulative queuing-delay telemetry, one sample per feedback with a
  /// valid RTT (sample minus the per-transfer minimum RTT). Survives
  /// open()/close() cycles.
  [[nodiscard]] double queuing_delay_sum_s() const noexcept { return qdelay_sum_s_; }
  [[nodiscard]] std::uint64_t queuing_delay_samples() const noexcept { return qdelay_samples_; }
  /// The rate law's current transfer state.
  [[nodiscard]] const Law& law() const noexcept { return law_; }

 private:
  void finish_transfer() {
    snd_.running = false;
    ++transfers_completed_;
    if (done_) {
      CompletionFn done = std::move(done_);
      done_ = CompletionFn{};
      done();
    }
  }

  void reset_transfer_state() {
    // Wholesale POD rewind; the chain guards survive it (see TFRC's idiom).
    // min_rtt and the law's state are per-transfer: a pool slot's next
    // incarnation may live on a different path.
    const bool pacing = snd_.pacing_armed;
    const bool feedback = snd_.feedback_armed;
    snd_ = SenderState{};
    snd_.rate = cfg_.initial_rate;
    snd_.srtt = base_rtt_s_;
    snd_.pacing_armed = pacing;
    snd_.feedback_armed = feedback;
    rcv_ = ReceiverState{};
    rcv_.rtt_hint = base_rtt_s_;
    law_.reset();
    recorder_.set_rtt_window(base_rtt_s_);
  }

  // ------------------------------------------------------------- sender ----

  void send_next() {
    if (!snd_.running) {
      snd_.pacing_armed = false;  // the chain dies here; open() may start a new one
      return;
    }
    net::Packet p;
    p.seq = snd_.next_seq++;
    p.size_bytes = cfg_.packet_bytes;
    p.send_time = net_.simulator().now();
    p.data.rtt_hint = snd_.srtt;
    // data.router_rate starts 0; an RCP router stamps it in transit.
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

  void on_feedback(const net::Packet& p) {
    if (!snd_.running || p.kind != net::PacketKind::kRateFeedback) return;
    const double now = net_.simulator().now();
    const double sample_s = now - p.rfb.echo_time;
    RateFeedback fb;
    fb.now = now;
    fb.rtt_valid = sample_s > 0;
    fb.recv_rate = p.rfb.recv_rate;
    fb.router_rate = p.rfb.router_rate;
    if (fb.rtt_valid) {
      snd_.srtt = snd_.srtt <= 0
                      ? sample_s
                      : cfg_.rtt_smoothing * snd_.srtt + (1.0 - cfg_.rtt_smoothing) * sample_s;
      if (now >= next_rtt_sample_at_) {
        rtt_stats_.add(sample_s);
        next_rtt_sample_at_ = now + snd_.srtt;
      }
      // Queuing delay: the sample's excess over the per-transfer RTT floor.
      const auto sample = util::TimeDelta::seconds(sample_s);
      if (snd_.min_rtt.is_zero() || sample < snd_.min_rtt) snd_.min_rtt = sample;
      fb.qdelay = sample - snd_.min_rtt;
      qdelay_sum_s_ += fb.qdelay.seconds();
      ++qdelay_samples_;
    }
    fb.srtt = snd_.srtt;
    snd_.rate = law_.step(fb, snd_.rate, cfg_.min_rate);
  }

  // ----------------------------------------------------------- receiver ----

  void on_data(const net::Packet& p) {
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

  void feedback_tick() {
    if (!snd_.running) {
      snd_.feedback_armed = false;  // chain dies; the next incarnation re-arms
      return;
    }
    const double now = net_.simulator().now();
    if (rcv_.recv_since_feedback > 0) {
      net::Packet report;
      report.kind = net::PacketKind::kRateFeedback;
      report.size_bytes = 40.0;
      report.send_time = now;
      const double elapsed = std::max(1e-9, now - rcv_.last_feedback_time);
      report.rfb = {/*router_rate=*/rcv_.router_rate,
                    /*recv_rate=*/static_cast<double>(rcv_.recv_since_feedback) / elapsed,
                    /*echo_time=*/rcv_.last_data_send_time};
      net_.send_back(flow_, report);
      rcv_.recv_since_feedback = 0;
      rcv_.last_feedback_time = now;
    }
    snd_.feedback_armed = true;
    net_.simulator().schedule_pinned(std::max(1e-3, rcv_.rtt_hint), feedback_ev_);
  }

  net::Dumbbell& net_;
  int flow_;
  double base_rtt_s_;
  Config cfg_;

  sim::Simulator::PinnedEvent send_ev_;
  sim::Simulator::PinnedEvent feedback_ev_;

  /// Per-transfer sender hot state. The typed units are 8-byte trivially
  /// copyable wrappers, so they live in the POD rewind block directly. Chain
  /// guards survive the rewind (see reset_transfer_state / open).
  struct SenderState {
    util::DataRate rate;      // current pacing rate
    double srtt = 0.0;
    util::TimeDelta min_rtt;  // per-transfer floor (0 = no sample yet)
    std::int64_t next_seq = 0;
    std::uint64_t transfer_limit = 0;
    std::uint64_t transfer_sent = 0;
    bool running = false;
    bool pacing_armed = false;
    bool feedback_armed = false;
  };
  static_assert(sizeof(SenderState) == 56, "rate sender hot state outgrew its budget");
  static_assert(std::is_trivially_copyable_v<SenderState>);

  /// Per-transfer receiver hot state, same idiom as TFRC's.
  struct ReceiverState {
    std::int64_t expected_seq = 0;
    double rtt_hint = 0.0;
    double last_feedback_time = 0.0;
    double last_data_send_time = 0.0;
    double router_rate = 0.0;  // stamp of the most recent data packet
    std::uint64_t recv_since_feedback = 0;
    bool started = false;
  };
  static_assert(sizeof(ReceiverState) == 56, "rate receiver hot state outgrew its budget");
  static_assert(std::is_trivially_copyable_v<ReceiverState>);

  SenderState snd_;
  ReceiverState rcv_;
  Law law_;

  std::uint64_t transfers_completed_ = 0;
  CompletionFn done_;

  // cumulative counters (survive open()/close())
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  double qdelay_sum_s_ = 0.0;
  std::uint64_t qdelay_samples_ = 0;

  stats::LossEventRecorder recorder_;
  stats::OnlineMoments rtt_stats_;
  double next_rtt_sample_at_ = 0.0;
};

}  // namespace ebrc::rate
