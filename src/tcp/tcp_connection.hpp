// A window-based TCP model: slow start, congestion avoidance, fast
// retransmit / NewReno fast recovery, Jacobson/Karels RTO with Karn's rule
// and exponential backoff, delayed ACKs (every b = 2 packets, matching the
// PFTK formulas' acknowledgment model), and a greedy (long-lived bulk)
// application.
//
// Loss events are measured with the same LossEventRecorder (one-RTT
// grouping) that TFRC uses, so the p'-vs-p comparisons of Figures 7, 12-15,
// 17-19 compare like with like.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "net/dumbbell.hpp"
#include "sim/lazy_timer.hpp"
#include "stats/loss_events.hpp"
#include "stats/online.hpp"

namespace ebrc::tcp {

struct TcpConfig {
  double packet_bytes = 1000.0;
  double initial_cwnd = 2.0;       // packets
  double initial_ssthresh = 64.0;  // packets
  int dupack_threshold = 3;
  int ack_every = 2;               // delayed ACK factor b
  double delayed_ack_timeout = 0.1;  // s
  double min_rto = 0.2;            // s (ns-2 / Linux floor)
  double max_rto = 60.0;           // s
  double max_cwnd = 1e9;           // receiver window; huge = never limiting
};

class TcpConnection {
 public:
  using Config = TcpConfig;
  /// Flow-retirement notification for pooled (finite-transfer) use.
  using CompletionFn = sim::InlineFunction<void(), 24>;

  /// Wires the connection onto flow `flow_id` of the dumbbell. `base_rtt_s`
  /// seeds the RTO before the first measurement.
  TcpConnection(net::Dumbbell& net, int flow_id, double base_rtt_s, TcpConfig cfg = {});

  // Registers this-capturing handlers at construction; the object must stay
  // at its construction address.
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  void start(double at);
  void stop();

  // --- pooled lifecycle (dynamic workloads) --------------------------------
  //
  // Same contract as TfrcConnection: construct once per pool slot, open()
  // per transfer. open() rewinds the congestion/sequencing/RTT-estimator
  // state to a fresh connection's while cumulative counters and the
  // loss-event recorder keep accumulating. Timers are LazyTimers — close()
  // cancels them and any stale kernel event dies against `snd_.running`. The
  // pool quarantines retired slots for a drain interval, so no packet of a
  // previous transfer can reach the next incarnation.

  /// (Re)opens the connection for a reliable transfer of `transfer_packets`
  /// data packets (0 = unbounded greedy source). The first window is sent
  /// at the current simulated time; `on_complete` fires once, when the
  /// final byte is cumulatively acknowledged.
  void open(std::uint64_t transfer_packets, CompletionFn on_complete = {});

  /// Retires the flow (timers cancelled, completion dropped, counters kept).
  void close();

  [[nodiscard]] bool active() const noexcept { return snd_.running; }
  [[nodiscard]] std::uint64_t transfers_completed() const noexcept {
    return transfers_completed_;
  }

  // --- measurement ---------------------------------------------------------
  [[nodiscard]] const stats::LossEventRecorder& recorder() const noexcept { return recorder_; }
  /// New in-order packets accepted by the receiver (goodput counter).
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  /// Data packets put on the wire (incl. retransmissions).
  [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
  [[nodiscard]] double cwnd() const noexcept { return snd_.cwnd; }
  [[nodiscard]] double srtt() const noexcept { return snd_.srtt; }
  /// Event-averaged RTT (sampled once per smoothed RTT, the paper's r).
  [[nodiscard]] const stats::OnlineMoments& rtt_stats() const noexcept { return rtt_stats_; }
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }
  [[nodiscard]] std::uint64_t fast_retransmits() const noexcept { return fast_retx_; }
  /// Queuing-delay telemetry (Sender concept): loss-based TCP reports none.
  [[nodiscard]] double queuing_delay_sum_s() const noexcept { return 0.0; }
  [[nodiscard]] std::uint64_t queuing_delay_samples() const noexcept { return 0; }

 private:
  // sender side
  void try_send();
  void finish_transfer();
  void reset_transfer_state();
  void transmit(std::int64_t seq, bool retransmission);
  void on_packet_at_sender(const net::Packet& p);
  void on_new_ack(std::int64_t ack, double echo_time);
  void on_dupack();
  void enter_recovery();
  void on_timeout();
  void arm_rto();
  void rto_event();
  void delack_event();
  void note_rtt_sample(double sample);
  void record_loss_event();
  [[nodiscard]] double flight() const noexcept {
    return static_cast<double>(snd_.next_seq - snd_.high_ack);
  }

  // receiver side
  void on_data_at_receiver(const net::Packet& p);
  void send_ack(double echo_time);

  net::Dumbbell& net_;
  int flow_;
  double base_rtt_s_;
  TcpConfig cfg_;

  /// Per-transfer sender hot state — congestion control, sequencing, and
  /// the RTO estimator — grouped into one trivially-copyable block so
  /// open()'s rewind is a plain store sweep and the ACK-clocked working set
  /// stays within two cache lines per flow at pool scale.
  struct SenderState {
    double cwnd = 0.0;
    double ssthresh = 0.0;
    std::int64_t next_seq = 0;   // next NEW sequence to transmit
    std::int64_t high_ack = 0;   // highest cumulative ack (next expected)
    std::int64_t recover = 0;    // NewReno recovery point
    std::int64_t limit_seq = 0;  // first sequence NOT in the transfer; 0 = unbounded
    double srtt = 0.0;
    double rttvar = 0.0;
    double rto = 0.0;
    double last_retransmit_time = -1.0;  // Karn's rule cutoff
    std::int32_t dup_count = 0;
    std::int32_t backoff = 1;
    bool running = false;
    bool in_recovery = false;
    bool have_rtt = false;
  };
  static_assert(sizeof(SenderState) == 96, "TCP sender hot state outgrew its line budget");
  static_assert(std::is_trivially_copyable_v<SenderState>);

  /// Per-transfer receiver hot state (cumulative ack point + delack burst).
  struct ReceiverState {
    std::int64_t expected = 0;
    double last_echo = 0.0;
    std::int32_t pending_acks = 0;
  };
  static_assert(sizeof(ReceiverState) == 24, "TCP receiver hot state outgrew its line budget");
  static_assert(std::is_trivially_copyable_v<ReceiverState>);

  SenderState snd_;
  ReceiverState rcv_;

  // pooled-lifecycle state (cumulative across incarnations)
  std::uint64_t transfers_completed_ = 0;
  CompletionFn done_;

  // Lazily re-armed RTO deadline: every ACK used to cancel-and-reschedule
  // the kernel event, leaving a window's worth of dead heap entries cycling
  // through the simulator per flow; now each ACK is a store (see
  // sim::LazyTimer).
  sim::LazyTimer rto_timer_;
  std::uint64_t sent_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t fast_retx_ = 0;

  // Sorted ascending; a vector (capacity retained across loss episodes)
  // instead of a node-per-entry set, so reordering buffers allocate nothing
  // in steady state. Holes are at most a window's worth of packets, so the
  // O(n) insert shift is cache-friendly and tiny.
  std::vector<std::int64_t> out_of_order_;
  // Lazy delayed-ACK deadline, same shape as the RTO: arming is a store and
  // sending the ACK merely deactivates (at most one kernel event per delack
  // timeout per flow instead of a schedule+cancel pair per ACKed pair).
  sim::LazyTimer delack_timer_;
  std::uint64_t delivered_ = 0;

  // measurement
  stats::LossEventRecorder recorder_;
  stats::OnlineMoments rtt_stats_;
  double next_rtt_sample_at_ = 0.0;
};

}  // namespace ebrc::tcp
