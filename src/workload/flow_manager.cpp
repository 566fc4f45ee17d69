#include "workload/flow_manager.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace ebrc::workload {

namespace {

// The paper's two-class mix (WorkloadConfig::tfrc_fraction) draws between these.
constexpr FlowClass kTfrc = find_class("tfrc");
constexpr FlowClass kTcp = find_class("tcp");
static_assert(kTfrc >= 0 && kTcp >= 0);

}  // namespace

FlowManager::FlowManager(net::Dumbbell& net, FlowManagerConfig cfg)
    : net_(net),
      cfg_(std::move(cfg)),
      workload_rng_(sim::Rng(cfg_.seed).split("workload-stream")),
      path_rng_(sim::Rng(cfg_.seed).split("path-stream")),
      arrival_ev_(net.simulator().pin([this] { arrival(); })) {
  const WorkloadConfig& w = cfg_.workload;
  if (!workload_enabled(w)) {
    throw std::invalid_argument("FlowManager: arrival_rate_per_s must be > 0");
  }
  if (w.mean_size_pkts <= 0 || w.min_size_pkts <= 0 || w.max_size_pkts < w.min_size_pkts) {
    throw std::invalid_argument("FlowManager: bad size distribution bounds");
  }
  if (w.interarrival != "exponential" && w.interarrival != "pareto") {
    throw std::invalid_argument("FlowManager: unknown interarrival '" + w.interarrival +
                                "' (expected exponential | pareto)");
  }
  if (w.size_dist != "exponential" && w.size_dist != "pareto") {
    throw std::invalid_argument("FlowManager: unknown size_dist '" + w.size_dist +
                                "' (expected exponential | pareto)");
  }
  if (w.tfrc_fraction < 0.0 || w.tfrc_fraction > 1.0 || w.session_fraction < 0.0 ||
      w.session_fraction > 1.0) {
    throw std::invalid_argument("FlowManager: fractions must lie in [0, 1]");
  }
  if (w.max_concurrent < 1) {
    throw std::invalid_argument("FlowManager: max_concurrent must be >= 1");
  }
  if (w.session_transfers_mean < 1.0) {
    throw std::invalid_argument("FlowManager: session_transfers_mean must be >= 1");
  }
  if (!w.controller.empty()) {
    forced_cls_ = find_class(w.controller);
    if (forced_cls_ < 0) {
      std::string names;
      for (const ClassInfo& c : kClassInfo) {
        names.append(names.empty() ? "" : " | ").append(c.controller);
      }
      throw std::invalid_argument("FlowManager: unknown controller '" + w.controller +
                                  "' (expected " + names + ")");
    }
  }
  free_.reserve(static_cast<std::size_t>(w.max_concurrent));
  pools_.reserve(static_cast<std::size_t>(w.max_concurrent));
}

void FlowManager::start(double at) {
  running_ = true;
  pop_.begin_epoch(net_.simulator().now());
  epoch_start_ = net_.simulator().now();
  epoch_open_ = true;
  net_.simulator().schedule_pinned_at(at, arrival_ev_);
}

void FlowManager::begin_epoch() {
  const double now = net_.simulator().now();
  pop_.begin_epoch(now);
  epoch_start_ = now;
  epoch_open_ = true;
  // One snapshot sweep per class over its wired connections.
  // Written once against the Sender concept for the whole zoo.
  for (FlowClass c = 0; c < kFlowClasses; ++c) {
    pools_.with_pool(c, [&](const auto& pool) {
      for (std::size_t k = 0; k < pool.size(); ++k) {
        EpochSnapshot& s = pools_.snapshot(c, static_cast<std::int32_t>(k));
        const auto& conn = pool[k];
        s.delivered0 = conn.delivered();
        s.packets0 = conn.recorder().packets();
        s.losses0 = conn.recorder().losses();
        s.events0 = conn.recorder().events();
        s.qd_sum0 = conn.queuing_delay_sum_s();
        s.qd_count0 = conn.queuing_delay_samples();
      }
    });
  }
}

double FlowManager::draw_interarrival() {
  const WorkloadConfig& w = cfg_.workload;
  const double mean = 1.0 / w.arrival_rate_per_s;
  if (w.interarrival == "pareto") {
    return workload_rng_.pareto_mean(mean, w.interarrival_shape);
  }
  return workload_rng_.exponential_mean(mean);
}

double FlowManager::draw_size() {
  const WorkloadConfig& w = cfg_.workload;
  double size;
  if (w.size_dist == "pareto") {
    // Bounded Pareto: an unbounded pareto_mean draw truncated at the cap.
    // The truncation slightly lowers the realized mean; the heavy tail (the
    // property the churn experiments care about) survives the cap.
    size = std::min(workload_rng_.pareto_mean(w.mean_size_pkts, w.pareto_shape),
                    w.max_size_pkts);
  } else {
    size = workload_rng_.exponential_mean(w.mean_size_pkts);
  }
  return std::max(w.min_size_pkts, size);
}

int FlowManager::draw_session_remaining() {
  const WorkloadConfig& w = cfg_.workload;
  if (w.session_fraction <= 0.0 || workload_rng_.uniform() >= w.session_fraction) return 0;
  if (w.session_transfers_mean <= 1.0) return 0;
  // Geometric number of transfers with the configured mean m: success
  // probability 1/m, so K = 1 + floor(ln U / ln(1 - 1/m)); returns K - 1
  // follow-ups beyond the transfer being admitted now.
  const double q = 1.0 - 1.0 / w.session_transfers_mean;
  const double u = std::max(1e-300, workload_rng_.uniform());
  const double k = std::floor(std::log(u) / std::log(q));
  return static_cast<int>(std::min(k, 1e6));
}

void FlowManager::arrival() {
  if (!running_) return;  // stop(): the arrival chain dies here
  admit(draw_session_remaining());
  net_.simulator().schedule_pinned(draw_interarrival(), arrival_ev_);
}

void FlowManager::ensure_side(std::size_t idx, FlowClass cls) {
  std::int32_t& conn = pools_.slot(idx).conn[cls];
  if (conn >= 0) return;
  // First use of this slot under `cls`: wire a dumbbell flow and construct
  // the connection permanently (handlers + pinned events registered once).
  const double jitter =
      cfg_.rtt_spread > 0 ? cfg_.rtt_spread * (path_rng_.uniform() - 0.5) : 0.0;
  const double rtt = cfg_.base_rtt_s * (1.0 + jitter);
  const double one_way = std::max(0.0, rtt / 2.0 - cfg_.shared_prop_s);
  const int flow_id = net_.add_flow(one_way, rtt / 2.0);
  conn = pools_.make(cls, net_, flow_id, rtt, cfg_.tfrc, cfg_.tcp, cfg_.rate);
}

void FlowManager::admit(int session_remaining) {
  const double now = net_.simulator().now();
  // Fixed draw order BEFORE the admission check: rejected arrivals consume
  // the same randomness as admitted ones, keeping CRN-paired workloads in
  // step even when only one of them saturates its pool. The class draw is
  // burned even under a controller override, so arms that differ only in
  // `controller` see identical arrival times and sizes.
  const double class_draw = workload_rng_.uniform();
  const FlowClass cls =
      forced_cls_ >= 0 ? forced_cls_ : (class_draw < cfg_.workload.tfrc_fraction ? kTfrc : kTcp);
  const double size = draw_size();

  std::size_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
  } else if (pools_.size() < static_cast<std::size_t>(cfg_.workload.max_concurrent)) {
    idx = pools_.add_slot();
  } else {
    pop_.on_reject(now, cls);
    return;  // loss-system admission: the transfer (and its session) is gone
  }

  ensure_side(idx, cls);
  SlotState& slot = pools_.slot(idx);
  assert(!slot.busy && "free-listed slot still occupied");
  slot.busy = true;
  slot.cls = static_cast<std::int8_t>(cls);
  slot.size_pkts = size;
  slot.opened_at = now;
  slot.session_remaining = session_remaining;
  pop_.on_open(now, cls);

  const auto packets = static_cast<std::uint64_t>(std::llround(size));
  pools_.with_sender(cls, slot.conn[cls], [this, idx, packets](auto& sender) {
    sender.open(packets, [this, idx] { complete(idx); });
  });
}

void FlowManager::complete(std::size_t idx) {
  SlotState& slot = pools_.slot(idx);
  assert(slot.busy && "completion from an unoccupied slot");
  const double now = net_.simulator().now();
  pop_.on_close(now, slot.cls, now - slot.opened_at, slot.size_pkts);
  if (completion_hook_ != nullptr) {
    completion_hook_(completion_ctx_, slot.opened_at, now, slot.cls, slot.size_pkts);
  }
  slot.busy = false;

  // Quarantine: the slot rejoins the free list only once every in-flight
  // packet of the finished transfer has left the network.
  net_.simulator().schedule(cfg_.drain_s, [this, idx] { release(idx); });

  if (slot.session_remaining > 0) {
    const int remaining = slot.session_remaining - 1;
    ++session_followups_;
    const double think = path_rng_.exponential_mean(cfg_.workload.session_think_s);
    net_.simulator().schedule(think, [this, remaining] { admit(remaining); });
  }
}

void FlowManager::release(std::size_t idx) { free_.push_back(idx); }

WorkloadSummary FlowManager::summarize() {
  const double now = net_.simulator().now();
  if (!epoch_open_) throw std::logic_error("FlowManager::summarize: no open epoch");
  epoch_open_ = false;
  pop_.finish(now);
  const double window = std::max(1e-9, now - epoch_start_);

  WorkloadSummary out;
  out.arrivals = pop_.arrivals();
  out.completions = pop_.completions();
  out.rejections = pop_.rejections();
  out.mean_flows = pop_.mean_flows_total();
  out.peak_flows = pop_.peak();

  // Per class: population and completion-time statistics, then goodput and
  // the aggregate loss-event rate over the window from the slots' cumulative
  // counters against the epoch snapshots. One generic Sender sweep covers
  // the whole zoo, including the queuing-delay telemetry only the
  // delay-sensing classes report. The sweep walks slots, not connections:
  // qd_sum is a floating-point sum, and slot order is the order it has
  // always been added in.
  double qd_sum = 0.0;
  std::uint64_t qd_count = 0;
  for (FlowClass c = 0; c < kFlowClasses; ++c) {
    const ClassFields& f = kClassFields[c];
    const auto& t = pop_.completion_time(c);
    out.*f.mean_flows = pop_.mean_flows(c);
    out.*f.completion_s = t.mean();
    out.*f.completion_cov = t.cv();
    std::uint64_t del = 0, pk = 0, lo = 0, ev = 0;
    pools_.with_pool(c, [&](const auto& pool) {
      for (std::size_t i = 0; i < pools_.size(); ++i) {
        const std::int32_t k = pools_.slot(i).conn[c];
        if (k < 0) continue;
        const EpochSnapshot& s = pools_.snapshot(c, k);
        const auto& conn = pool[k];
        del += conn.delivered() - s.delivered0;
        const auto& rec = conn.recorder();
        pk += rec.packets() - s.packets0;
        lo += rec.losses() - s.losses0;
        ev += rec.events() - s.events0;
        qd_sum += conn.queuing_delay_sum_s() - s.qd_sum0;
        qd_count += conn.queuing_delay_samples() - s.qd_count0;
      }
    });
    out.*f.goodput_pps = static_cast<double>(del) / window;
    out.*f.p = pk + lo > 0 ? static_cast<double>(ev) / static_cast<double>(pk + lo) : 0.0;
  }
  const double total = out.tfrc_goodput_pps + out.tcp_goodput_pps;
  out.tfrc_share = total > 0 ? out.tfrc_goodput_pps / total : 0.0;
  out.qdelay_mean_s = qd_count > 0 ? qd_sum / static_cast<double>(qd_count) : 0.0;
  return out;
}

}  // namespace ebrc::workload
