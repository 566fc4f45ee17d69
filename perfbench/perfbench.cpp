// perfbench — the end-to-end benchmark driver of the ebrc library.
//
// One invocation runs one workload through the library's public API for a
// fixed wall-clock budget, checks every output, and prints one JSON result
// line last on stdout:
//
//   lab_sweep   the Figure 16 lab grid (DropTail-100 and RED × 11
//               populations, long-lived TFRC + TCP) through BatchRunner::run,
//               then aggregate().
//   churn_200k  one saturated 200,000-slot churn cell built from
//               sim::Simulator, net::Dumbbell and workload::FlowManager,
//               timed from construction to summarize().
//   zoo_cells   the controller matrix {tfrc, tcp, delay_aimd, rcp} ×
//               ρ ∈ {0.5, 0.8, 1.2} × many CRN-paired reps of short churn
//               cells, the same way.
//
// After each sweep pass its entries are written to a fresh ResultStore and
// replayed warm from it.
//
// --trace 0 reports the end-to-end metrics (host time, untraced). --trace 1
// alternates untraced iterations with traced ones that record in-memory
// spans around each public call (the traced sweep goes through
// BatchRunner::map so each run_experiment / store call gets its own span),
// writes the spans with their self time to a JSON file, and reports the
// per-layer metrics. NOTES.md beside this file defines every metric and the
// prediction each one tests.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR
#include <malloc.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/dumbbell.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "testbed/batch.hpp"
#include "testbed/experiment.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario.hpp"
#include "workload/flow_manager.hpp"

namespace {

using namespace ebrc;
using Clock = std::chrono::steady_clock;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- workload sizes ------------------------------------------------------
// Chosen so one pass or cell takes a few seconds at most on a 4-core host
// and a 35 s run holds about ten of them; NOTES.md gives the measured sizes.
constexpr int kLabPopulations[] = {1, 2, 4, 6, 9, 12, 16, 20, 25, 30, 36};
constexpr int kLabReps = 4;
constexpr double kLabDurationS = 250.0;

constexpr double kZooLoads[] = {0.5, 0.8, 1.2};
constexpr int kZooReps = 200;  // 3 loads × 4 controllers × 200 = 2400 cells
constexpr double kZooDurationS = 3.0;
constexpr int kZooWarmPasses = 10;  // timed replays per cold pass

constexpr int kChurnSlots = 200000;
// Arrivals come at 3 × slots / kChurnFillS per second, as bench_churn_longrun
// --engine sets them from its warm-up, so the pool fills early in the ramp.
constexpr double kChurnFillS = 2.0;
constexpr double kChurnRampStepS = 0.05;
constexpr double kChurnRampHorizonS = 10.0;
constexpr double kChurnSteadyS = 5.0;

constexpr int kSetupReps = 10;  // set-ups per sweep iteration; setup_s is their median

// ---- small statistics ------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// ---- process introspection -------------------------------------------------

/// A "Vm..." field of /proc/self/status in bytes (0 when unavailable).
double proc_status_bytes(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::stod(line.substr(n + 1)) * 1024.0;  // the kernel reports kB
    }
  }
  return 0.0;
}
double rss_bytes() { return proc_status_bytes("VmRSS"); }
double peak_rss_bytes() { return proc_status_bytes("VmHWM"); }

std::string filesystem_of(const std::filesystem::path& p) {
  struct statfs st {};
  if (statfs(p.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext4";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    case 0x794C7630ul: return "overlayfs";
    case 0x6969ul: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Sweep workers: two, which leaves headroom on a shared host, never more
/// than the host has.
std::size_t sweep_jobs() {
  return std::min<std::size_t>(2, std::max(1u, std::thread::hardware_concurrency()));
}

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     // index into the span list, -1 at top level
  int rep = -1;        // benchmark iteration (sweep pass or churn cell)
  long cell = -1;      // batch index for per-cell spans
};

/// In-memory span list, shared by the worker threads of a traced pass.
class Tracer {
 public:
  int open(const char* name, int parent, int rep, long cell = -1) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent, rep, cell});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  /// Call only once no worker records any more.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now() const { return seconds_between(t0_, Clock::now()); }

  Clock::time_point t0_ = Clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// A span for one scope; a null tracer makes it free.
class Scope {
 public:
  Scope(Tracer* tr, const char* name, int parent = -1, int rep = -1, long cell = -1)
      : tr_(tr), id_(tr != nullptr ? tr->open(name, parent, rep, cell) : -1) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void end() {
    if (tr_ != nullptr && !closed_) tr_->close(id_);
    closed_ = true;
  }
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer* tr_;
  int id_;
  bool closed_ = false;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals (children of a parallel pass overlap each other).
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0) kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0.0;
    double reach = spans[i].start;
    for (const auto& [a, b] : k) {
      const double lo = std::max(a, reach);
      const double hi = std::min(b, spans[i].end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(b, spans[i].end));
    }
    self[i] = (spans[i].end - spans[i].start) - covered;
  }
  return self;
}

// ---- arguments and the result ----------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::filesystem::path work_dir;
};

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T v{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw std::invalid_argument("flag --" + flag + ": not a number: '" + text + "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected '--flag value', got '" + flag + "'");
    }
    const std::string name = flag.substr(2);
    const std::string value = argv[++i];
    if (name == "workload") {
      a.workload = value;
    } else if (name == "seed") {
      a.seed = parse_number<std::uint64_t>(name, value);
      have_seed = true;
    } else if (name == "seconds") {
      a.seconds = parse_number<double>(name, value);
    } else if (name == "trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("flag --trace: 0 or 1");
      a.trace = value == "1";
    } else if (name == "work-dir") {
      a.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag --" + name);
    }
  }
  if (a.workload != "lab_sweep" && a.workload != "churn_200k" && a.workload != "zoo_cells") {
    throw std::invalid_argument("--workload must be lab_sweep, churn_200k or zoo_cells");
  }
  if (!have_seed) throw std::invalid_argument("--seed is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  if (a.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  return a;
}

/// Paces iterations: at least one (two when traced: one plain, one traced),
/// then another only while the previous one's length still fits the budget.
class Budget {
 public:
  explicit Budget(const Args& a) : seconds_(a.seconds), min_iters_(a.trace ? 2 : 1) {}
  bool next(int iter) {
    const auto now = Clock::now();
    if (iter > 0) last_ = seconds_between(prev_, now);
    prev_ = now;
    return iter < min_iters_ || seconds_between(start_, now) + last_ <= seconds_;
  }

 private:
  double seconds_;
  int min_iters_;
  Clock::time_point start_ = Clock::now();
  Clock::time_point prev_ = start_;
  double last_ = 0.0;
};

/// Everything one invocation accumulates: samples, counts, failures, spans.
struct Bench {
  Args args;
  std::filesystem::path scratch;    // per-process store root, removed at exit
  std::optional<Tracer> tracer;
  std::uint64_t attempted = 0;      // cells (or churn cells) run
  std::uint64_t failed = 0;         // cells that threw or failed an output check
  std::vector<std::string> diagnostics;
  std::string digest;               // simulated-statistics digest (not gated)
  std::map<std::string, std::vector<double>> samples;  // untraced end-to-end samples
  std::vector<double> traced_wall;                      // for the tracing overhead
  std::map<std::string, double> layer;                 // per-layer results

  void fail(std::string why) {
    if (diagnostics.size() < 20) diagnostics.push_back(std::move(why));
  }
};

// ---- output checks ---------------------------------------------------------
// Valid for any correct version of the physics: no golden values, only
// invariants a sound simulator must keep.

double obs_value(const testbed::ExperimentResult& r, std::string_view key) {
  for (const auto& [name, v] : r.obs) {
    if (name == key) return v;
  }
  return std::nan("");
}

std::size_t buffer_packets(const testbed::Scenario& sc) {
  if (sc.queue == testbed::QueueKind::kDropTail) return sc.droptail_buffer;
  if (sc.red) return sc.red->buffer_packets;
  return net::red_params_for_bdp(sc.bottleneck_bps, sc.base_rtt_s, sc.tfrc.packet_bytes)
      .buffer_packets;
}

double capacity_pps(const testbed::Scenario& sc) {
  return sc.bottleneck_bps / (8.0 * sc.tfrc.packet_bytes);
}

/// Packets the path holds: the bottleneck buffer plus capacity × the
/// longest base RTT.
double path_packets(const testbed::Scenario& sc) {
  return static_cast<double>(buffer_packets(sc)) +
         capacity_pps(sc) * sc.base_rtt_s * (1.0 + sc.rtt_spread) + 1.0;
}

/// Packets a window's receivers may count beyond what the bottleneck sent
/// inside it: those that crossed it before the window opened. The queue and
/// pipes hold one path's worth. TCP receivers count in-order delivery, so
/// they can also release packets held out of order across the window's
/// start. Those are bounded by what the TCP senders have outstanding, which
/// the shared path bounds whatever the number of flows, so they get a fixed
/// kTcpReorderPaths more.
constexpr double kTcpReorderPaths = 2.0;
double early_packets(const testbed::Scenario& sc) {
  const auto& w = sc.workload;
  const bool churn_tcp = workload::workload_enabled(w) &&
                         (w.controller == "tcp" || (w.controller.empty() && w.tfrc_fraction < 1.0));
  const bool tcp = sc.n_tcp > 0 || churn_tcp;
  return (1.0 + (tcp ? kTcpReorderPaths : 0.0)) * path_packets(sc);
}

/// Empty when Σ class goodput over the window is within capacity plus the
/// early packets. The slack may be at most this share of capacity × window,
/// so that the check sees an over-count of that size on every workload.
constexpr double kMaxSlackShare = 0.25;
std::string check_goodput_capacity(const testbed::Scenario& sc, double goodput_pps,
                                   double window_s) {
  const double capacity = capacity_pps(sc) * window_s;
  const double slack = early_packets(sc);
  if (slack > kMaxSlackShare * capacity) return "capacity check too loose for the window";
  if (goodput_pps * window_s > capacity + slack) return "class goodput above capacity";
  return {};
}

bool summary_finite(const workload::WorkloadSummary& w) {
  const double v[] = {w.mean_flows,        w.mean_flows_tfrc,     w.mean_flows_tcp,
                      w.tfrc_completion_s, w.tcp_completion_s,    w.tfrc_completion_cov,
                      w.tcp_completion_cov, w.tfrc_goodput_pps,   w.tcp_goodput_pps,
                      w.tfrc_share,        w.tfrc_p,              w.tcp_p,
                      w.mean_flows_aimd,   w.mean_flows_rcp,      w.aimd_completion_s,
                      w.rcp_completion_s,  w.aimd_completion_cov, w.rcp_completion_cov,
                      w.aimd_goodput_pps,  w.rcp_goodput_pps,     w.aimd_p,
                      w.rcp_p,             w.qdelay_mean_s};
  return std::all_of(std::begin(v), std::end(v), [](double x) { return std::isfinite(x); });
}

double summary_goodput(const workload::WorkloadSummary& w) {
  return w.tfrc_goodput_pps + w.tcp_goodput_pps + w.aimd_goodput_pps + w.rcp_goodput_pps;
}

/// Empty when the cell passes; otherwise the first broken invariant.
std::string check_cell(const testbed::Scenario& sc, const testbed::ExperimentResult& r) {
  const double scalars[] = {r.tfrc_throughput, r.tcp_throughput, r.tfrc_p, r.tcp_p,
                            r.poisson_p, r.tfrc_rtt, r.tcp_rtt, r.bottleneck_utilization,
                            r.breakdown.conservativeness, r.breakdown.loss_rate_ratio,
                            r.breakdown.rtt_ratio, r.breakdown.tcp_formula_ratio,
                            r.breakdown.friendliness};
  bool finite = std::all_of(std::begin(scalars), std::end(scalars),
                            [](double x) { return std::isfinite(x); });
  for (const auto& f : r.flows) {
    finite = finite && std::isfinite(f.throughput_pps) && std::isfinite(f.p) &&
             std::isfinite(f.mean_rtt_s) && std::isfinite(f.formula_rate) &&
             std::isfinite(f.normalized) && std::isfinite(f.cov_theta_thetahat) &&
             std::isfinite(f.normalized_cov);
  }
  for (const auto& kv : r.obs) finite = finite && std::isfinite(kv.second);
  if (r.workload_active) finite = finite && summary_finite(r.workload);
  if (!finite) return "non-finite metric";

  if (r.bottleneck_utilization < 0.0 || r.bottleneck_utilization > 1.0 + 1e-9) {
    return "bottleneck utilisation outside [0, 1]";
  }
  // The public counters. Queue accepted == link delivered checks how
  // Link::forward pairs the two increments, not conservation. Receivers
  // against link delivered is loose: goodput covers the window, delivered
  // the whole run (warm-up included), so it misses an over-count up to
  // duration / window − 1. The capacity check is the tight one here.
  const double accepted = obs_value(r, "queue_accepted");
  const double delivered = obs_value(r, "link_delivered");
  if (!(accepted == delivered)) return "queue accepted != link delivered";
  const double window = sc.duration_s - sc.warmup_s;
  double goodput = 0.0;
  for (const auto& f : r.flows) goodput += f.throughput_pps;
  if (r.workload_active) goodput += summary_goodput(r.workload);
  if (goodput * window > delivered + 0.5) return "receivers got more packets than the link sent";
  return check_goodput_capacity(sc, goodput, window);
}

/// Per-layer results are the medians of their per-iteration samples.
void fold(Bench& b, const std::map<std::string, std::vector<double>>& m) {
  for (const auto& [name, v] : m) b.layer[name] = median(v);
  const double delivered = b.layer["net.packets_delivered"];
  b.layer["net.events_per_packet"] = delivered > 0 ? b.layer["sim.events"] / delivered : 0.0;
}

// ---- sweeps (lab_sweep, zoo_cells) -----------------------------------------

std::vector<testbed::Scenario> lab_batch(std::uint64_t seed) {
  std::vector<testbed::Scenario> batch;
  for (const auto queue : {testbed::QueueKind::kDropTail, testbed::QueueKind::kRed}) {
    for (const int n : kLabPopulations) {
      auto base = testbed::lab_scenario(queue, 100, n, /*seed=*/0);
      base.name += "-n" + std::to_string(n);
      base.duration_s = kLabDurationS;
      base.warmup_s = kLabDurationS / 6.0;
      const auto runs = testbed::replicate(base, seed, kLabReps);
      batch.insert(batch.end(), runs.begin(), runs.end());
    }
  }
  return batch;
}

/// The controller matrix, load-major: at each load the four arms share one
/// pair tag, so all of them draw common random numbers rep by rep.
std::vector<testbed::Scenario> zoo_batch(std::uint64_t seed) {
  std::vector<testbed::Scenario> batch;
  for (const double rho : kZooLoads) {
    char tag[32];
    std::snprintf(tag, sizeof(tag), "%g", rho);
    auto arm = [&](const char* ctrl) {
      auto sc = testbed::churn_scenario(rho, /*tfrc_fraction=*/0.5, /*seed=*/0);
      sc.name = std::string("zoo-") + ctrl + "-rho" + tag;
      sc.workload.controller = ctrl;
      sc.duration_s = kZooDurationS;
      sc.warmup_s = kZooDurationS / 6.0;
      return sc;
    };
    const auto pair = testbed::replicate_paired(arm("tfrc"), arm("tcp"),
                                                std::string("zoo-rho") + tag, seed, kZooReps);
    batch.insert(batch.end(), pair.a.begin(), pair.a.end());
    batch.insert(batch.end(), pair.b.begin(), pair.b.end());
    for (const char* ctrl : {"delay_aimd", "rcp"}) {
      for (auto sc : pair.b) {
        sc.workload.controller = ctrl;
        sc.name = std::string("zoo-") + ctrl + "-rho" + tag;
        batch.push_back(std::move(sc));
      }
    }
  }
  return batch;
}

struct SweepSpec {
  std::vector<testbed::Scenario> (*make)(std::uint64_t seed);
  int warm_passes;  // timed replays per cold pass (traced iterations run 2)
};

/// One cold pass: results in batch order and which cells completed.
struct Pass {
  std::vector<testbed::ExperimentResult> results;
  std::vector<std::uint8_t> ok;
  std::uint64_t retried = 0;
};

/// The measured cold pass through BatchRunner::run, without a store.
Pass cold_pass(const testbed::BatchRunner& runner, const std::vector<testbed::Scenario>& batch) {
  testbed::RunPolicy policy;
  policy.keep_going = true;
  testbed::SweepReport report;
  Pass p;
  p.results = runner.run(batch, nullptr, {}, &report, policy);
  p.ok = report.available;
  p.retried = report.retried;
  return p;
}

/// The same cold pass with a span around each cell's run_experiment. It goes
/// through BatchRunner::map because run() has no per-cell seam.
Pass traced_cold_pass(const testbed::BatchRunner& runner,
                      const std::vector<testbed::Scenario>& batch, Tracer& tr, int parent,
                      int iter) {
  Pass p;
  p.ok.assign(batch.size(), 0);
  p.results = runner.map<testbed::ExperimentResult>(batch.size(), [&](std::size_t i) {
    testbed::ExperimentResult r;
    try {
      Scope s(&tr, "testbed.run_experiment", parent, iter, static_cast<long>(i));
      r = testbed::run_experiment(batch[i]);
    } catch (const std::exception&) {
      return r;  // left !ok: a failed cell
    }
    p.ok[i] = 1;
    return r;
  });
  return p;
}

/// One warm pass: its wall time, whether every cell was a hit, and the
/// entries the store found corrupt.
struct Replay {
  double seconds = 0.0;
  bool all_hits = false;
  std::uint64_t corrupt = 0;
};

/// Replays the batch from the reopened store (open + all loads + aggregate);
/// `warm` receives the loaded results.
Replay warm_pass(const testbed::BatchRunner& runner, const std::vector<testbed::Scenario>& batch,
                 const std::filesystem::path& dir, Tracer* tr, int iter,
                 std::vector<testbed::ExperimentResult>& warm) {
  const auto t0 = Clock::now();
  Scope pass(tr, "testbed.replay", -1, iter);
  std::size_t hits = 0;
  Replay out;
  {
    Scope open(tr, "testbed.store_reopen", pass.id(), iter);
    const testbed::ResultStore store(dir);
    open.end();
    if (tr == nullptr) {
      testbed::SweepReport report;
      warm = runner.run(batch, &store, {}, &report);
      hits = report.simulated == 0 ? report.hits : 0;
    } else {
      std::vector<std::uint8_t> hit(batch.size(), 0);
      warm = runner.map<testbed::ExperimentResult>(batch.size(), [&](std::size_t i) {
        Scope s(tr, "testbed.store_get", pass.id(), iter, static_cast<long>(i));
        auto r = store.load(batch[i]);
        hit[i] = r.has_value();
        return r ? std::move(*r) : testbed::ExperimentResult{};
      });
      hits = static_cast<std::size_t>(std::count(hit.begin(), hit.end(), 1));
    }
    out.corrupt = store.counters().corrupt;
  }
  {
    Scope s(tr, "testbed.aggregate", pass.id(), iter);
    if (testbed::aggregate(warm).runs != warm.size()) hits = 0;
  }
  pass.end();
  out.all_hits = hits == batch.size();
  out.seconds = seconds_between(t0, Clock::now());
  return out;
}

std::string hex64(std::uint64_t h) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

void run_sweep(Bench& b, const SweepSpec& spec) {
  const testbed::BatchRunner runner(sweep_jobs());
  std::vector<std::string> reference;  // encoded results of the first cold pass
  std::vector<testbed::Scenario> batch;
  std::map<std::string, std::vector<double>> m;  // per-layer samples
  Budget budget(b.args);
  for (int iter = 0; budget.next(iter); ++iter) {
    const bool traced = b.args.trace && iter % 2 == 1;
    Tracer* tr = traced ? &*b.tracer : nullptr;
    // Every store gets its own directory, deleted only when the run ends, so
    // no file deletion overlaps a timed pass.
    const auto dir = b.scratch / ("store-" + std::to_string(iter));

    // Set-up is scenario generation, several times; the last batch feeds the
    // pass. Opening the store is not part of it: that is one file creation,
    // whose latency on the measured disk swung 0.05-1.1 ms over minutes.
    std::optional<Scope> sweep;
    Clock::time_point t0;
    for (int k = 0; k < kSetupReps; ++k) {
      const bool last = k + 1 == kSetupReps;
      t0 = Clock::now();
      if (last) sweep.emplace(tr, "testbed.sweep", -1, iter);
      Scope s(last ? tr : nullptr, "testbed.scenarios", last && tr ? sweep->id() : -1, iter);
      batch = spec.make(b.args.seed);
      s.end();
      b.samples["setup_s"].push_back(seconds_between(t0, Clock::now()));
    }
    const int parent = tr != nullptr ? sweep->id() : -1;
    Pass pass;
    {
      Scope ps(tr, "testbed.pass", parent, iter);
      const auto p0 = Clock::now();
      pass = tr != nullptr ? traced_cold_pass(runner, batch, *tr, ps.id(), iter)
                           : cold_pass(runner, batch);
      ps.end();
      if (tr != nullptr) {
        // Worker busy share: Σ per-cell span time / (workers × pass wall).
        double cell_time = 0.0;
        for (const auto& s : tr->spans()) {
          if (s.parent == ps.id()) cell_time += s.end - s.start;
        }
        const double pass_wall = seconds_between(p0, Clock::now());
        m["testbed.worker_busy_frac"].push_back(
            cell_time / (static_cast<double>(runner.jobs()) * pass_wall));
      }
    }
    {
      Scope s(tr, "testbed.aggregate", parent, iter);
      if (testbed::aggregate(pass.results).runs != batch.size()) b.fail("aggregate lost runs");
    }
    sweep.reset();
    (traced ? b.traced_wall : b.samples["wall_s"]).push_back(seconds_between(t0, Clock::now()));

    // The store is opened and written after the timed pass (NOTES.md: file
    // creation on the measured disk swung over minutes), timed apart.
    {
      const auto w0 = Clock::now();
      Scope s(tr, "testbed.persist", -1, iter);
      std::optional<testbed::ResultStore> store;
      {
        Scope open(tr, "testbed.store_open", s.id(), iter);
        store.emplace(dir);
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Scope put(tr, "testbed.store_put", s.id(), iter, static_cast<long>(i));
        if (pass.ok[i] != 0) store->store(batch[i], pass.results[i]);
      }
      if (!traced) m["testbed.persist_s"].push_back(seconds_between(w0, Clock::now()));
    }

    // Output checks on every cell of the pass.
    std::vector<std::uint8_t> bad(batch.size(), 0);
    std::vector<std::string> enc(batch.size());
    auto flag = [&](std::size_t i, const std::string& why) {
      if (bad[i] == 0) b.fail(batch[i].name + ": " + why);
      bad[i] = 1;
    };
    double events = 0, wheel = 0, heap = 0, delivered = 0, drops = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (pass.ok[i] == 0) {
        flag(i, "cell failed");
        continue;
      }
      const auto& r = pass.results[i];
      if (const std::string why = check_cell(batch[i], r); !why.empty()) flag(i, why);
      enc[i] = testbed::encode_result(r);
      if (!reference.empty() && enc[i] != reference[i]) {
        flag(i, "same seed, different result across passes");
      }
      events += obs_value(r, "kernel_events");
      wheel += obs_value(r, "kernel_wheel_pops");
      heap += obs_value(r, "kernel_heap_pops");
      delivered += obs_value(r, "link_delivered");
      drops += obs_value(r, "queue_drops");
    }
    m["sim.events"].push_back(events);
    m["sim.wheel_share"].push_back(wheel + heap > 0 ? wheel / (wheel + heap) : 0.0);
    m["net.packets_delivered"].push_back(delivered);
    m["net.drops"].push_back(drops);
    if (tr != nullptr) {
      double cell_s = 0.0;
      for (const auto& s : tr->spans()) {
        if (s.rep != iter || s.name != "testbed.run_experiment") continue;
        cell_s += s.end - s.start;
        const auto i = static_cast<std::size_t>(s.cell);
        const std::string& ctl = batch[i].workload.controller;
        if (!ctl.empty()) {
          m[ctl + ".cell_ms"].push_back((s.end - s.start) * 1e3);
          m[ctl + ".events_per_cell"].push_back(obs_value(pass.results[i], "kernel_events"));
        }
      }
      m["sim.ns_per_event"].push_back(events > 0 ? cell_s / events * 1e9 : 0.0);
    }
    b.layer["testbed.cells_retried"] += static_cast<double>(pass.retried);
    if (reference.empty()) {
      reference = enc;
      std::uint64_t h = 0xcbf29ce484222325ull;
      for (const auto& e : enc) h = fnv1a(e, h);
      b.digest = hex64(h);
    }

    // Warm replays: bit-identical to the cold pass, zero simulations.
    const int passes = traced ? std::min(spec.warm_passes, 2) : spec.warm_passes;
    for (int w = 0; w < passes; ++w) {
      std::vector<testbed::ExperimentResult> warm;
      const Replay replay = warm_pass(runner, batch, dir, tr, iter, warm);
      if (!traced) m["testbed.replay_s"].push_back(replay.seconds);
      b.layer["testbed.store_corrupt"] += static_cast<double>(replay.corrupt);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!replay.all_hits || testbed::encode_result(warm[i]) != enc[i]) {
          flag(i, "warm replay differs from the cold pass");
        }
      }
    }
    b.attempted += batch.size();
    b.failed += static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), 1));
  }

  // Per-cell results must not depend on the worker count: re-run the first
  // rep of every arm (the first cell of each scenario name) on one worker.
  std::vector<std::size_t> pick;
  std::vector<testbed::Scenario> subset;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i > 0 && batch[i].name == batch[i - 1].name) continue;
    pick.push_back(i);
    subset.push_back(batch[i]);
  }
  const Pass single = cold_pass(testbed::BatchRunner(1), subset);
  for (std::size_t k = 0; k < pick.size(); ++k) {
    if (single.ok[k] == 0 || testbed::encode_result(single.results[k]) != reference[pick[k]]) {
      ++b.failed;
      b.fail(subset[k].name + ": result depends on the worker count");
    }
  }

  fold(b, m);
}

// ---- churn_200k ------------------------------------------------------------

void run_churn(Bench& b) {
  std::map<std::string, std::vector<double>> m;  // per-layer samples
  std::vector<double> coverage;
  std::string reference;
  Budget budget(b.args);
  for (int iter = 0; budget.next(iter); ++iter) {
    const bool traced = b.args.trace && iter % 2 == 1;
    Tracer* tr = traced ? &*b.tracer : nullptr;
    const double rss0 = rss_bytes();
    const auto t0 = Clock::now();
    std::optional<Scope> cell(std::in_place, tr, "churn.cell", -1, iter);
    const int parent = cell->id();

    // Built the way bench_churn_longrun --engine builds its cells: arrivals
    // fast enough to fill the pool early, RED at the bandwidth-delay product.
    std::optional<sim::Simulator> sim;
    std::optional<net::Dumbbell> net;
    std::optional<workload::FlowManager> churn;
    testbed::Scenario sc;
    const auto c0 = Clock::now();
    {
      Scope s(tr, "sim.construct", parent, iter);
      sc = testbed::churn_scenario(/*offered_load=*/1.5, /*tfrc_fraction=*/0.5, b.args.seed);
      sc.workload.max_concurrent = kChurnSlots;
      sc.workload.arrival_rate_per_s =
          std::max(sc.workload.arrival_rate_per_s, 3.0 * kChurnSlots / kChurnFillS);
      sim.emplace();
      sim->reserve(4 * static_cast<std::size_t>(kChurnSlots));
    }
    {
      Scope s(tr, "net.construct", parent, iter);
      net.emplace(*sim,
                  net::Queue::red(net::red_params_for_bdp(sc.bottleneck_bps, sc.base_rtt_s,
                                                          sc.tfrc.packet_bytes),
                                  sim::hash_seed(sc.seed, "red")),
                  sc.bottleneck_bps, 0.001);
    }
    {
      Scope s(tr, "workload.construct", parent, iter);
      workload::FlowManagerConfig wcfg;
      wcfg.workload = sc.workload;
      wcfg.tfrc = sc.tfrc;
      wcfg.tcp = sc.tcp;
      wcfg.base_rtt_s = sc.base_rtt_s;
      wcfg.rtt_spread = sc.rtt_spread;
      wcfg.drain_s = 0.5;
      wcfg.seed = sim::hash_seed(sc.seed, "workload");
      churn.emplace(*net, wcfg);
      churn->start(0.0);
    }
    const auto c1 = Clock::now();

    // Ramp: run until the pool is full — the first arrival finds no free slot
    // (every slot is carrying a flow or draining after one).
    double t = 0.0;
    {
      Scope ramp(tr, "workload.ramp", parent, iter);
      while (churn->population().rejections() == 0 && t < kChurnRampHorizonS) {
        Scope s(tr, "sim.run_until", ramp.id(), iter);
        t += kChurnRampStepS;
        sim->run_until(t);
      }
    }
    const auto t_ramp = Clock::now();
    const double rss1 = rss_bytes();
    {
      Scope s(tr, "workload.begin_epoch", parent, iter);
      churn->begin_epoch();
    }
    const auto s0 = Clock::now();
    const std::uint64_t e0 = sim->events_executed();
    const std::uint64_t sent0 = net->bottleneck().delivered();
    {
      Scope s(tr, "sim.run_until", parent, iter);
      sim->run_until(t + kChurnSteadyS);
    }
    const auto s1 = Clock::now();
    workload::WorkloadSummary summary;
    {
      Scope s(tr, "workload.summarize", parent, iter);
      summary = churn->summarize();
    }
    const auto t_end = Clock::now();
    cell.reset();

    const double wall = seconds_between(t0, t_end);
    (traced ? b.traced_wall : b.samples["wall_s"]).push_back(wall);
    if (!traced) b.samples["setup_s"].push_back(seconds_between(t0, t_ramp));

    // Output checks.
    ++b.attempted;
    std::string why;
    const auto& link = net->bottleneck();
    if (!summary_finite(summary)) why = "non-finite metric";
    if (why.empty() && !(link.utilization() >= 0.0 && link.utilization() <= 1.0 + 1e-9)) {
      why = "bottleneck utilisation outside [0, 1]";
    }
    if (why.empty() && link.queue().accepted() != link.delivered()) {
      why = "queue accepted != link delivered";  // structural, see check_cell
    }
    // Conservation over the window. The link counts a packet when it admits
    // it, so it sends at most capacity × window plus one buffer inside it.
    // Receivers count at most that plus the packets in the queue and pipes
    // when the window opened: one path. Held out-of-order TCP packets are
    // left out of this allowance: over 16 seeds the receivers counted
    // 0.05-0.12 paths fewer than the link sent, and the allowance of
    // early_packets() would miss a 25% over-count of TCP goodput (+1.3 paths).
    const auto sent = static_cast<double>(link.delivered() - sent0);
    if (why.empty() &&
        sent > capacity_pps(sc) * kChurnSteadyS + static_cast<double>(buffer_packets(sc)) + 1.0) {
      why = "link sent faster than capacity in the window";
    }
    if (why.empty() && summary_goodput(summary) * kChurnSteadyS > sent + path_packets(sc)) {
      why = "receivers got more packets than the link sent in the window";
    }
    if (why.empty()) why = check_goodput_capacity(sc, summary_goodput(summary), kChurnSteadyS);
    if (why.empty() && static_cast<double>(summary.peak_flows) < 0.99 * kChurnSlots) {
      why = "pool never saturated (peak_flows " + std::to_string(summary.peak_flows) + ")";
    }
    if (why.empty() && (summary.completions == 0 || summary.rejections == 0)) {
      why = "saturated cell saw no completions or no rejections";
    }
    // The same seed must give the same cell on every repetition.
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%llu %llu %llu %llu %a %a %a %a %a %llu",
                  static_cast<unsigned long long>(sim->events_executed()),
                  static_cast<unsigned long long>(summary.arrivals),
                  static_cast<unsigned long long>(summary.completions),
                  static_cast<unsigned long long>(summary.rejections), summary.mean_flows,
                  summary.tfrc_goodput_pps, summary.tcp_goodput_pps, summary.tfrc_p,
                  summary.tcp_p, static_cast<unsigned long long>(link.queue().drops()));
    if (reference.empty()) {
      reference = buf;
      b.digest = hex64(fnv1a(buf));
    } else if (why.empty() && reference != buf) {
      why = "same seed, different cell across repetitions";
    }
    if (!why.empty()) {
      ++b.failed;
      b.fail("churn cell: " + why);
    }

    const double pops = static_cast<double>(sim->wheel_pops() + sim->heap_pops());
    m["sim.events"].push_back(static_cast<double>(sim->events_executed()));
    m["sim.wheel_share"].push_back(pops > 0 ? static_cast<double>(sim->wheel_pops()) / pops
                                            : 0.0);
    m["net.packets_delivered"].push_back(static_cast<double>(link.delivered()));
    m["net.drops"].push_back(static_cast<double>(link.queue().drops()));
    m["workload.completions"].push_back(static_cast<double>(summary.completions));
    m["workload.rejections"].push_back(static_cast<double>(summary.rejections));
    m["workload.peak_flows"].push_back(static_cast<double>(summary.peak_flows));
    if (iter == 0 || traced) {
      // Memory per slot from the first (fresh-heap) cell and traced cells;
      // later untraced cells may reuse pages the allocator kept.
      m["workload.bytes_per_slot"].push_back((rss1 - rss0) / kChurnSlots);
    }
    if (traced) {
      const auto steady_events = static_cast<double>(sim->events_executed() - e0);
      m["workload.construct_ms"].push_back(seconds_between(c0, c1) * 1e3);
      m["workload.ramp_s"].push_back(seconds_between(c1, t_ramp));
      m["workload.ramp_us_per_slot"].push_back(seconds_between(c1, t_ramp) * 1e6 / kChurnSlots);
      m["workload.steady_s"].push_back(seconds_between(s0, s1));
      m["sim.ns_per_event"].push_back(seconds_between(s0, s1) / steady_events * 1e9);
      // Span coverage: the cell's direct children against its wall time.
      double covered = 0.0;
      for (const auto& s : b.tracer->spans()) {
        if (s.rep != iter) continue;
        if (s.name == "workload.begin_epoch") {
          m["workload.begin_epoch_ms"].push_back((s.end - s.start) * 1e3);
        }
        if (s.name == "workload.summarize") {
          m["workload.summarize_ms"].push_back((s.end - s.start) * 1e3);
        }
        if (s.parent == parent) covered += s.end - s.start;
      }
      coverage.push_back(covered / wall);
    }
    // Teardown (outside wall_s), then hand freed pages back so the next
    // cell's RSS starts from the same floor.
    churn.reset();
    net.reset();
    sim.reset();
    malloc_trim(0);
  }

  if (b.args.trace) {
    const double cov = median(coverage);
    if (std::fabs(cov - 1.0) > 0.10) {
      ++b.failed;
      b.fail("churn spans cover " + std::to_string(cov) + " of wall_s (need within 10%)");
    }
  }
  m["trace.span_coverage"] = coverage;
  fold(b, m);
}

// ---- results ---------------------------------------------------------------

/// Per-layer figures the spans give directly (medians over traced iterations).
void span_metrics(Bench& b) {
  std::map<std::string, std::vector<double>> d;
  for (const auto& s : b.tracer->spans()) d[s.name].push_back(s.end - s.start);
  b.layer["testbed.cell_ms.p50"] = quantile(d["testbed.run_experiment"], 0.50) * 1e3;
  b.layer["testbed.cell_ms.p99"] = quantile(d["testbed.run_experiment"], 0.99) * 1e3;
  b.layer["testbed.cell_ms.max"] = quantile(d["testbed.run_experiment"], 1.0) * 1e3;
  b.layer["testbed.store_open_ms"] = median(d["testbed.store_open"]) * 1e3;
  b.layer["testbed.store_put_us"] = median(d["testbed.store_put"]) * 1e6;
  b.layer["testbed.store_get_us"] = median(d["testbed.store_get"]) * 1e6;
  b.layer["testbed.aggregate_ms"] = median(d["testbed.aggregate"]) * 1e3;
  if (!d["testbed.sweep"].empty()) {
    // Sweep coverage: the sweep span's direct children against its length.
    const auto self = self_times(b.tracer->spans());
    std::vector<double> cov;
    const auto& spans = b.tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != "testbed.sweep") continue;
      const double len = spans[i].end - spans[i].start;
      cov.push_back(len > 0 ? 1.0 - self[i] / len : 0.0);
    }
    b.layer["trace.span_coverage"] = median(cov);
  }
}

void write_trace(const Bench& b, const std::filesystem::path& path) {
  const auto& spans = b.tracer->spans();
  const auto self = self_times(spans);
  std::ofstream out(path);
  out << "{\"workload\":\"" << b.args.workload << "\",\"seed\":" << b.args.seed
      << ",\"spans\":[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    char line[320];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"self\":%.9f,"
                  "\"parent\":%d,\"workload\":\"%s\",\"rep\":%d,\"cell\":%ld}%s\n",
                  i, s.name.c_str(), s.start, s.end, self[i], s.parent,
                  b.args.workload.c_str(), s.rep, s.cell, i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

// Every per-layer metric with its unit, reported on every workload (0 where
// the layer is idle or cannot be separated on that workload; see NOTES.md).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"testbed.cell_ms.p50", "ms"},        {"testbed.cell_ms.p99", "ms"},
    {"testbed.cell_ms.max", "ms"},        {"testbed.worker_busy_frac", "ratio"},
    {"testbed.store_open_ms", "ms"},      {"testbed.store_put_us", "us"},
    {"testbed.store_get_us", "us"},       {"testbed.aggregate_ms", "ms"},
    {"testbed.replay_s", "s"},            {"testbed.persist_s", "s"},
    {"testbed.cells_failed", "count"},    {"testbed.cells_retried", "count"},
    {"testbed.store_corrupt", "count"},   {"sim.events", "count"},
    {"sim.wheel_share", "ratio"},         {"sim.ns_per_event", "ns"},
    {"net.packets_delivered", "count"},   {"net.drops", "count"},
    {"net.events_per_packet", "ratio"},   {"tfrc.cell_ms", "ms"},
    {"tcp.cell_ms", "ms"},                {"delay_aimd.cell_ms", "ms"},
    {"rcp.cell_ms", "ms"},                {"tfrc.events_per_cell", "count"},
    {"tcp.events_per_cell", "count"},     {"delay_aimd.events_per_cell", "count"},
    {"rcp.events_per_cell", "count"},     {"workload.construct_ms", "ms"},
    {"workload.ramp_s", "s"},             {"workload.ramp_us_per_slot", "us"},
    {"workload.bytes_per_slot", "B"},     {"workload.steady_s", "s"},
    {"workload.begin_epoch_ms", "ms"},    {"workload.summarize_ms", "ms"},
    {"workload.completions", "count"},    {"workload.rejections", "count"},
    {"workload.peak_flows", "count"},     {"trace.overhead_s", "s"},
    {"trace.span_coverage", "ratio"},     {"error_rate", "ratio"}};

int run(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build without NDEBUG (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Bench b;
  b.args = parse_args(argc, argv);
  b.scratch = b.args.work_dir / ("run-" + std::to_string(::getpid()));
  std::filesystem::remove_all(b.scratch);
  std::filesystem::create_directories(b.scratch);
  if (b.args.trace) b.tracer.emplace();

  std::printf(
      "env {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,\"trace\":%d,\"nproc\":%u,"
      "\"jobs\":%zu,\"compiler\":\"%s\",\"build_type\":\"%s\",\"ndebug\":true,"
      "\"store_fs\":\"%s\"}\n",
      b.args.workload.c_str(), static_cast<unsigned long long>(b.args.seed),
      number(b.args.seconds).c_str(), b.args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      sweep_jobs(), compiler().c_str(), PERFBENCH_BUILD_TYPE, filesystem_of(b.scratch).c_str());

  if (b.args.workload == "lab_sweep") {
    run_sweep(b, SweepSpec{lab_batch, 1});
  } else if (b.args.workload == "zoo_cells") {
    run_sweep(b, SweepSpec{zoo_batch, kZooWarmPasses});
  } else {
    run_churn(b);
  }
  std::filesystem::remove_all(b.scratch);

  const double error_rate =
      b.attempted > 0 ? static_cast<double>(b.failed) / static_cast<double>(b.attempted) : 1.0;
  for (const auto& d : b.diagnostics) std::printf("check failed: %s\n", d.c_str());
  std::printf("digest %s %s\n", b.args.workload.c_str(), b.digest.c_str());

  std::string metrics;
  auto add = [&](const std::string& name, double v, const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(v) + ", \"unit\": \"" + unit + "\"}";
  };
  if (b.args.trace) {
    span_metrics(b);
    b.layer["trace.overhead_s"] = median(b.traced_wall) - median(b.samples["wall_s"]);
    b.layer["testbed.cells_failed"] = static_cast<double>(b.failed);
    b.layer["error_rate"] = error_rate;
    const auto path = b.args.work_dir / ("trace-" + b.args.workload + "-seed" +
                                         std::to_string(b.args.seed) + ".json");
    write_trace(b, path);
    std::printf("trace %s (%zu spans)\n", path.c_str(), b.tracer->spans().size());
    for (const auto& [name, unit] : kLayerMetrics) {
      const double v = b.layer[name];
      std::printf("layer %-28s %14.6g %s\n", name, v, unit);
      add(name, v, unit);
    }
  } else {
    for (const auto& [name, v] : b.samples) {
      std::printf("samples %s", name.c_str());
      for (const double x : v) std::printf(" %.6g", x);
      std::printf("\n");
    }
    const double wall = median(b.samples["wall_s"]);
    const double setup = median(b.samples["setup_s"]);
    const double rss_mb = peak_rss_bytes() / (1024.0 * 1024.0);
    std::printf("e2e %s wall_s=%.4f s (n=%zu) setup_s=%.6f s (n=%zu) peak_rss_mb=%.1f MB "
                "error_rate=%.6f (%llu/%llu)",
                b.args.workload.c_str(), wall, b.samples["wall_s"].size(), setup,
                b.samples["setup_s"].size(), rss_mb, error_rate,
                static_cast<unsigned long long>(b.failed),
                static_cast<unsigned long long>(b.attempted));
    if (b.args.workload == "zoo_cells") {
      std::printf(" replay_s=%.5f s (per-layer; not gated)", b.layer["testbed.replay_s"]);
    }
    std::printf("\n");
    add("wall_s", wall, "s");
    add("setup_s", setup, "s");
    add("peak_rss_mb", rss_mb, "MB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              b.failed == 0 ? "true" : "false", static_cast<unsigned long long>(b.attempted),
              static_cast<unsigned long long>(b.failed), metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
