// Long-run behavior under flow churn — the first driver on the dynamic
// workload subsystem (src/workload/), probing the regime every figure in the
// paper holds fixed: the flow population itself.
//
// Science mode (default): an offered-load sweep of churn scenarios (Poisson
// arrivals of finite transfers, 50/50 TFRC:TCP, 128-slot pool) through the
// sweep persistence layer — per-cell derived seeds, --cache warm runs are
// simulation-free and bit-identical, --shard-index/--shard-count split the
// grid. Reports the population (time-averaged and peak concurrent flows,
// rejections), the per-class mean completion times and their CoV, the
// long-run TFRC goodput share, and the per-class loss-event rates. The same
// batch carries a common-random-number TFRC-vs-TCP contrast: an all-TFRC and
// an all-TCP workload paired on identical derived seeds (identical arrival
// times, transfer sizes, think times — replicate_paired), folded with
// testbed::paired_difference into paired mean/CI estimates.
//
// Engine mode (--engine): the many-flows perf point. Saturates pools of
// 100 / 300 / 1000 / 10k / 100k slots under overload (--pools overrides the
// list; a 1M-slot point is supported but stays local/manual) and measures
// kernel events per wall-clock second end to end (arrivals, pool recycling,
// protocol timers, packet path), best of --reps slices; writes
// BENCH_workload.json for the perf trajectory next to BENCH_kernel.json and
// BENCH_net.json, including the wheel-vs-heap pop split of the timing-wheel
// kernel and the pool's memory: peak RSS (VmHWM, reset before each pool)
// and bytes per slot (RSS growth from before construction to the end of the
// warm-up, over the pool size; pools under 10k slots print n/a and omit the
// key). Wall-clock numbers are NOT bit-stable, which
// is why this lives behind a flag: science mode's stdout must stay
// byte-comparable across cold/warm/sharded runs.
//
//   ./bench_churn_longrun [--full] [--reps=N] [--jobs=N] [--seed=N]
//                         [--duration=S] [--cache=DIR] [--shard-index/-count]
//                         [--scenario=FILE] [--csv=path]
//   ./bench_churn_longrun --engine [--duration=S] [--reps=N] [--seed=N]
//                         [--pools=100,300,...] [--out=BENCH_workload.json]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.hpp"
#include "net/dumbbell.hpp"
#include "net/queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"
#include "workload/flow_manager.hpp"

namespace {

using namespace ebrc;
using Clock = std::chrono::steady_clock;

// Below this many slots the RSS growth per slot is allocator noise (three
// identical 100-slot runs read 5.8, 5.8 and 15.1 KB), so it is not reported.
constexpr int kMinPoolForBytesPerSlot = 10000;

struct EngineResult {
  std::string name;
  std::uint64_t events = 0;        // best slice
  double events_per_sec = 0.0;     // wall-clock, best of reps
  std::uint64_t peak_flows = 0;
  std::uint64_t completions = 0;
  double utilization = 0.0;
  std::uint64_t wheel_pops = 0;    // timing-wheel vs heap split of the kernel pops
  std::uint64_t heap_pops = 0;
  double peak_rss_mb = 0.0;        // VmHWM over construction, warm-up and window
  // RSS growth through the warm-up / pool size; pools >= kMinPoolForBytesPerSlot
  std::optional<double> bytes_per_slot;
};

/// A "Vm..." field of /proc/self/status in bytes (0 where unavailable).
double proc_status_bytes(const std::string& key) {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, key.size(), key) == 0 && line.size() > key.size() &&
        line[key.size()] == ':') {
      return std::stod(line.substr(key.size() + 1)) * 1024.0;  // the kernel reports kB
    }
  }
  return 0.0;
}

/// Returns freed heap pages to the kernel and restarts the VmHWM watermark
/// at the current RSS, so the next pool's memory is measured on its own.
void reset_memory_watermark() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

EngineResult run_engine_workload(int pool, double seconds, std::uint64_t seed, int reps) {
  EngineResult out;
  out.name = "churn_" + std::to_string(pool);
  const double warmup = seconds / 3.0;
  for (int rep = 0; rep < reps; ++rep) {
    reset_memory_watermark();
    const double rss0 = proc_status_bytes("VmRSS");
    testbed::Scenario sc = testbed::churn_scenario(/*offered_load=*/1.5, /*tfrc_fraction=*/0.5,
                                                   seed + static_cast<std::uint64_t>(rep));
    sc.workload.max_concurrent = pool;
    // The bench measures events/sec AT a target concurrency: arrivals must
    // fill the pool inside the warm-up, not ride rho = 1.5's natural ramp
    // (~9 flows/s). Once full, rejections hold the population at the cap.
    sc.workload.arrival_rate_per_s =
        std::max(sc.workload.arrival_rate_per_s, 3.0 * pool / warmup);

    sim::Simulator sim;
    // Every active flow keeps a few deliveries/timers pending; pre-size the
    // kernel (heap, slab, wheel buckets) so the ramp never regrows them.
    sim.reserve(4 * static_cast<std::size_t>(pool));
    net::Dumbbell net(sim,
                      net::Queue::red(net::red_params_for_bdp(sc.bottleneck_bps, sc.base_rtt_s,
                                                              sc.tfrc.packet_bytes),
                                      sim::hash_seed(sc.seed, "red")),
                      sc.bottleneck_bps, 0.001);
    workload::FlowManagerConfig wcfg;
    wcfg.workload = sc.workload;
    wcfg.tfrc = sc.tfrc;
    wcfg.tcp = sc.tcp;
    wcfg.base_rtt_s = sc.base_rtt_s;
    wcfg.rtt_spread = sc.rtt_spread;
    wcfg.drain_s = 0.5;
    wcfg.seed = sim::hash_seed(sc.seed, "workload");
    workload::FlowManager churn(net, wcfg);
    churn.start(0.0);

    // Warm-up until the pool saturates, then measure a wall-clocked window.
    sim.run_until(warmup);
    const double rss1 = proc_status_bytes("VmRSS");
    churn.begin_epoch();
    const std::uint64_t events0 = sim.events_executed();
    const std::uint64_t wheel0 = sim.wheel_pops();
    const std::uint64_t heap0 = sim.heap_pops();
    const auto t0 = Clock::now();
    sim.run_until(warmup + seconds);
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

    const std::uint64_t events = sim.events_executed() - events0;
    const double eps = static_cast<double>(events) / wall;
    if (eps > out.events_per_sec) {
      out.events_per_sec = eps;
      out.events = events;
      const auto summary = churn.summarize();
      out.peak_flows = summary.peak_flows;
      out.completions = summary.completions;
      out.utilization = net.bottleneck().utilization();
      out.wheel_pops = sim.wheel_pops() - wheel0;
      out.heap_pops = sim.heap_pops() - heap0;
      out.peak_rss_mb = proc_status_bytes("VmHWM") / (1024.0 * 1024.0);
      if (pool >= kMinPoolForBytesPerSlot) out.bytes_per_slot = (rss1 - rss0) / pool;
    }
  }
  return out;
}

void write_engine_json(const std::string& path, double seconds, int reps,
                       const std::vector<EngineResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[json] cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"churn_longrun\",\n");
#ifdef NDEBUG
  std::fprintf(f, "  \"build\": \"release\",\n");
#else
  std::fprintf(f, "  \"build\": \"debug\",\n");
#endif
  std::fprintf(f, "  \"sim_seconds_per_workload\": %.1f,\n  \"repetitions\": %d,\n", seconds,
               reps);
  std::fprintf(f, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, \"events_per_sec\": %.0f, "
                 "\"peak_flows\": %llu, \"completions\": %llu, \"utilization\": %.3f, "
                 "\"wheel_pops\": %llu, \"heap_pops\": %llu, \"peak_rss_mb\": %.1f",
                 r.name.c_str(), static_cast<unsigned long long>(r.events), r.events_per_sec,
                 static_cast<unsigned long long>(r.peak_flows),
                 static_cast<unsigned long long>(r.completions), r.utilization,
                 static_cast<unsigned long long>(r.wheel_pops),
                 static_cast<unsigned long long>(r.heap_pops), r.peak_rss_mb);
    if (r.bytes_per_slot) std::fprintf(f, ", \"bytes_per_slot\": %.0f", *r.bytes_per_slot);
    std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] wrote %s\n", path.c_str());
}

int run_engine_mode(const bench::BenchArgs& args, const std::string& out_path,
                    const std::vector<int>& pools) {
  const double seconds = args.seconds(10.0, 40.0);
  std::printf("many-flows engine benchmark: %.0f sim-seconds/pool, best of %d\n\n", seconds,
              args.reps);
  std::vector<EngineResult> results;
  for (int pool : pools) {
    // Sim-time scales DOWN as the pool scales up: the measured quantity is
    // wall-clock events/s, and a 100k-slot pool emits more kernel events in
    // one sim-second than a 100-slot pool does in a hundred. One rep past
    // 100k — the ramp (connection wiring) dominates wall time there.
    const double window = pool <= 1000 ? seconds : std::max(1.0, seconds * 1000.0 / pool);
    const int reps = pool >= 100000 ? 1 : args.reps;
    results.push_back(run_engine_workload(pool, window, args.seed, reps));
  }
  util::Table t({"pool", "events/s", "events", "peak flows", "completions", "util",
                 "wheel share", "peak RSS MB", "B/slot"});
  for (const auto& r : results) {
    const double pops = static_cast<double>(r.wheel_pops + r.heap_pops);
    t.row({r.name, util::fmt(r.events_per_sec, 6), util::fmt(static_cast<double>(r.events), 6),
           util::fmt(static_cast<double>(r.peak_flows), 4),
           util::fmt(static_cast<double>(r.completions), 5), util::fmt(r.utilization, 3),
           util::fmt(pops > 0 ? static_cast<double>(r.wheel_pops) / pops : 0.0, 3),
           util::fmt(r.peak_rss_mb, 5),
           r.bytes_per_slot ? util::fmt(*r.bytes_per_slot, 5) : std::string("n/a")});
  }
  t.print();
  write_engine_json(out_path, seconds, args.reps, results);
  return 0;
}

std::vector<int> parse_pools(const std::string& flag) {
  if (flag.empty()) return {100, 300, 1000, 10000, 100000};  // 1M: --pools=1e6
  // Whole-token 64-bit parse (accepts integral scientific notation like 1e6,
  // rejects garbage and non-positive values by naming the bad token).
  const auto parsed = util::parse_positive_int_list("pools", flag);
  std::vector<int> pools;
  pools.reserve(parsed.size());
  for (const std::int64_t v : parsed) {
    if (v > 100'000'000) {
      throw std::runtime_error("flag --pools: pool size " + std::to_string(v) +
                               " exceeds the 1e8 slot ceiling");
    }
    pools.push_back(static_cast<int>(v));
  }
  return pools;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ebrc;
  bench::BenchArgs args(argc, argv, bench::kSweepFlags);
  args.cli.know("engine").know("out").know("pools");
  const bool engine = args.cli.get("engine", false);
  const std::string out_path = args.cli.get("out", std::string("BENCH_workload.json"));
  const std::vector<int> pools = parse_pools(args.cli.get("pools", std::string{}));
  args.cli.finish();
  bench::banner("Churn long-run",
                "TFRC vs TCP under flow churn (dynamic workload subsystem)");
  bench::batch_note(args);
  if (engine) return run_engine_mode(args, out_path, pools);
  if (bench::run_scenario_file(args)) return 0;

  const std::vector<double> loads = args.full
                                        ? std::vector<double>{0.4, 0.6, 0.8, 0.95, 1.1, 1.3}
                                        : std::vector<double>{0.5, 0.8, 1.2};
  const double duration = args.seconds(60.0, 600.0);

  // One flat batch: the offered-load grid, then the two CRN contrast arms —
  // a single run_sweep pass so cache, shards, and the roundtrip ctest see
  // one [cache]/[shard] accounting line.
  std::vector<testbed::Scenario> batch;
  for (double rho : loads) {
    auto base = testbed::churn_scenario(rho, /*tfrc_fraction=*/0.5, /*seed=*/0);
    base.duration_s = duration;
    base.warmup_s = duration / 6.0;
    const auto runs = testbed::replicate(base, args.seed, args.reps);
    batch.insert(batch.end(), runs.begin(), runs.end());
  }
  auto all_tfrc = testbed::churn_scenario(0.8, /*tfrc_fraction=*/1.0, /*seed=*/0);
  auto all_tcp = testbed::churn_scenario(0.8, /*tfrc_fraction=*/0.0, /*seed=*/0);
  for (auto* s : {&all_tfrc, &all_tcp}) {
    s->duration_s = duration;
    s->warmup_s = duration / 6.0;
  }
  const auto paired =
      testbed::replicate_paired(all_tfrc, all_tcp, "churn-crn", args.seed, args.reps);
  const std::size_t grid_cells = batch.size();
  batch.insert(batch.end(), paired.a.begin(), paired.a.end());
  batch.insert(batch.end(), paired.b.begin(), paired.b.end());

  const auto sweep = bench::run_sweep(args, batch);
  if (!sweep.complete()) return 0;
  const auto& results = sweep.results;

  // --- the offered-load sweep -------------------------------------------
  util::Table t({"rho", "arrivals", "rejected", "mean flows", "peak", "tfrc share",
                 "T(tfrc) s", "T(tcp) s", "cov(tfrc)", "cov(tcp)", "p'/p"});
  std::vector<std::vector<double>> csv_rows;
  std::size_t idx = 0;
  for (double rho : loads) {
    stats::OnlineMoments arrivals, rejected, flows, peak, share, t_tfrc, t_tcp, cov_tfrc,
        cov_tcp, p_ratio;
    for (int rep = 0; rep < args.reps; ++rep) {
      const auto& wl = results[idx++].workload;
      arrivals.add(static_cast<double>(wl.arrivals));
      rejected.add(static_cast<double>(wl.rejections));
      flows.add(wl.mean_flows);
      peak.add(static_cast<double>(wl.peak_flows));
      share.add(wl.tfrc_share);
      t_tfrc.add(wl.tfrc_completion_s);
      t_tcp.add(wl.tcp_completion_s);
      cov_tfrc.add(wl.tfrc_completion_cov);
      cov_tcp.add(wl.tcp_completion_cov);
      if (wl.tfrc_p > 0) p_ratio.add(wl.tcp_p / wl.tfrc_p);
    }
    t.row({rho, arrivals.mean(), rejected.mean(), flows.mean(), peak.mean(), share.mean(),
           t_tfrc.mean(), t_tcp.mean(), cov_tfrc.mean(), cov_tcp.mean(), p_ratio.mean()});
    csv_rows.push_back({rho, arrivals.mean(), rejected.mean(), flows.mean(), peak.mean(),
                        share.mean(), t_tfrc.mean(), t_tcp.mean(), cov_tfrc.mean(),
                        cov_tcp.mean(), p_ratio.mean()});
  }
  t.print("\nOffered-load sweep (Poisson arrivals, exp sizes, 50/50 TFRC:TCP):");

  // --- the CRN TFRC-vs-TCP contrast -------------------------------------
  const std::vector<testbed::ExperimentResult> arm_a(
      results.begin() + static_cast<long>(grid_cells),
      results.begin() + static_cast<long>(grid_cells + paired.a.size()));
  const std::vector<testbed::ExperimentResult> arm_b(
      results.begin() + static_cast<long>(grid_cells + paired.a.size()), results.end());
  const auto diff = testbed::paired_difference(arm_a, arm_b);

  // The protocol-level contrast crosses metric keys (arm A's transfers are
  // all TFRC, arm B's all TCP), so fold it by hand on the same pairs.
  stats::OnlineMoments completion_diff, goodput_diff;
  for (std::size_t i = 0; i < arm_a.size(); ++i) {
    completion_diff.add(arm_a[i].workload.tfrc_completion_s -
                        arm_b[i].workload.tcp_completion_s);
    goodput_diff.add(arm_a[i].workload.tfrc_goodput_pps - arm_b[i].workload.tcp_goodput_pps);
  }
  util::Table c({"contrast (all-TFRC − all-TCP)", "mean diff", "ci95"});
  c.row({std::string("completion time (s)"), util::fmt(completion_diff.mean(), 5),
         util::fmt(completion_diff.ci_halfwidth(), 3)});
  c.row({std::string("goodput (pkt/s)"), util::fmt(goodput_diff.mean(), 5),
         util::fmt(goodput_diff.ci_halfwidth(), 3)});
  c.row({std::string("bottleneck utilization"),
         util::fmt(diff.metric("bottleneck_utilization").mean(), 5),
         util::fmt(diff.ci("bottleneck_utilization"), 3)});
  c.row({std::string("mean concurrent flows"), util::fmt(diff.metric("wl_mean_flows").mean(), 5),
         util::fmt(diff.ci("wl_mean_flows"), 3)});
  c.row({std::string("completions"), util::fmt(diff.metric("wl_completions").mean(), 5),
         util::fmt(diff.ci("wl_completions"), 3)});
  c.print("\nCommon-random-number contrast at rho = 0.8 (paired on identical "
          "arrival/size/think draws):");

  std::cout << "\nWhat to look for: under light churn the TFRC share tracks the arrival mix;\n"
            << "as rho crosses 1 the pool saturates (peak hits the 128-slot cap, rejections\n"
            << "appear) and TCP's retransmission-driven completions slow more than TFRC's\n"
            << "paced streams — the population dynamics the static figures cannot show.\n";
  bench::maybe_csv(args,
                   {"rho", "arrivals", "rejected", "mean_flows", "peak", "tfrc_share",
                    "t_tfrc_s", "t_tcp_s", "cov_tfrc", "cov_tcp", "p_ratio"},
                   csv_rows);
  // Last, so the figure output stays a byte-exact prefix of a probed run's.
  bench::print_probe_series(args, sweep);  // no-op unless --probe-interval set
  return 0;
}
