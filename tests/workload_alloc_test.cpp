// Lifecycle-hygiene gate for the flow pool: churn is the first subsystem
// that constructs and retires connections on the hot path, so this binary
// overrides global operator new with a counting shim (same harness as
// packet_path_alloc_test) and asserts the pool's steady-state contract:
//
//   * once every slot has served both traffic classes, spawning/retiring
//     hundreds more flows performs (amortized) zero heap allocations — slot
//     recycling is open()/close() state rewinds, never construction,
//   * no pinned kernel callbacks are registered per arrival (pins are
//     permanent, so a per-flow pin is a leak by definition),
//   * retirement leaks no timers or event chains: after stop() the kernel
//     drains COMPLETELY, and the pending-event census stays flat across
//     measurement windows while churn runs,
//   * a saturated pool costs a bounded number of live heap bytes per slot.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "net/dumbbell.hpp"
#include "net/queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/simulator.hpp"
#include "workload/flow_manager.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
// Live heap bytes as the allocator sized the blocks (malloc_usable_size),
// so frees are subtracted exactly.
std::atomic<std::int64_t> g_live_bytes{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}
void uncounted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted(std::malloc(n ? n : 1)); }
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted(std::aligned_alloc(static_cast<std::size_t>(al),
                                    (n + static_cast<std::size_t>(al) - 1) &
                                        ~(static_cast<std::size_t>(al) - 1)));
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { uncounted_free(p); }
void operator delete[](void* p) noexcept { uncounted_free(p); }
void operator delete(void* p, std::size_t) noexcept { uncounted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { uncounted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { uncounted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { uncounted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { uncounted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { uncounted_free(p); }

namespace {

using namespace ebrc;

workload::FlowManagerConfig churn_config() {
  workload::FlowManagerConfig cfg;
  cfg.workload.arrival_rate_per_s = 30.0;
  cfg.workload.mean_size_pkts = 40.0;
  cfg.workload.max_concurrent = 8;
  cfg.base_rtt_s = 0.050;
  cfg.drain_s = 0.3;
  cfg.seed = 17;
  return cfg;
}

TEST(WorkloadAlloc, SteadyStateChurnIsAmortizedZeroAllocAndPinFlat) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 8e6, 0.001);
  workload::FlowManager mgr(net, churn_config());
  mgr.start(0.0);

  // Warm-up: with ~30 arrivals/s through an 8-slot pool, every slot has
  // served both classes many times over — all connections, dumbbell flows,
  // rings, and vector capacities exist.
  sim.run_until(60.0);
  mgr.begin_epoch();

  const std::uint64_t news0 = g_news.load(std::memory_order_relaxed);
  const std::uint64_t inline0 = sim::inline_function_heap_allocs();
  const std::uint64_t pins0 = sim.pinned_callbacks();
  const std::size_t queue0 = sim.queue_size();

  sim.run_until(180.0);

  const auto summary = mgr.summarize();
  ASSERT_GT(summary.completions, 400u) << "the window must churn real flows";

  // No pins per arrival, ever: the census is identical, not merely close.
  EXPECT_EQ(sim.pinned_callbacks(), pins0);
  // No inline-function spills: every lifecycle closure fits its buffer.
  EXPECT_EQ(sim::inline_function_heap_allocs() - inline0, 0u);
  // Amortized zero heap traffic per retired flow. The only allowed residue
  // is the geometric regrowth of the per-slot loss-interval SERIES kept for
  // post-run analysis; per completed transfer it must vanish.
  const double allocs_per_completion =
      static_cast<double>(g_news.load(std::memory_order_relaxed) - news0) /
      static_cast<double>(summary.completions);
  EXPECT_LT(allocs_per_completion, 0.05);
  // The pending-event census stays bounded: dead chains are collected, so a
  // tripled horizon may not triple the heap (allow slack for phase noise).
  EXPECT_LT(sim.queue_size(), queue0 * 3 + 64);
}

TEST(WorkloadAlloc, RetirementLeaksNoTimersKernelDrainsCompletely) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 8e6, 0.001);
  workload::FlowManager mgr(net, churn_config());
  mgr.start(0.0);
  sim.run_until(30.0);
  mgr.stop();  // arrival chain dies; active transfers run out

  // If any retired connection leaked a live timer or an immortal pinned
  // chain, run() would never return (or leave events pending).
  sim.run();
  EXPECT_EQ(sim.queue_size(), 0u);
  EXPECT_EQ(mgr.active_flows(), 0) << "every admitted transfer must retire";

  // And the pool's connections are all idle, ready for a next epoch.
  const auto summary = mgr.summarize();
  EXPECT_EQ(summary.arrivals, summary.completions);
}

TEST(WorkloadAlloc, SaturatedPoolStaysWithinPerSlotByteBudget) {
  // A mixed TFRC/TCP pool of 10k slots, ramped the way the churn benchmark
  // ramps its cells (arrivals at 3 x slots per 2 s, RED at the bandwidth-
  // delay product) until the first arrival finds it full. Everything the
  // ramp leaves live on the heap is charged to the slots: the slot records,
  // the connections and their epoch snapshots, the dumbbell flows and their
  // pinned closures, the rings of pipes that carried a packet, the pending
  // events, and the timing wheel's one-off seed.
  //
  // Measured on libstdc++ (x86-64, glibc): 1,207 B per slot. The layout
  // before this budget — 24 + 4 x 56 B slot records, 64-B pinned closures,
  // 128-B pipes, a formula object and a weight vector per TFRC connection,
  // and loss series nothing read — measured 1,834 B. The budget is the
  // measurement plus 25%.
  constexpr double kBudgetBytesPerSlot = 1509.0;
  constexpr int kSlots = 10000;
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::red(net::red_params_for_bdp(15e6, 0.05), 7), 15e6,
                    0.001);
  const std::int64_t live0 = g_live_bytes.load(std::memory_order_relaxed);

  workload::FlowManagerConfig cfg;
  cfg.workload.arrival_rate_per_s = 3.0 * kSlots / 2.0;
  cfg.workload.mean_size_pkts = 100.0;
  cfg.workload.tfrc_fraction = 0.5;
  cfg.workload.max_concurrent = kSlots;
  cfg.base_rtt_s = 0.050;
  cfg.drain_s = 0.5;
  cfg.seed = 23;
  workload::FlowManager mgr(net, cfg);
  mgr.start(0.0);
  double t = 0.0;
  while (mgr.population().rejections() == 0 && t < 10.0) sim.run_until(t += 0.05);
  ASSERT_GT(mgr.population().rejections(), 0u) << "the pool must saturate";
  ASSERT_EQ(mgr.pool_slots(), static_cast<std::size_t>(kSlots));

  const double per_slot =
      static_cast<double>(g_live_bytes.load(std::memory_order_relaxed) - live0) / kSlots;
  EXPECT_LE(per_slot, kBudgetBytesPerSlot);
  std::printf("saturated pool: %.1f B per slot (budget %.0f)\n", per_slot, kBudgetBytesPerSlot);
}

}  // namespace
