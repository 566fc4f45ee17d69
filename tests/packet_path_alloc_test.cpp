// The acceptance gate for the zero-allocation packet path: once a topology
// is warmed up (rings at steady capacity, slab and heap reserved, RTT
// estimates settled), forwarding packets must allocate NOTHING — the test
// binary overrides global operator new with a counting shim and asserts an
// exact zero over a measurement window on the pure forwarding path, plus
// zero InlineFunction heap fallbacks and a near-zero amortized total for the
// full TFRC/TCP protocol stack (whose loss-interval SERIES, recorded for
// post-analysis, grows amortized-geometrically by design).
//
// Also pins the event economics the self-clocking pipes promise: a data
// packet costs two simulator events end to end (the sender's emission event,
// inside which bottleneck admission resolves on the virtual clock, plus the
// tail pipe's delivery), where the old layout paid four.
//
// And the per-flow memory budget of the many-flows regime: a dumbbell flow's
// delay pipes allocate their packet rings only when the first packet is
// staged, so adding a flow costs a fixed ~170 bytes however large the pool
// grows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "net/dumbbell.hpp"
#include "net/probe_senders.hpp"
#include "net/queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "tfrc/tfrc_connection.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::uint64_t> g_new_bytes{0};
// The smallest ring a pipe can hold: RingBuffer's 16-entry first allocation
// of (Packet + 8-B delivery time) records.
constexpr std::size_t kMinRingBytes = 16 * (sizeof(ebrc::net::Packet) + sizeof(double));
// Allocations at least that large.
std::atomic<std::uint64_t> g_ring_sized_news{0};

void count_new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  g_new_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n >= kMinRingBytes) g_ring_sized_news.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t n) {
  count_new(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  count_new(n);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace ebrc;

TEST(PacketPathAlloc, ForwardingPathIsExactlyZeroAllocSteadyState) {
  sim::Simulator sim;
  // Two CBR probes at 99% of link capacity: the bottleneck serializes
  // back-to-back and its ring wraps on every packet, with no losses (a loss
  // event would append to the probes' recorded interval series, which is
  // measurement state, not forwarding state — the congested case is covered
  // with an amortized bound below).
  net::Dumbbell net(sim, net::Queue::drop_tail(32), 1e6, 0.001);
  const int a = net.add_flow(0.004, 0.005);
  const int b = net.add_flow(0.009, 0.010);
  net::ProbeSender p1(net, a, 62.0, 1000.0, net::ProbePattern::kCbr, 0.05, 3);
  net::ProbeSender p2(net, b, 62.0, 1000.0, net::ProbePattern::kCbr, 0.05, 4);
  p1.start(0.0);
  p2.start(0.1037);  // offset phases so arrivals interleave
  sim.run_until(20.0);  // warm-up: rings, slab, heap all reach steady size

  const std::uint64_t news0 = g_news.load(std::memory_order_relaxed);
  const std::uint64_t if0 = sim::inline_function_heap_allocs();
  const std::uint64_t delivered0 = net.bottleneck().delivered();
  const std::uint64_t events0 = sim.events_executed();
  const std::uint64_t sent0 = p1.sent() + p2.sent();

  sim.run_until(80.0);

  const std::uint64_t forwarded = net.bottleneck().delivered() - delivered0;
  EXPECT_GT(forwarded, 7000u);  // the window moved real traffic
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - news0, 0u)
      << "steady-state forwarding must not touch the heap";
  EXPECT_EQ(sim::inline_function_heap_allocs() - if0, 0u);
  // Event economics: per packet one pacing event (bottleneck admission
  // resolves inline in it) + one tail-pipe delivery — exactly 2, where the
  // pre-overhaul layout paid 4 (pacing + access + serialization-finish +
  // delivery).
  const double events_per_packet =
      static_cast<double>(sim.events_executed() - events0) /
      static_cast<double>(p1.sent() + p2.sent() - sent0);
  EXPECT_NEAR(events_per_packet, 2.0, 0.05);
}

TEST(PacketPathAlloc, TfrcTcpStackZeroInlineFallbacksAndAmortizedTotal) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::red(net::red_params_for_bdp(15e6, 0.05), 7), 15e6,
                    0.001);
  std::deque<tfrc::TfrcConnection> tfrcs;
  std::deque<tcp::TcpConnection> tcps;
  for (int i = 0; i < 2; ++i) {
    const int id = net.add_flow(0.024, 0.025);
    tfrcs.emplace_back(net, id, 0.050).start(0.05 * i);
  }
  for (int i = 0; i < 2; ++i) {
    const int id = net.add_flow(0.024, 0.025);
    tcps.emplace_back(net, id, 0.050).start(0.025 + 0.05 * i);
  }
  sim.run_until(30.0);

  const std::uint64_t news0 = g_news.load(std::memory_order_relaxed);
  const std::uint64_t if0 = sim::inline_function_heap_allocs();
  const std::uint64_t delivered0 = net.bottleneck().delivered();

  sim.run_until(90.0);

  const std::uint64_t forwarded = net.bottleneck().delivered() - delivered0;
  EXPECT_GT(forwarded, 50000u);
  // No event closure on the protocol stack may outgrow its inline buffer.
  EXPECT_EQ(sim::inline_function_heap_allocs() - if0, 0u);
  // The only remaining heap activity is the amortized growth of the recorded
  // loss-interval SERIES (kept deliberately for post-run covariance
  // analysis): a handful of vector regrowths per minute, invisible per
  // packet.
  const double allocs_per_packet =
      static_cast<double>(g_news.load(std::memory_order_relaxed) - news0) /
      static_cast<double>(forwarded);
  EXPECT_LT(allocs_per_packet, 0.005);
}

TEST(PacketPathAlloc, FlowPipesAllocateTheirRingsOnFirstPacket) {
  sim::Simulator sim;
  sim.reserve(64);  // the kernel's own containers stay out of the count
  net::Dumbbell net(sim, net::Queue::drop_tail(32), 1e6, 0.001);
  constexpr int kFlows = 64;
  const std::uint64_t ring_sized0 = g_ring_sized_news.load(std::memory_order_relaxed);
  for (int i = 0; i < kFlows; ++i) net.add_flow(0.004, 0.005);
  // The flows' own records and the deque blocks holding them are all smaller
  // than a ring; a pipe that pre-sized its ring would show up here.
  EXPECT_EQ(g_ring_sized_news.load(std::memory_order_relaxed) - ring_sized0, 0u)
      << "a flow allocated a pipe ring before its first packet";

  int delivered = 0;
  int acked = 0;
  const int id = kFlows / 2;
  net.on_data_at_receiver(id, [&](const net::Packet& p) {
    ++delivered;
    net::Packet ack;
    ack.kind = net::PacketKind::kAck;
    ack.ack = {p.seq, p.send_time};
    net.send_back(id, ack);
  });
  net.on_packet_at_sender(id, [&](const net::Packet&) { ++acked; });
  net::Packet p;
  p.size_bytes = 1000;

  // The first data packet allocates the tail ring, and its ack the reverse
  // ring: the only allocations of the round trip.
  const std::uint64_t news1 = g_news.load(std::memory_order_relaxed);
  const std::uint64_t bytes1 = g_new_bytes.load(std::memory_order_relaxed);
  net.send_data(id, p);
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(acked, 1);
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - news1, 2u);
  EXPECT_GE(g_new_bytes.load(std::memory_order_relaxed) - bytes1, 2 * kMinRingBytes);

  // Later packets on the same flow reuse both rings.
  const std::uint64_t news2 = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) {
    p.seq = i + 1;
    net.send_data(id, p);
  }
  sim.run();
  EXPECT_EQ(delivered, 9);
  EXPECT_EQ(acked, 9);
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - news2, 0u);
}

TEST(PacketPathAlloc, AddFlowStaysWithinPerFlowByteBudget) {
  // Measured on libstdc++ (x86-64): 128 B of dumbbell Flow plus two 16-B
  // pinned delivery closures, with the deques' block and map overhead on
  // top — 170.2 B per flow. The budget is that plus 25%. A pre-sized ring
  // per pipe (2 x 1 KB and up) breaks it, and so does a Flow grown past
  // 128 B (libstdc++ stores four per 512-B deque block) or a pinned closure
  // back at the kernel's 64-B EventFn.
  constexpr std::uint64_t kBudgetBytesPerFlow = 213;
  constexpr int kFlows = 10000;
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(32), 1e6, 0.001);
  const std::uint64_t bytes0 = g_new_bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < kFlows; ++i) net.add_flow(0.004, 0.005);
  const double per_flow =
      static_cast<double>(g_new_bytes.load(std::memory_order_relaxed) - bytes0) / kFlows;
  EXPECT_LE(per_flow, static_cast<double>(kBudgetBytesPerFlow));
  std::printf("add_flow: %.1f B per flow (budget %llu)\n", per_flow,
              static_cast<unsigned long long>(kBudgetBytesPerFlow));
}

}  // namespace
