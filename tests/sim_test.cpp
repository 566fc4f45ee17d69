#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/online.hpp"

namespace {

using ebrc::sim::EventHandle;
using ebrc::sim::Rng;
using ebrc::sim::Simulator;

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(3.0, [&] { order.push_back(3); });
  s.schedule(1.0, [&] { order.push_back(1); });
  s.schedule(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulator, FifoTieBreakAtEqualTimes) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelledEventNeverFires) {
  Simulator s;
  bool fired = false;
  EventHandle h = s.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Simulator, RunUntilStopsTheClock) {
  Simulator s;
  int count = 0;
  s.schedule(1.0, [&] { ++count; });
  s.schedule(5.0, [&] { ++count; });
  s.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  s.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) s.schedule(1.0, chain);
  };
  s.schedule(1.0, chain);
  s.run();
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(s.now(), 10.0);
}

TEST(Simulator, SlabRecyclesSlotsInsteadOfGrowing) {
  // The pooled liveness slab: a long chain of schedule/fire cycles must reuse
  // a bounded set of slots, not allocate one per event.
  Simulator s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 1000) s.schedule(0.001, chain);
  };
  s.schedule(0.001, chain);
  s.run();
  EXPECT_EQ(count, 1000);
  EXPECT_LE(s.slab().capacity(), 4u);
}

TEST(Simulator, StaleHandleDoesNotCancelRecycledSlot) {
  Simulator s;
  bool first_fired = false, second_fired = false;
  EventHandle h1 = s.schedule(1.0, [&] { first_fired = true; });
  s.run_until(2.0);
  EXPECT_TRUE(first_fired);
  EXPECT_FALSE(h1.pending());
  // The next event reuses h1's slot under a new generation; cancelling the
  // stale handle must not touch it.
  EventHandle h2 = s.schedule(1.0, [&] { second_fired = true; });
  h1.cancel();
  EXPECT_TRUE(h2.pending());
  s.run();
  EXPECT_TRUE(second_fired);
}

TEST(Simulator, HandleReportsNotPendingInsideOwnCallback) {
  Simulator s;
  EventHandle h;
  bool pending_inside = true;
  h = s.schedule(1.0, [&] { pending_inside = h.pending(); });
  s.run();
  EXPECT_FALSE(pending_inside);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterFire) {
  Simulator s;
  EventHandle h = s.schedule(1.0, [] {});
  h.cancel();
  h.cancel();  // idempotent
  s.run();
  h.cancel();  // safe after the queue drained
  EXPECT_FALSE(h.pending());
  EventHandle default_constructed;
  default_constructed.cancel();  // no slab attached: no-op
  EXPECT_FALSE(default_constructed.pending());
}

TEST(Simulator, HandleOutlivesSimulatorSafely) {
  // Handles hold a reference on the slab: querying or cancelling one after
  // its simulator is gone must be safe, not a use-after-free. (As in the
  // original shared_ptr-slab kernel, an event that never fired still reports
  // pending — the slot was never retired — and cancel() still withdraws it.)
  EventHandle h;
  {
    Simulator s;
    h = s.schedule(1.0, [] {});
    EXPECT_TRUE(h.pending());
  }
  EXPECT_TRUE(h.pending());
  EventHandle copy = h;
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(copy.pending());
}

TEST(Simulator, WideCaptureSlotsRecycleLikeTinyOnes) {
  // Mid-sized captures (9..56 bytes) use the wide slot class; a long chain
  // must recycle a bounded set of slots there too.
  Simulator s;
  int count = 0;
  struct {
    double a[5];
  } pad{{1, 2, 3, 4, 5}};
  std::function<void()> chain = [&, pad] {
    if (++count < 1000) s.schedule(0.001, chain);
    (void)pad;
  };
  s.schedule(0.001, chain);
  s.run();
  EXPECT_EQ(count, 1000);
  EXPECT_LE(s.slab().capacity(), 4u);
}

TEST(Simulator, ReservePreservesSemantics) {
  Simulator s;
  s.reserve(4096);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(s.queue_size(), 5u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s.queue_size(), 0u);
}

TEST(Simulator, NegativeZeroDelayOrdersLikeZero) {
  // -0.0 must not be treated as a distinct (later) time by the packed
  // bit-pattern heap key.
  Simulator s;
  std::vector<int> order;
  s.schedule_at(0.0, [&] { order.push_back(0); });
  s.schedule_at(-0.0, [&] { order.push_back(1); });
  s.schedule(0.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, PinnedEventsInterleaveWithSlabEventsInSeqOrder) {
  // Pinned callbacks share the global (time, insertion-seq) order with
  // ordinary events — including FIFO tie-breaks at equal times.
  Simulator s;
  std::vector<int> order;
  const auto ping = s.pin([&] { order.push_back(100); });
  const auto pong = s.pin([&] { order.push_back(200); });
  s.schedule_at(1.0, [&] { order.push_back(0); });
  s.schedule_pinned_at(1.0, ping);   // same time: after 0, before 1
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_pinned(0.5, pong);      // earliest
  s.schedule_pinned_at(2.0, ping);   // the same pin pending twice is fine
  s.run();
  EXPECT_EQ(order, (std::vector<int>{200, 0, 100, 1, 100}));
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, PinnedSelfRescheduleRunsZeroAlloc) {
  Simulator s;
  int count = 0;
  Simulator::PinnedEvent tick = 0;
  tick = s.pin([&] {
    if (++count < 1000) s.schedule_pinned(0.001, tick);
  });
  const std::uint64_t allocs0 = ebrc::sim::inline_function_heap_allocs();
  s.schedule_pinned(0.001, tick);
  s.run();
  EXPECT_EQ(count, 1000);
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
  EXPECT_EQ(ebrc::sim::inline_function_heap_allocs() - allocs0, 0u);
}

TEST(Simulator, PinnedRejectsBadTimes) {
  Simulator s;
  const auto ev = s.pin([] {});
  EXPECT_THROW(s.schedule_pinned(-1.0, ev), std::invalid_argument);
  s.schedule(1.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_pinned_at(0.5, ev), std::invalid_argument);
}

TEST(Simulator, RejectsPastScheduling) {
  Simulator s;
  s.schedule(1.0, [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(0.5, [] {}), std::invalid_argument);
  EXPECT_THROW(s.schedule(-1.0, [] {}), std::invalid_argument);
}

TEST(Rng, DeterministicUnderSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitStreamsDiffer) {
  Rng root(42);
  Rng a = root.split("flows");
  Rng b = root.split("queues");
  // Not a statistical test, just divergence of the first draws.
  EXPECT_NE(a.uniform(), b.uniform());
}

TEST(Rng, ExponentialMean) {
  Rng r(7);
  ebrc::stats::OnlineMoments m;
  for (int i = 0; i < 200000; ++i) m.add(r.exponential_mean(2.5));
  EXPECT_NEAR(m.mean(), 2.5, 0.03);
  EXPECT_NEAR(m.cv(), 1.0, 0.02);
}

TEST(Rng, ShiftedExponentialMoments) {
  Rng r(7);
  ebrc::stats::OnlineMoments m;
  for (int i = 0; i < 200000; ++i) m.add(r.shifted_exponential(3.0, 0.5));
  EXPECT_NEAR(m.mean(), 5.0, 0.05);        // x0 + 1/a = 3 + 2
  EXPECT_NEAR(m.stddev(), 2.0, 0.05);      // sd = 1/a
}

TEST(Rng, BernoulliRate) {
  Rng r(9);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += r.bernoulli(0.2);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.2, 0.01);
}

TEST(Rng, ParetoMean) {
  Rng r(11);
  ebrc::stats::OnlineMoments m;
  for (int i = 0; i < 400000; ++i) m.add(r.pareto_mean(10.0, 2.5));
  EXPECT_NEAR(m.mean(), 10.0, 0.3);
}

TEST(Rng, InvalidArgumentsThrow) {
  Rng r(1);
  EXPECT_THROW(r.exponential_mean(0.0), std::invalid_argument);
  EXPECT_THROW(r.bernoulli(1.5), std::invalid_argument);
  EXPECT_THROW(r.pareto_mean(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(r.shifted_exponential(-1.0, 1.0), std::invalid_argument);
}

TEST(ShiftedExpFor, RealizesTargetMoments) {
  // The paper's design: fix p and cv independently.
  for (double p : {0.01, 0.1, 0.3}) {
    for (double cv : {0.2, 0.5, 0.999}) {
      const auto prm = ebrc::sim::shifted_exp_for(p, cv);
      const double mean = prm.x0 + 1.0 / prm.a;
      const double cv2 = (1.0 / prm.a) / mean;
      EXPECT_NEAR(mean, 1.0 / p, 1e-9);
      EXPECT_NEAR(cv2, cv * cv, 1e-9);
      EXPECT_GE(prm.x0, 0.0);
    }
  }
  EXPECT_THROW((void)ebrc::sim::shifted_exp_for(0.1, 1.5), std::invalid_argument);
  EXPECT_THROW((void)ebrc::sim::shifted_exp_for(-0.1, 0.5), std::invalid_argument);
}

}  // namespace
