// The controller zoo, locked down:
//   * the typed units (DataRate / TimeDelta / Timestamp) do exact arithmetic
//     and stay 8-byte trivially-copyable (they live inside POD rewind blocks),
//   * all four connection classes satisfy the workload Sender concept,
//   * delay-AIMD and RCP finite transfers complete standalone and rewind
//     cleanly for slot reuse, like TFRC/TCP,
//   * an end-to-end churn run pinned to each controller completes transfers
//     and reports its telemetry in the right WorkloadSummary slice —
//     queuing-delay samples only from the delay-sensing classes,
//   * the RCP router law on net::Link stamps a fair share that senders adopt,
//   * a pinned controller still burns the class draw, so CRN-paired arms see
//     identical arrival streams,
//   * FlowManager rejects unknown controller names loudly.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>

#include "delay_aimd/delay_aimd_connection.hpp"
#include "net/dumbbell.hpp"
#include "net/queue.hpp"
#include "rcp/rcp_connection.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"
#include "tfrc/tfrc_connection.hpp"
#include "util/units.hpp"
#include "workload/flow_manager.hpp"
#include "workload/sender.hpp"

namespace {

using namespace ebrc;
using util::DataRate;
using util::TimeDelta;
using util::Timestamp;

// ---- typed units -------------------------------------------------------------

TEST(Units, TimeDeltaArithmetic) {
  const TimeDelta a = TimeDelta::seconds(1.5);
  const TimeDelta b = TimeDelta::millis(500.0);
  EXPECT_DOUBLE_EQ((a + b).seconds(), 2.0);
  EXPECT_DOUBLE_EQ((a - b).seconds(), 1.0);
  EXPECT_DOUBLE_EQ(b.millis(), 500.0);
  EXPECT_DOUBLE_EQ((2.0 * b).seconds(), 1.0);
  EXPECT_TRUE(b < a);
  EXPECT_EQ(util::min(a, b), b);
  EXPECT_EQ(util::max(a, b), a);
  EXPECT_EQ(TimeDelta(), TimeDelta::seconds(0.0));
}

TEST(Units, TimestampAlgebra) {
  const Timestamp t0 = Timestamp::seconds(10.0);
  const Timestamp t1 = t0 + TimeDelta::seconds(2.5);
  EXPECT_DOUBLE_EQ(t1.seconds(), 12.5);
  EXPECT_DOUBLE_EQ((t1 - t0).seconds(), 2.5);
  EXPECT_DOUBLE_EQ((t1 - TimeDelta::seconds(0.5)).seconds(), 12.0);
  EXPECT_TRUE(t0 < t1);
}

TEST(Units, DataRateConversions) {
  const DataRate r = DataRate::packets_per_second(100.0);
  EXPECT_DOUBLE_EQ(r.pps(), 100.0);
  EXPECT_DOUBLE_EQ(r.bps(/*packet_bytes=*/1000.0), 800e3);
  EXPECT_DOUBLE_EQ(DataRate::bits_per_second(800e3, 1000.0).pps(), 100.0);
  EXPECT_DOUBLE_EQ(r.packet_interval().seconds(), 0.01);
  EXPECT_DOUBLE_EQ(r.packets_over(TimeDelta::seconds(2.0)), 200.0);
  EXPECT_DOUBLE_EQ((r + DataRate::packets_per_second(50.0)).pps(), 150.0);
  EXPECT_DOUBLE_EQ((0.85 * r).pps(), 85.0);
  EXPECT_EQ(util::min(r, DataRate::packets_per_second(7.0)).pps(), 7.0);
}

TEST(Units, PodAndPointerSized) {
  static_assert(std::is_trivially_copyable_v<DataRate>);
  static_assert(std::is_trivially_copyable_v<TimeDelta>);
  static_assert(std::is_trivially_copyable_v<Timestamp>);
  static_assert(sizeof(DataRate) == 8 && sizeof(TimeDelta) == 8 && sizeof(Timestamp) == 8);
}

// ---- the Sender concept ------------------------------------------------------

static_assert(workload::Sender<tfrc::TfrcConnection>);
static_assert(workload::Sender<tcp::TcpConnection>);
static_assert(workload::Sender<delay_aimd::DelayAimdConnection>);
static_assert(workload::Sender<rcp::RcpConnection>);

// ---- standalone lifecycle ----------------------------------------------------

TEST(ControllerLifecycle, DelayAimdFiniteTransferCompletesAndRewinds) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 15e6, 0.001);
  const int id = net.add_flow(0.024, 0.025);
  delay_aimd::DelayAimdConnection c(net, id, 0.050);

  int completions = 0;
  c.open(200, [&] { ++completions; });
  EXPECT_TRUE(c.active());
  sim.run_until(400.0);
  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(c.active());
  EXPECT_EQ(c.sent(), 200u);
  EXPECT_EQ(c.transfers_completed(), 1u);
  // Delay telemetry accumulated (one sample per feedback).
  EXPECT_GT(c.queuing_delay_samples(), 0u);

  // Reuse after a drain: sequencing restarts, cumulative counters continue.
  const std::uint64_t sent0 = c.sent();
  const std::uint64_t delivered0 = c.delivered();
  c.open(150, [&] { ++completions; });
  sim.run_until(800.0);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(c.sent() - sent0, 150u);
  EXPECT_EQ(c.delivered() - delivered0, 150u);  // lossless link: all arrive
}

TEST(ControllerLifecycle, RcpSenderAdoptsRouterStampAndCompletes) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 15e6, 0.001);
  net::RcpParams rp;
  rp.d0_s = 0.050;
  net.bottleneck().enable_rcp(rp);
  ASSERT_TRUE(net.bottleneck().rcp_enabled());
  const int id = net.add_flow(0.024, 0.025);
  rcp::RcpConnection c(net, id, 0.050);

  int completions = 0;
  c.open(400, [&] { ++completions; });
  sim.run_until(400.0);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(c.sent(), 400u);
  EXPECT_TRUE(c.law().stamped());  // the router's fair share reached the sender
  EXPECT_GT(c.queuing_delay_samples(), 0u);

  // The advertised fair share is bounded by the link's packet capacity.
  const double capacity_pps = 15e6 / (8.0 * 1000.0);
  EXPECT_LE(net.bottleneck().rcp_rate_pps(), capacity_pps + 1e-9);
  EXPECT_GT(net.bottleneck().rcp_rate_pps(), 0.0);

  // Rewind for a second transfer.
  c.open(100, [&] { ++completions; });
  sim.run_until(800.0);
  EXPECT_EQ(completions, 2);
}

TEST(ControllerLifecycle, RcpRouterRejectsBadParams) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 15e6, 0.001);
  net::RcpParams bad;
  bad.alpha = 0.0;
  EXPECT_THROW(net.bottleneck().enable_rcp(bad), std::invalid_argument);
  bad = net::RcpParams{};
  bad.d0_s = -1.0;
  EXPECT_THROW(net.bottleneck().enable_rcp(bad), std::invalid_argument);
}

// ---- end-to-end churn runs ---------------------------------------------------

testbed::Scenario pinned_churn(const std::string& controller, std::uint64_t seed) {
  auto s = testbed::churn_scenario(/*offered_load=*/0.8, /*tfrc_fraction=*/0.5, seed);
  s.name = "ctrl-test-" + controller;
  s.workload.controller = controller;
  s.duration_s = 30.0;
  s.warmup_s = 5.0;
  s.workload.max_concurrent = 32;
  return s;
}

TEST(ControllerMatrix, EachControllerCarriesTheWholeWorkload) {
  for (const std::string ctrl : {"tfrc", "tcp", "delay_aimd", "rcp"}) {
    const auto r = testbed::run_experiment(pinned_churn(ctrl, 21));
    ASSERT_TRUE(r.workload_active) << ctrl;
    const auto& wl = r.workload;
    EXPECT_GT(wl.arrivals, 0u) << ctrl;
    EXPECT_GT(wl.completions, 0u) << ctrl;

    // Telemetry lands in the pinned class's slice and nowhere else.
    const int expected = ctrl == "tfrc" ? 0 : ctrl == "tcp" ? 1 : ctrl == "delay_aimd" ? 2 : 3;
    for (int c = 0; c < workload::kFlowClasses; ++c) {
      const auto& f = workload::kClassFields[c];
      if (c == expected) {
        EXPECT_GT(wl.*f.goodput_pps, 0.0) << ctrl;
        EXPECT_GT(wl.*f.mean_flows, 0.0) << ctrl;
      } else {
        EXPECT_EQ(wl.*f.goodput_pps, 0.0) << ctrl << " leaked goodput into class " << c;
        EXPECT_EQ(wl.*f.mean_flows, 0.0) << ctrl << " leaked flows into class " << c;
      }
    }

    // Queuing-delay telemetry only from the delay-sensing classes.
    if (ctrl == "delay_aimd" || ctrl == "rcp") {
      EXPECT_GT(wl.qdelay_mean_s, 0.0) << ctrl;
    } else {
      EXPECT_EQ(wl.qdelay_mean_s, 0.0) << ctrl;
    }
  }
}

TEST(ControllerMatrix, PinnedControllerKeepsTheArrivalStream) {
  // CRN contract: pinning a controller burns the class draw, so two runs on
  // one seed see the same arrival count regardless of which controller the
  // arrivals land on (completions and goodput may differ freely).
  const auto a = testbed::run_experiment(pinned_churn("tfrc", 33));
  auto sc_b = pinned_churn("delay_aimd", 33);
  sc_b.name = a.scenario_name;  // same name => same derived streams
  const auto b = testbed::run_experiment(sc_b);
  EXPECT_EQ(a.workload.arrivals + a.workload.rejections,
            b.workload.arrivals + b.workload.rejections);
}

TEST(ControllerMatrix, UnknownControllerThrowsNamingTheZoo) {
  sim::Simulator sim;
  net::Dumbbell net(sim, net::Queue::drop_tail(100), 15e6, 0.001);
  workload::FlowManagerConfig cfg;
  cfg.workload.arrival_rate_per_s = 1.0;
  cfg.workload.controller = "bbr";
  try {
    workload::FlowManager fm(net, cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bbr"), std::string::npos);
    EXPECT_NE(msg.find("delay_aimd"), std::string::npos);
    EXPECT_NE(msg.find("rcp"), std::string::npos);
  }
}

}  // namespace
