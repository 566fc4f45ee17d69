// Cross-layer integration: the analytic core and the packet-level protocol
// stack must tell the same story when pointed at the same physics.
#include <gtest/gtest.h>

#include <memory>

#include "core/analyzer.hpp"
#include "core/conditions.hpp"
#include "core/estimator.hpp"
#include "core/weights.hpp"
#include "loss/droppers.hpp"
#include "model/throughput_function.hpp"
#include "net/dumbbell.hpp"
#include "sim/simulator.hpp"
#include "testbed/experiment.hpp"
#include "testbed/scenario.hpp"
#include "tfrc/loss_history.hpp"
#include "tfrc/variable_packet_sender.hpp"

namespace {

using namespace ebrc;

TEST(Integration, PacketAudioMatchesAnalyticAudioModel) {
  // The same (formula, p, L) through two completely different code paths:
  // core::run_audio_control (analytic Monte Carlo, no simulator) and the
  // event-driven VariablePacketSender through a BernoulliDropper.
  const double p = 0.15;
  auto f = model::make_throughput_function("pftk-simplified", 1.0);

  const auto analytic = core::run_audio_control(*f, 50.0, p, core::tfrc_weights(4),
                                                /*comprehensive=*/false, 3,
                                                {.events = 300000, .warmup = 200});

  sim::Simulator sim;
  loss::BernoulliDropper channel(p, 11);
  tfrc::VariablePacketConfig cfg;
  cfg.packet_rate_pps = 50.0;
  cfg.history_length = 4;
  cfg.comprehensive = false;
  tfrc::VariablePacketSender audio(sim, channel, f, cfg);
  audio.start(0.0);
  sim.run_until(500.0);
  audio.reset_measurement();
  sim.run_until(8000.0);

  EXPECT_NEAR(audio.loss_event_rate(), analytic.p, 0.01);
  EXPECT_NEAR(audio.normalized_throughput(), analytic.normalized, 0.05);
  EXPECT_NEAR(audio.cv_thetahat_sq(), analytic.cv_thetahat * analytic.cv_thetahat, 0.05);
}

TEST(Integration, LossHistoryAgreesWithCoreEstimatorOnATrace) {
  // Feeding identical interval sequences, the receiver-side LossHistory and
  // the core MovingAverageEstimator must report the same closed-history
  // average, and the same open-interval behavior.
  const auto weights = core::tfrc_weights(8);
  tfrc::LossHistory hist(core::tfrc_weight_profile(8), /*comprehensive=*/true);
  core::MovingAverageEstimator est(weights);

  const double rtt = 0.05;
  double t = 0.0;
  const int interval_lengths[] = {12, 30, 9, 44, 17, 25, 33, 8, 21, 40};
  bool seeded = false;
  for (int len : interval_lengths) {
    // len - 1 arrivals, then one packet with a single missing seq before it
    // closes an interval of exactly `len` sequence numbers.
    for (int k = 0; k < len - 2; ++k) hist.on_packet(0, t += 0.01, rtt);
    if (!seeded) {
      hist.seed(static_cast<double>(len));
      est.seed(static_cast<double>(len));
      seeded = true;
      hist.on_packet(1, t += rtt + 0.01, rtt);
      continue;
    }
    hist.on_packet(1, t += rtt + 0.01, rtt);
    est.push(static_cast<double>(len));
  }
  EXPECT_NEAR(hist.estimator().value(), est.value(), 1e-9);
  // Open-interval growth matches value_with_open at the same open count.
  for (int k = 0; k < 200; ++k) hist.on_packet(0, t += 0.01, rtt);
  EXPECT_NEAR(hist.mean_interval(), est.value_with_open(hist.open_interval()), 1e-9);
}

TEST(Integration, ConservativenessSurvivesTheFullStack) {
  // Claim 1 at the highest integration level: on the paper's RED dumbbell,
  // every TFRC flow's normalized throughput stays at or below ~1 and the
  // Theorem-1 bound at its measured covariance is respected.
  auto s = testbed::ns2_scenario(3, 3, 8, 21);
  s.duration_s = 150.0;
  s.warmup_s = 30.0;
  const auto r = testbed::run_experiment(s);
  int checked = 0;
  for (const auto* f : r.of_kind("tfrc")) {
    if (f->p <= 0 || f->normalized <= 0 || f->loss_events < 40) continue;
    EXPECT_LT(f->normalized, 1.15) << "flow " << f->flow_id;
    const auto fn = model::make_throughput_function("pftk", f->mean_rtt_s);
    const double bound = core::theorem1_bound(*fn, f->p, f->cov_theta_thetahat);
    EXPECT_LT(f->throughput_pps, bound * 1.3) << "flow " << f->flow_id;
    ++checked;
  }
  EXPECT_GE(checked, 2);
}

TEST(Integration, BreakdownRatiosRecomputeFromAggregates) {
  // The reported breakdown must be exactly the ratios of the reported
  // aggregates (no hidden averaging asymmetry in the harness).
  auto s = testbed::ns2_scenario(2, 2, 8, 5);
  s.duration_s = 120.0;
  s.warmup_s = 30.0;
  const auto r = testbed::run_experiment(s);
  ASSERT_GT(r.tfrc_p, 0.0);
  ASSERT_GT(r.tcp_p, 0.0);
  EXPECT_NEAR(r.breakdown.loss_rate_ratio, r.tcp_p / r.tfrc_p, 1e-12);
  EXPECT_NEAR(r.breakdown.rtt_ratio, r.tcp_rtt / r.tfrc_rtt, 1e-12);
  EXPECT_NEAR(r.breakdown.friendliness, r.tfrc_throughput / r.tcp_throughput, 1e-12);
  // Per-flow normalized values average to the reported conservativeness.
  double sum = 0.0;
  int n = 0;
  for (const auto* f : r.of_kind("tfrc")) {
    if (f->normalized > 0) {
      sum += f->normalized;
      ++n;
    }
  }
  ASSERT_GT(n, 0);
  EXPECT_NEAR(r.breakdown.conservativeness, sum / n, 1e-12);
}

}  // namespace
