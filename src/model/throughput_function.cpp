#include "model/throughput_function.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace ebrc::model {
namespace {

void require_p(double p) {
  // p > 1 is unphysical (more than one loss event per packet) but the
  // formulas remain well defined there, and a moving-average estimator can
  // transiently report mean intervals below one packet when driven by a
  // continuous interval distribution — so only p <= 0 is rejected.
  if (!(p > 0.0)) {
    throw std::invalid_argument("loss-event rate must be > 0, got " + std::to_string(p));
  }
}

double default_q(double rtt_s, double q_s) {
  // TFRC recommendation: retransmission timeout q = 4r.
  return q_s < 0.0 ? 4.0 * rtt_s : q_s;
}

}  // namespace

double pftk_c1(int b) noexcept { return std::sqrt(2.0 * b / 3.0); }
double pftk_c2(int b) noexcept { return 1.5 * std::sqrt(1.5 * b); }

double ThroughputFunction::drate_dp(double p) const {
  // Central difference with a relative step; adequate for the analysis and
  // overridden with exact derivatives for the simplified family.
  const double h = std::max(1e-9, 1e-6 * p);
  const double hi = std::min(1.0, p + h);
  const double lo = std::max(1e-12, p - h);
  return (rate(hi) - rate(lo)) / (hi - lo);
}

// ---------------------------------------------------------------- SQRT ----

SqrtFormula::SqrtFormula(double rtt_s, int b) : r_(rtt_s), c1_(pftk_c1(b)) {
  if (rtt_s <= 0) throw std::invalid_argument("SqrtFormula: rtt must be > 0");
}

double SqrtFormula::rate(double p) const {
  require_p(p);
  return 1.0 / (c1_ * r_ * std::sqrt(p));
}

std::optional<SimplifiedCoeffs> SqrtFormula::simplified_coeffs() const {
  return SimplifiedCoeffs{c1_ * r_, 0.0};
}

double SqrtFormula::drate_dp(double p) const {
  require_p(p);
  return -0.5 / (c1_ * r_ * p * std::sqrt(p));
}

std::optional<double> SqrtFormula::g_antiderivative(double x) const {
  // g(x) = c1 r x^{-1/2}; G(x) = 2 c1 r x^{1/2}.
  return 2.0 * c1_ * r_ * std::sqrt(x);
}

// ------------------------------------------------------- PFTK-standard ----

PftkStandard::PftkStandard(double rtt_s, double q_s, int b)
    : r_(rtt_s), q_(default_q(rtt_s, q_s)), c1_(pftk_c1(b)), c2_(pftk_c2(b)) {
  if (rtt_s <= 0) throw std::invalid_argument("PftkStandard: rtt must be > 0");
}

double PftkStandard::rate(double p) const {
  require_p(p);
  const double sp = std::sqrt(p);
  const double denom =
      c1_ * r_ * sp + q_ * std::min(1.0, c2_ * sp) * p * (1.0 + 32.0 * p * p);
  return 1.0 / denom;
}

double PftkStandard::clamp_threshold() const noexcept { return 1.0 / (c2_ * c2_); }

std::optional<double> PftkStandard::g_antiderivative(double x) const {
  // g(x) = c1 r x^{-1/2} + q min(1, c2 x^{-1/2}) (x^{-1} + 32 x^{-3}).
  // The min splits at x* = c2^2 (x >= x*: the simplified branch applies).
  //
  // Branch A (x >= c2^2, rare loss):   g = c1 r x^{-1/2} + q c2 (x^{-3/2} + 32 x^{-7/2})
  //   G_A(x) = 2 c1 r x^{1/2} - 2 q c2 x^{-1/2} - (64/5) q c2 x^{-5/2}
  // Branch B (x < c2^2, heavy loss):   g = c1 r x^{-1/2} + q (x^{-1} + 32 x^{-3})
  //   G_B(x) = 2 c1 r x^{1/2} + q ln x - 16 q x^{-2}
  // We stitch the branches continuously at x* so G is a true antiderivative.
  if (!(x > 0.0)) throw std::invalid_argument("g_antiderivative: x must be > 0");
  const double xs = c2_ * c2_;
  const auto ga = [&](double y) {
    return 2.0 * c1_ * r_ * std::sqrt(y) - 2.0 * q_ * c2_ / std::sqrt(y) -
           (64.0 / 5.0) * q_ * c2_ / (y * y * std::sqrt(y));
  };
  const auto gb = [&](double y) {
    return 2.0 * c1_ * r_ * std::sqrt(y) + q_ * std::log(y) - 16.0 * q_ / (y * y);
  };
  if (x >= xs) return ga(x);
  // Continuity constant: G_B(xs) + C == G_A(xs).
  return gb(x) + (ga(xs) - gb(xs));
}

// ----------------------------------------------------- PFTK-simplified ----

PftkSimplified::PftkSimplified(double rtt_s, double q_s, int b)
    : r_(rtt_s), q_(default_q(rtt_s, q_s)), c1_(pftk_c1(b)), c2_(pftk_c2(b)) {
  if (rtt_s <= 0) throw std::invalid_argument("PftkSimplified: rtt must be > 0");
}

double PftkSimplified::rate(double p) const {
  require_p(p);
  const double sp = std::sqrt(p);
  const double denom = c1_ * r_ * sp + q_ * c2_ * sp * p * (1.0 + 32.0 * p * p);
  return 1.0 / denom;
}

std::optional<SimplifiedCoeffs> PftkSimplified::simplified_coeffs() const {
  return SimplifiedCoeffs{c1_ * r_, c2_ * q_};
}

double PftkSimplified::drate_dp(double p) const {
  require_p(p);
  // 1/f = c1 r p^{1/2} + c2 q (p^{3/2} + 32 p^{7/2})
  const double sp = std::sqrt(p);
  const double denom = c1_ * r_ * sp + c2_ * q_ * (p * sp + 32.0 * p * p * p * sp);
  const double ddenom =
      0.5 * c1_ * r_ / sp + c2_ * q_ * (1.5 * sp + 112.0 * p * p * sp);
  return -ddenom / (denom * denom);
}

std::optional<double> PftkSimplified::g_antiderivative(double x) const {
  // g(x) = c1 r x^{-1/2} + c2 q (x^{-3/2} + 32 x^{-7/2})
  // G(x) = 2 c1 r x^{1/2} - 2 c2 q x^{-1/2} - (64/5) c2 q x^{-5/2}
  if (!(x > 0.0)) throw std::invalid_argument("g_antiderivative: x must be > 0");
  return 2.0 * c1_ * r_ * std::sqrt(x) - 2.0 * c2_ * q_ / std::sqrt(x) -
         (64.0 / 5.0) * c2_ * q_ / (x * x * std::sqrt(x));
}

// -------------------------------------------------------------- factory ----

namespace {

enum class Family { kSqrt, kPftkStandard, kPftkSimplified };

Family family_of(const std::string& name) {
  std::string key;
  key.reserve(name.size());
  for (char c : name) key.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (key == "sqrt") return Family::kSqrt;
  if (key == "pftk" || key == "pftk-standard" || key == "pftk_standard") {
    return Family::kPftkStandard;
  }
  if (key == "pftk-simplified" || key == "pftk_simplified" || key == "simplified") {
    return Family::kPftkSimplified;
  }
  throw std::invalid_argument("unknown throughput function: " + name);
}

}  // namespace

std::shared_ptr<const ThroughputFunction> make_throughput_function(const std::string& name,
                                                                   double rtt_s, double q_s,
                                                                   int b) {
  switch (family_of(name)) {
    case Family::kSqrt: return std::make_shared<SqrtFormula>(rtt_s, b);
    case Family::kPftkStandard: return std::make_shared<PftkStandard>(rtt_s, q_s, b);
    case Family::kPftkSimplified: return std::make_shared<PftkSimplified>(rtt_s, q_s, b);
  }
  throw std::logic_error("make_throughput_function: unreachable");
}

const ThroughputFunction& unit_throughput_function(const std::string& name) {
  static const SqrtFormula sqrt_unit(1.0);
  static const PftkStandard standard_unit(1.0);
  static const PftkSimplified simplified_unit(1.0);
  switch (family_of(name)) {
    case Family::kSqrt: return sqrt_unit;
    case Family::kPftkStandard: return standard_unit;
    case Family::kPftkSimplified: return simplified_unit;
  }
  throw std::logic_error("unit_throughput_function: unreachable");
}

}  // namespace ebrc::model
