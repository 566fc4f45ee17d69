// Moving-average weights for the loss-interval estimator (Eq. 2).
//
// The paper (and TFRC / RFC 3448) uses weights that are flat over the most
// recent half of the window and decay linearly over the older half; the
// estimator is unbiased when the weights sum to one (assumption (E)).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace ebrc::core {

/// An immutable weight vector that many estimators share.
using WeightProfile = std::shared_ptr<const std::vector<double>>;

/// TFRC weights of window L, normalized to sum 1. Raw shape: w_l = 1 for
/// l <= ceil(L/2), then linearly decaying, w_l = 1 - (l - L/2)/(L/2 + 1)
/// (for L = 8: 1, 1, 1, 1, .8, .6, .4, .2 — the RFC 3448 profile).
[[nodiscard]] std::vector<double> tfrc_weights(std::size_t L);

/// tfrc_weights(L), computed once per process and shared: every TFRC
/// receiver with window L holds this one profile instead of its own copy.
/// Thread-safe.
[[nodiscard]] WeightProfile tfrc_weight_profile(std::size_t L);

/// Uniform weights 1/L (the plain moving average).
[[nodiscard]] std::vector<double> uniform_weights(std::size_t L);

/// Geometric weights proportional to rho^{l-1}, normalized (EWMA-like with a
/// finite window); rho in (0, 1].
[[nodiscard]] std::vector<double> geometric_weights(std::size_t L, double rho);

/// Validates an arbitrary weight vector: non-empty, strictly positive first
/// weight, non-negative entries, sums to 1 within tolerance.
void validate_weights(const std::vector<double>& w);

}  // namespace ebrc::core
