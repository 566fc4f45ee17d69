// Exhaustive bitwise comparison of two ExperimentResults for the tests.
//
// Both results are flattened through testbed::visit_result, the traversal
// the cache codec uses, so every cached field is compared and a field added
// to the schema is compared with no edit here. Doubles compare by IEEE bit
// pattern, not within EXPECT_DOUBLE_EQ's 4 ULPs: two runs of one scenario
// must agree exactly whatever the worker count, cache state, retry or shard.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "testbed/experiment.hpp"

namespace ebrc::test {

/// visit_result visitor: one (path, rendered value) leaf per cached field.
/// Container sizes are leaves too, ahead of their elements, so two results
/// whose leaves agree pairwise have the same shape.
struct ResultLeaves {
  std::vector<std::pair<std::string, std::string>> leaves;
  std::string prefix;

  void field(const std::string& name, const std::string& v) {
    leaves.emplace_back(prefix + name, '"' + v + '"');
  }
  void field(const std::string& name, int v) {
    leaves.emplace_back(prefix + name, std::to_string(v));
  }
  void field(const std::string& name, std::uint64_t v) {
    leaves.emplace_back(prefix + name, std::to_string(v));
  }
  void field(const std::string& name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g [%016llx]", v,
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
    leaves.emplace_back(prefix + name, buf);
  }
  template <class Fn>
  void flows(const std::vector<testbed::FlowStats>& flows, Fn fn) {
    field("flows.size", std::uint64_t{flows.size()});
    for (std::size_t i = 0; i < flows.size(); ++i) {
      prefix = "flows[" + std::to_string(i) + "].";
      fn(*this, flows[i]);
    }
    prefix.clear();
  }
  template <class Fn>
  void workload(bool active, const workload::WorkloadSummary& wl, Fn fn) {
    field("workload_active", std::uint64_t{active});
    prefix = "workload.";
    fn(*this, wl);
    prefix.clear();
  }
  void snapshot(const obs::Snapshot& obs) {
    field("obs.size", std::uint64_t{obs.size()});
    for (const auto& [name, value] : obs) field("obs." + name, value);
  }
};

/// The first cached field on which `a` and `b` differ, rendered with both
/// values; empty when they are bit-identical.
inline std::string first_difference(const testbed::ExperimentResult& a,
                                    const testbed::ExperimentResult& b) {
  ResultLeaves la, lb;
  testbed::visit_result(la, a);
  testbed::visit_result(lb, b);
  const std::size_t n = std::min(la.leaves.size(), lb.leaves.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [pa, va] = la.leaves[i];
    const auto& [pb, vb] = lb.leaves[i];
    if (pa != pb || va != vb) return pa + " = " + va + " vs " + pb + " = " + vb;
  }
  return {};
}

inline void expect_identical(const testbed::ExperimentResult& a,
                             const testbed::ExperimentResult& b) {
  const std::string diff = first_difference(a, b);
  EXPECT_TRUE(diff.empty()) << "first differing field: " << diff;
}

}  // namespace ebrc::test
