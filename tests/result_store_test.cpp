// The on-disk result cache and the sharded sweep path, locked down:
//   * a cache hit returns bit-identical ExperimentResults to the fresh run,
//   * any scenario-field or seed perturbation misses,
//   * corrupted / truncated / foreign cache files fall back to re-simulation
//     (and are repaired) instead of crashing,
//   * a sweep sharded over {1, 2, 3, 8} processes through a shared store,
//     then folded by an unsharded warm pass, is bit-identical to the
//     unsharded run — per run AND per aggregated metric.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "result_equality.hpp"
#include "testbed/batch.hpp"
#include "testbed/experiment.hpp"
#include "testbed/fault_injection.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario.hpp"
#include "testbed/scenario_io.hpp"
#include "util/binary_io.hpp"

namespace {

namespace fs = std::filesystem;

using ebrc::testbed::BatchRunner;
using ebrc::testbed::ExperimentResult;
using ebrc::testbed::ResultStore;
using ebrc::testbed::Scenario;
using ebrc::testbed::ShardSpec;
using ebrc::testbed::SweepReport;
using ebrc::test::expect_identical;

Scenario short_ns2(std::uint64_t seed) {
  auto s = ebrc::testbed::ns2_scenario(1, 1, 8, seed);
  s.duration_s = 4.0;
  s.warmup_s = 1.0;
  return s;
}

/// A short churn cell. With an empty `controller` the transfers mix TFRC and
/// TCP and a long-lived pair of each rides along, so the payload carries flow
/// records, workload telemetry and obs entries at once.
Scenario short_churn(const std::string& controller) {
  auto s = ebrc::testbed::churn_scenario(/*offered_load=*/0.8, /*tfrc_fraction=*/0.5, 17);
  s.duration_s = 8.0;
  s.warmup_s = 2.0;
  s.workload.max_concurrent = 32;
  s.workload.controller = controller;
  if (controller.empty()) {
    s.n_tfrc = 1;
    s.n_tcp = 1;
  }
  return s;
}

/// A fresh directory under the system temp dir, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("ebrc_result_store_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

void expect_bits(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b)) << what;
}

TEST(ResultStore, HitIsBitIdenticalToFreshRun) {
  TempDir dir;
  ResultStore store(dir.path);
  const Scenario s = short_ns2(123);
  const ExperimentResult fresh = ebrc::testbed::run_experiment(s);
  store.store(s, fresh);

  const auto cached = store.load(s);
  ASSERT_TRUE(cached.has_value());
  expect_identical(fresh, *cached);
  const auto c = store.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.stored, 1u);
  EXPECT_EQ(c.corrupt, 0u);
}

TEST(ResultStore, CodecRoundTripsExactly) {
  const ExperimentResult fresh = ebrc::testbed::run_experiment(short_ns2(7));
  const auto decoded = ebrc::testbed::decode_result(ebrc::testbed::encode_result(fresh));
  ASSERT_TRUE(decoded.has_value());
  expect_identical(fresh, *decoded);
  EXPECT_FALSE(ebrc::testbed::decode_result("garbage").has_value());
  EXPECT_FALSE(ebrc::testbed::decode_result("").has_value());
}

std::uint64_t payload_digest(const Scenario& s) {
  const std::string payload = ebrc::testbed::encode_result(ebrc::testbed::run_experiment(s));
  ebrc::util::Fnv1a h;
  h.bytes(payload.data(), payload.size());
  return h.digest();
}

// The cache payload format, pinned by one cell of each kind. Cached entries
// are read back by position, so these digests may change only together with
// kResultCacheSalt: a payload that moves without a salt bump would let old
// entries decode into the wrong fields. Re-record them when the salt moves.
TEST(ResultStore, PayloadDigestIsPinned) {
  ASSERT_EQ(ebrc::testbed::kResultCacheSalt, 7u) << "salt bumped: re-record the digests";
  EXPECT_EQ(payload_digest(short_ns2(123)), 0xab4aa2c2cd55d406ull);
  EXPECT_EQ(payload_digest(short_churn("")), 0xfb57f5ef6de56e02ull);
  EXPECT_EQ(payload_digest(short_churn("delay_aimd")), 0x1d2736deeea28106ull);
  EXPECT_EQ(payload_digest(short_churn("rcp")), 0x3824c2160b7e6d0cull);
}

TEST(ResultStore, DecoderRejectsEveryMalformedPayload) {
  ExperimentResult r = ebrc::testbed::run_experiment(short_churn(""));
  ASSERT_FALSE(r.flows.empty());
  ASSERT_FALSE(r.obs.empty());
  ASSERT_TRUE(r.workload_active);
  const std::string payload = ebrc::testbed::encode_result(r);
  ASSERT_TRUE(ebrc::testbed::decode_result(payload).has_value());

  for (std::size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(ebrc::testbed::decode_result(payload.substr(0, n)).has_value()) << n;
  }
  EXPECT_FALSE(ebrc::testbed::decode_result(payload + '\0').has_value());

  // A flow count of 2^63 with no flow bytes behind it: the reader must stop
  // at the first short read instead of sizing anything from the count.
  r.flows.clear();
  const std::string flowless = ebrc::testbed::encode_result(r);
  const std::size_t count_at = 8 + r.scenario_name.size();
  ebrc::util::ByteWriter w;
  w.u64(std::uint64_t{1} << 63);
  const std::string huge =
      flowless.substr(0, count_at) + w.bytes() + flowless.substr(count_at + 8);
  EXPECT_FALSE(ebrc::testbed::decode_result(huge).has_value());
}

TEST(ResultStore, MissesOnAnyPerturbation) {
  TempDir dir;
  ResultStore store(dir.path);
  const Scenario s = short_ns2(123);
  store.store(s, ebrc::testbed::run_experiment(s));

  Scenario seed_moved = s;
  seed_moved.seed += 1;
  EXPECT_FALSE(store.load(seed_moved).has_value());

  Scenario field_moved = s;
  field_moved.n_tcp += 1;
  EXPECT_FALSE(store.load(field_moved).has_value());

  Scenario tfrc_moved = s;
  tfrc_moved.tfrc.history_length += 1;
  EXPECT_FALSE(store.load(tfrc_moved).has_value());

  Scenario renamed = s;
  renamed.name += "-b";
  EXPECT_FALSE(store.load(renamed).has_value());

  // A different code-version salt must not see the old entry either.
  ResultStore salted(dir.path, ebrc::testbed::kResultCacheSalt + 1);
  EXPECT_FALSE(salted.load(s).has_value());
  EXPECT_EQ(store.counters().misses, 4u);
}

TEST(ResultStore, CorruptAndTruncatedEntriesReadAsMisses) {
  TempDir dir;
  ResultStore store(dir.path);
  const Scenario s = short_ns2(55);
  const ExperimentResult fresh = ebrc::testbed::run_experiment(s);
  store.store(s, fresh);
  const fs::path entry = store.path_for(s);
  ASSERT_TRUE(fs::exists(entry));
  ASSERT_TRUE(ebrc::testbed::validate_result_file(entry));

  // Truncation.
  const auto size = fs::file_size(entry);
  fs::resize_file(entry, size / 2);
  EXPECT_FALSE(store.load(s).has_value());
  EXPECT_FALSE(ebrc::testbed::validate_result_file(entry));

  // Flipped payload byte (restore full length first).
  store.store(s, fresh);
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size) - 3);
    f.put('\x5a');
  }
  EXPECT_FALSE(store.load(s).has_value());

  // Foreign file content.
  {
    std::ofstream f(entry, std::ios::binary | std::ios::trunc);
    f << "not a result file";
  }
  EXPECT_FALSE(store.load(s).has_value());
  EXPECT_EQ(store.counters().corrupt, 3u);

  // The batch path must fall back to re-simulation and repair the entry.
  SweepReport report;
  const auto out = BatchRunner(2).run({s}, &store, ShardSpec{}, &report);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(report.hits, 0u);
  EXPECT_EQ(report.simulated, 1u);
  expect_identical(fresh, out[0]);
  EXPECT_TRUE(ebrc::testbed::validate_result_file(entry));
  const auto healed = store.load(s);
  ASSERT_TRUE(healed.has_value());
  expect_identical(fresh, *healed);
}

TEST(ResultStore, BatchRunnerWarmCacheSimulatesNothing) {
  TempDir dir;
  ResultStore store(dir.path);
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/42, /*reps=*/4);

  SweepReport cold;
  const auto first = BatchRunner(4).run(batch, &store, ShardSpec{}, &cold);
  EXPECT_EQ(cold.simulated, 4u);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_TRUE(cold.complete());

  SweepReport warm;
  const auto second = BatchRunner(4).run(batch, &store, ShardSpec{}, &warm);
  EXPECT_EQ(warm.simulated, 0u);
  EXPECT_EQ(warm.hits, 4u);
  EXPECT_TRUE(warm.complete());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) expect_identical(first[i], second[i]);
}

TEST(ResultStore, ShardedSweepMergesBitIdenticalForEveryShardCount) {
  // The acceptance bar of the sharding layer: for --shard-count in
  // {1, 2, 3, 8}, running every shard against a shared store and then
  // folding with an unsharded warm pass reproduces the direct unsharded
  // run bit-for-bit — per run and per aggregated metric.
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/7, /*reps=*/8);
  const BatchRunner runner(4);
  const auto reference = runner.run(batch);
  const auto ref_agg = ebrc::testbed::aggregate(reference);

  for (const std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{8}}) {
    TempDir dir;
    ResultStore store(dir.path);
    std::size_t simulated_total = 0;
    for (std::size_t index = 0; index < count; ++index) {
      SweepReport rep;
      const auto part = runner.run(batch, &store, ShardSpec(index, count), &rep);
      simulated_total += rep.simulated;
      // Shard-local cells are already bit-identical to the reference.
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (rep.available[i] != 0) expect_identical(reference[i], part[i]);
      }
    }
    // Every run simulated exactly once across all shards.
    EXPECT_EQ(simulated_total, batch.size()) << "shard count " << count;

    SweepReport merged_rep;
    const auto merged = runner.run(batch, &store, ShardSpec{}, &merged_rep);
    EXPECT_EQ(merged_rep.simulated, 0u) << "shard count " << count;
    EXPECT_EQ(merged_rep.hits, batch.size()) << "shard count " << count;
    ASSERT_TRUE(merged_rep.complete());
    for (std::size_t i = 0; i < batch.size(); ++i) expect_identical(reference[i], merged[i]);

    // And the aggregate folds to the same accumulators, bit for bit.
    const auto merged_agg = ebrc::testbed::aggregate(merged);
    EXPECT_EQ(merged_agg.runs, ref_agg.runs);
    ASSERT_EQ(merged_agg.metrics.size(), ref_agg.metrics.size());
    for (const auto& [name, m] : ref_agg.metrics) {
      const auto& other = merged_agg.metric(name);
      EXPECT_EQ(other.count(), m.count()) << name;
      expect_bits(other.mean(), m.mean(), name.c_str());
      expect_bits(other.m2(), m.m2(), name.c_str());
      expect_bits(other.min(), m.min(), name.c_str());
      expect_bits(other.max(), m.max(), name.c_str());
    }
  }
}

TEST(ResultStore, ColdShardRunReportsSkippedCells) {
  TempDir dir;
  ResultStore store(dir.path);
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/9, /*reps=*/5);
  SweepReport rep;
  const auto out = BatchRunner(2).run(batch, &store, ShardSpec(0, 2), &rep);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(rep.total, 5u);
  EXPECT_EQ(rep.simulated, 3u);  // cells 0, 2, 4
  EXPECT_EQ(rep.skipped, 2u);
  EXPECT_FALSE(rep.complete());
  EXPECT_EQ(rep.available[0], 1);
  EXPECT_EQ(rep.available[1], 0);
}

TEST(ResultStore, IndexAnswersWarmProbesWithoutFilesystemOps) {
  // The checkpoint-resume acceptance bar: against a 10^4-entry cache, the
  // INDEX sidecar answers presence in memory — absent keys cost ZERO
  // filesystem operations (no per-file stat storm), and only actual hits
  // read a file. Entries are canned results, not simulations: this test is
  // about the index, not the simulator.
  TempDir dir;
  constexpr std::uint64_t kEntries = 10'000;
  const ExperimentResult canned;  // payload content is irrelevant here
  {
    ResultStore writer(dir.path);
    for (std::uint64_t seed = 0; seed < kEntries; ++seed) {
      Scenario s = short_ns2(1);
      s.seed = seed;  // fingerprint excludes the seed: 10^4 distinct keys
      writer.store(s, canned);
    }
    EXPECT_EQ(writer.counters().stored, kEntries);
  }

  // A fresh store loads the index once at construction; probes after that
  // are pure memory lookups.
  ResultStore store(dir.path);
  for (std::uint64_t seed = 0; seed < kEntries; ++seed) {
    Scenario s = short_ns2(1);
    s.seed = seed;
    EXPECT_TRUE(store.probe(s));
  }
  EXPECT_EQ(store.counters().fs_probes, 0u);

  // 10^4 absent keys: all misses, still zero filesystem traffic.
  for (std::uint64_t seed = kEntries; seed < 2 * kEntries; ++seed) {
    Scenario s = short_ns2(1);
    s.seed = seed;
    EXPECT_FALSE(store.probe(s));
    EXPECT_FALSE(store.load(s).has_value());
  }
  auto c = store.counters();
  EXPECT_EQ(c.fs_probes, 0u);
  EXPECT_EQ(c.index_filtered, kEntries);
  EXPECT_EQ(c.misses, kEntries);

  // Only a real hit touches the filesystem — exactly once.
  Scenario present = short_ns2(1);
  present.seed = 123;
  EXPECT_TRUE(store.load(present).has_value());
  c = store.counters();
  EXPECT_EQ(c.fs_probes, 1u);
  EXPECT_EQ(c.hits, 1u);
}

TEST(ResultStore, TornIndexRecordIsDetectedAndRebuiltFromFilenames) {
  TempDir dir;
  const ExperimentResult canned;
  std::vector<Scenario> entries;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Scenario s = short_ns2(1);
    s.seed = seed;
    entries.push_back(s);
  }
  {
    ResultStore writer(dir.path);
    // The second index append (ordinal 1) crashes mid-record: only a prefix
    // of the 32-byte record reaches the file, shifting everything after it.
    ebrc::testbed::fault::arm({{ebrc::testbed::fault::Kind::kTornIndexRecord, 1, 0}});
    for (const auto& s : entries) writer.store(s, canned);
    ebrc::testbed::fault::disarm();
    // The torn append is non-fatal for the writer itself (its in-memory set
    // is intact); the defect bites the NEXT reader of the file.
    for (const auto& s : entries) EXPECT_TRUE(writer.probe(s));
    EXPECT_NE((fs::file_size(writer.index_path()) - 16) % 32, 0u);  // torn: misaligned
  }

  // A fresh store must refuse the torn index and rebuild from the entry
  // filenames: every stored key probes true again, and the rewritten index
  // is whole-record aligned.
  ResultStore store(dir.path);
  for (const auto& s : entries) {
    EXPECT_TRUE(store.probe(s));
    EXPECT_TRUE(store.load(s).has_value());
  }
  EXPECT_EQ(fs::file_size(store.index_path()), 16u + 3u * 32u);
  EXPECT_EQ(store.counters().corrupt, 0u);  // entries themselves untouched
}

TEST(ResultStore, TornCacheWriteIsQuarantinedWithForensicsFile) {
  TempDir dir;
  ResultStore store(dir.path);
  const Scenario s = short_ns2(77);
  const ExperimentResult fresh = ebrc::testbed::run_experiment(s);

  // The first store() write (ordinal 0) is torn in half right after the
  // atomic rename — the post-crash corruption a resumed sweep must survive.
  ebrc::testbed::fault::arm({{ebrc::testbed::fault::Kind::kTornCacheWrite, 0, 0}});
  store.store(s, fresh);
  ebrc::testbed::fault::disarm();
  const fs::path entry = store.path_for(s);
  ASSERT_TRUE(fs::exists(entry));
  EXPECT_FALSE(ebrc::testbed::validate_result_file(entry));

  // Loading diagnoses on stderr and moves the entry aside instead of
  // deleting it — *.corrupt is kept for forensics.
  testing::internal::CaptureStderr();
  EXPECT_FALSE(store.load(s).has_value());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[cache] quarantined"), std::string::npos) << err;
  EXPECT_FALSE(fs::exists(entry));
  fs::path forensics = entry;
  forensics += std::string(ebrc::testbed::quarantine_suffix());
  EXPECT_TRUE(fs::exists(forensics));
  auto c = store.counters();
  EXPECT_EQ(c.quarantined, 1u);
  EXPECT_EQ(c.corrupt, 1u);

  // Re-storing heals the cache; the forensics file stays.
  store.store(s, fresh);
  const auto healed = store.load(s);
  ASSERT_TRUE(healed.has_value());
  expect_identical(fresh, *healed);
  EXPECT_TRUE(fs::exists(forensics));
}

TEST(ResultStore, EntriesLandUnderFingerprintFanout) {
  TempDir dir;
  ResultStore store(dir.path);
  const Scenario s = short_ns2(3);
  const auto path = store.path_for(s);
  // <root>/<2 hex>/<fp16>-<seed16>-<salt16>.ebrcres
  EXPECT_EQ(path.parent_path().parent_path(), dir.path);
  EXPECT_EQ(path.parent_path().filename().string().size(), 2u);
  EXPECT_EQ(path.extension().string(), std::string(ebrc::testbed::result_file_extension()));
  const std::string stem = path.stem().string();
  EXPECT_EQ(stem.size(), 16u + 1 + 16u + 1 + 16u);
  EXPECT_EQ(stem.substr(0, 2), path.parent_path().filename().string());
}

}  // namespace
