// The fault-tolerant sweep execution layer, proven by injection:
//   * keep_going isolates K injected cell failures — every healthy cell
//     completes bit-identical to a fault-free run and the failure manifest
//     lists exactly the K injected cells,
//   * retries (process isolation only) reuse the cell's unchanged seed, so a
//     recovered transient fault is bit-identical to a run that never failed
//     (CRN preserved),
//   * a resumed sweep over the same store simulates ONLY the failed cells
//     and converges to bitwise equality with a clean cold run,
//   * deadlines and retries without process isolation are rejected, and an
//     isolated hang is SIGKILLed at its deadline,
//   * the parent process makes every store write, so a torn-cache injection
//     tears exactly one entry in either isolation mode,
//   * fail-fast (the default) rethrows with the cell named,
//   * the --inject-faults spec parser and the failure-manifest file format
//     round-trip and reject malformed input.
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "result_equality.hpp"
#include "testbed/batch.hpp"
#include "testbed/experiment.hpp"
#include "testbed/fault_injection.hpp"
#include "testbed/result_store.hpp"
#include "testbed/scenario.hpp"
#include "testbed/scenario_io.hpp"

namespace {

namespace fs = std::filesystem;

using ebrc::testbed::BatchRunner;
using ebrc::testbed::CellFailure;
using ebrc::testbed::ExperimentResult;
using ebrc::testbed::ResultStore;
using ebrc::testbed::RunPolicy;
using ebrc::testbed::Scenario;
using ebrc::testbed::ShardSpec;
using ebrc::testbed::SweepReport;
using ebrc::test::expect_identical;
namespace fault = ebrc::testbed::fault;

Scenario short_ns2(std::uint64_t seed) {
  auto s = ebrc::testbed::ns2_scenario(1, 1, 8, seed);
  s.duration_s = 4.0;
  s.warmup_s = 1.0;
  return s;
}

/// Disarms the process-wide injection plan on scope exit, so a failing
/// assertion can never leak an armed plan into the next test.
struct FaultGuard {
  ~FaultGuard() { fault::disarm(); }
};

/// A fresh directory under the system temp dir, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("ebrc_fault_tolerance_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

TEST(FaultInjection, PlanSpecParsesAndRejectsMalformedInput) {
  const auto plan =
      fault::parse_plan("throw@3,throw@7:1,torn-cache@0;torn-index@2");
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].kind, fault::Kind::kThrow);
  EXPECT_EQ(plan[0].key, 3u);
  EXPECT_EQ(plan[0].attempt, 0);
  EXPECT_EQ(plan[1].kind, fault::Kind::kThrow);
  EXPECT_EQ(plan[1].key, 7u);
  EXPECT_EQ(plan[1].attempt, 1);
  EXPECT_EQ(plan[2].kind, fault::Kind::kTornCacheWrite);
  EXPECT_EQ(plan[3].kind, fault::Kind::kTornIndexRecord);
  EXPECT_EQ(plan[3].key, 2u);

  const auto process_plan = fault::parse_plan("crash@1:*,hang@2,oom@4:1");
  ASSERT_EQ(process_plan.size(), 3u);
  EXPECT_EQ(process_plan[0].kind, fault::Kind::kCrash);
  EXPECT_EQ(process_plan[0].key, 1u);
  EXPECT_EQ(process_plan[0].attempt, fault::kEveryAttempt);
  EXPECT_EQ(process_plan[1].kind, fault::Kind::kHang);
  EXPECT_EQ(process_plan[1].attempt, 0);
  EXPECT_EQ(process_plan[2].kind, fault::Kind::kOomStorm);
  EXPECT_EQ(process_plan[2].attempt, 1);

  EXPECT_THROW((void)fault::parse_plan(""), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("explode@1"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("throw"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("throw@"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("throw@x"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("throw@1:"), std::invalid_argument);
  // Torn kinds fire by ordinal, not attempt — an attempt suffix is an error.
  EXPECT_THROW((void)fault::parse_plan("torn-cache@0:1"), std::invalid_argument);
  EXPECT_THROW((void)fault::parse_plan("torn-index@0:*"), std::invalid_argument);
}

TEST(FaultInjection, FireMatchesKeyAndAttemptAndCounts) {
  FaultGuard guard;
  fault::arm({{fault::Kind::kThrow, 2, 0},
              {fault::Kind::kThrow, 5, fault::kEveryAttempt},
              {fault::Kind::kTornCacheWrite, 1, 0}});
  EXPECT_TRUE(fault::armed());
  EXPECT_FALSE(fault::fire(fault::Kind::kThrow, 0, 0));  // wrong key
  EXPECT_FALSE(fault::fire(fault::Kind::kThrow, 2, 1));  // wrong attempt
  EXPECT_TRUE(fault::fire(fault::Kind::kThrow, 2, 0));
  EXPECT_TRUE(fault::fire(fault::Kind::kThrow, 5, 0));  // every attempt
  EXPECT_TRUE(fault::fire(fault::Kind::kThrow, 5, 3));
  EXPECT_FALSE(fault::fire(fault::Kind::kCrash, 2, 0));  // wrong kind
  EXPECT_TRUE(fault::fire(fault::Kind::kTornCacheWrite, 1));
  EXPECT_EQ(fault::fired(), 4u);

  fault::disarm();
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::fire(fault::Kind::kThrow, 2, 0));
}

TEST(FaultTolerance, KeepGoingIsolatesInjectedFailures) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/11, /*reps=*/6);
  const BatchRunner runner(3);
  const auto reference = runner.run(batch);  // faults disarmed: clean baseline

  // Two persistently failing cells; the other four must complete untouched.
  fault::arm({{fault::Kind::kThrow, 1, fault::kEveryAttempt},
              {fault::Kind::kThrow, 4, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  SweepReport rep;
  const auto out = runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 2u);
  EXPECT_EQ(rep.simulated, 4u);
  EXPECT_EQ(rep.timed_out, 0u);
  EXPECT_FALSE(rep.complete());
  ASSERT_EQ(rep.failures.size(), 2u);
  EXPECT_EQ(rep.failures[0].index, 1u);  // manifest is index-ordered
  EXPECT_EQ(rep.failures[1].index, 4u);
  for (const auto& f : rep.failures) {
    EXPECT_EQ(f.scenario, batch[f.index].name);
    EXPECT_EQ(f.seed, batch[f.index].seed);
    EXPECT_EQ(f.attempts, 1);
    EXPECT_NE(f.what.find("injected fault"), std::string::npos) << f.what;
    EXPECT_EQ(rep.available[f.index], 0);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i == 1 || i == 4) continue;
    EXPECT_EQ(rep.available[i], 1);
    expect_identical(reference[i], out[i]);
  }
}

TEST(FaultTolerance, RetryRecoversTransientFaultBitIdentically) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/13, /*reps=*/3);
  const BatchRunner runner(2);
  const auto reference = runner.run(batch);

  // Attempt 0 of cell 2 throws; attempt 1 (same seed) must succeed and
  // reproduce the fault-free run exactly — retries never perturb seeds.
  fault::arm({{fault::Kind::kThrow, 2, /*attempt=*/0}});
  RunPolicy policy;
  policy.max_retries = 1;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  SweepReport rep;
  const auto out = runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.retried, 1u);
  EXPECT_EQ(rep.simulated, batch.size());
  EXPECT_TRUE(rep.complete());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_identical(reference[i], out[i]);
}

TEST(FaultTolerance, ResumeConvergesToCleanColdRun) {
  FaultGuard guard;
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/17, /*reps=*/6);
  const BatchRunner runner(3);
  const auto reference = runner.run(batch);

  // Faulted first pass: cells 1 and 3 fail, the rest land in the store.
  ResultStore store(dir.path / "cache");
  fault::arm({{fault::Kind::kThrow, 1, fault::kEveryAttempt},
              {fault::Kind::kThrow, 3, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  SweepReport faulted;
  (void)runner.run(batch, &store, ShardSpec{}, &faulted, policy);
  EXPECT_EQ(faulted.failed, 2u);
  EXPECT_EQ(faulted.simulated, 4u);
  EXPECT_FALSE(faulted.complete());

  // Resume with the cause fixed: ONLY the failed cells simulate, and the
  // final sweep is bitwise equal to a clean cold run.
  fault::disarm();
  SweepReport resumed;
  const auto out = runner.run(batch, &store, ShardSpec{}, &resumed, policy);
  EXPECT_EQ(resumed.hits, 4u);
  EXPECT_EQ(resumed.simulated, 2u);
  EXPECT_EQ(resumed.failed, 0u);
  EXPECT_TRUE(resumed.complete());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_identical(reference[i], out[i]);

  // A fully warm pass touches nothing.
  SweepReport warm;
  (void)runner.run(batch, &store, ShardSpec{}, &warm, policy);
  EXPECT_EQ(warm.hits, batch.size());
  EXPECT_EQ(warm.simulated, 0u);
}

TEST(FaultTolerance, DeadlineAndRetriesWithoutIsolationAreRejected) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/19, /*reps=*/2);
  const BatchRunner runner(2);
  fault::arm({{fault::Kind::kThrow, 0, fault::kEveryAttempt}});
  RunPolicy deadline;
  deadline.cell_deadline_s = 600.0;
  RunPolicy retries;
  retries.max_retries = 1;
  for (const RunPolicy& policy : {deadline, retries}) {
    // Rejected before any cell runs: the armed throw would otherwise name
    // cell #0 in a runtime_error.
    EXPECT_THROW((void)runner.run(batch, nullptr, ShardSpec{}, nullptr, policy),
                 std::invalid_argument);
  }
}

TEST(FaultTolerance, InProcessHangThrowsAtOnce) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/47, /*reps=*/2);
  const BatchRunner runner(2);

  // Nothing in-process can stop a wedged cell, so the injection throws
  // instead of wedging the sweep.
  fault::arm({{fault::Kind::kHang, 1, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  SweepReport rep;
  (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.timed_out, 0u);
  EXPECT_EQ(rep.simulated, 1u);
  ASSERT_EQ(rep.failures.size(), 1u);
  EXPECT_EQ(rep.failures[0].index, 1u);
  EXPECT_NE(rep.failures[0].what.find("injected fault: hang"), std::string::npos)
      << rep.failures[0].what;
}

TEST(FaultTolerance, FailFastNamesTheFailingCell) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/23, /*reps=*/3);
  fault::arm({{fault::Kind::kThrow, 1, fault::kEveryAttempt}});
  try {
    (void)BatchRunner(2).run(batch);  // default policy: fail fast
    FAIL() << "expected the injected fault to abort the run";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep cell #1"), std::string::npos) << what;
    EXPECT_NE(what.find(batch[1].name), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(batch[1].seed)), std::string::npos) << what;
    EXPECT_NE(what.find("injected fault"), std::string::npos) << what;
  }
}

TEST(FaultTolerance, FailureManifestRoundTripsAndSanitizes) {
  TempDir dir;
  std::vector<CellFailure> failures(2);
  failures[0].index = 3;
  failures[0].scenario = "grid cell p=0.01 rtt=0.1";  // spaces: sanitized to '_'
  failures[0].seed = 0xdeadbeefcafe1234ull;
  failures[0].shard = 1;
  failures[0].attempts = 3;
  failures[0].timed_out = true;
  failures[0].elapsed_s = 12.5;
  failures[0].what = "line one\nline two";  // newlines: flattened to spaces
  failures[1].index = 7;
  failures[1].scenario = "clean-name";
  failures[1].seed = 42;
  failures[1].attempts = 1;
  failures[1].what = "std::bad_alloc";

  const fs::path path = dir.path / "sweep.failures";
  ebrc::testbed::save_failure_manifest(failures, path);
  const auto loaded = ebrc::testbed::load_failure_manifest(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].index, 3u);
  EXPECT_EQ(loaded[0].scenario, "grid_cell_p=0.01_rtt=0.1");
  EXPECT_EQ(loaded[0].seed, failures[0].seed);
  EXPECT_EQ(loaded[0].shard, 1u);
  EXPECT_EQ(loaded[0].attempts, 3);
  EXPECT_TRUE(loaded[0].timed_out);
  EXPECT_EQ(loaded[0].what, "line one line two");
  EXPECT_EQ(loaded[1].index, 7u);
  EXPECT_EQ(loaded[1].scenario, "clean-name");
  EXPECT_EQ(loaded[1].what, "std::bad_alloc");
  EXPECT_FALSE(loaded[1].timed_out);

  EXPECT_THROW((void)ebrc::testbed::load_failure_manifest(dir.path / "absent"),
               std::runtime_error);
}

TEST(FaultTolerance, FailureManifestRoundTripsCrashFieldsAndControlChars) {
  TempDir dir;
  std::vector<CellFailure> failures(2);
  failures[0].index = 2;
  // \v and \f are isspace for operator>> but were NOT sanitized pre-v2;
  // pipes and 0x01 ride along to prove all control chars flatten to '_'.
  failures[0].scenario = std::string("evil\vname\fwith|pipe\x01" "and\nnewline");
  failures[0].seed = 99;
  failures[0].attempts = 2;
  failures[0].crashed = true;
  failures[0].signal = 11;
  failures[0].what = "crashed: SIGSEGV";
  failures[1].index = 5;
  failures[1].scenario = "hung-cell";
  failures[1].timed_out = true;
  failures[1].signal = 9;
  failures[1].attempts = 1;
  failures[1].what = "killed at the cell deadline";

  const fs::path path = dir.path / "sweep.failures";
  ebrc::testbed::save_failure_manifest(failures, path);
  const auto loaded = ebrc::testbed::load_failure_manifest(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].scenario, "evil_name_with|pipe_and_newline");
  EXPECT_TRUE(loaded[0].crashed);
  EXPECT_EQ(loaded[0].signal, 11);
  EXPECT_FALSE(loaded[0].timed_out);
  EXPECT_EQ(loaded[0].what, "crashed: SIGSEGV");
  EXPECT_TRUE(loaded[1].timed_out);
  EXPECT_FALSE(loaded[1].crashed);
  EXPECT_EQ(loaded[1].signal, 9);
}

TEST(FaultTolerance, EmptyFailureManifestRoundTripsAsEmpty) {
  TempDir dir;
  const fs::path path = dir.path / "clean.failures";
  ebrc::testbed::save_failure_manifest({}, path);
  const auto loaded = ebrc::testbed::load_failure_manifest(path);
  EXPECT_TRUE(loaded.empty());
}

// ---- process isolation ------------------------------------------------------

TEST(ProcessIsolation, BitIdenticalToInProcessRun) {
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/29, /*reps=*/3);
  const BatchRunner runner(2);
  const auto reference = runner.run(batch);

  RunPolicy policy;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  SweepReport rep;
  const auto out = runner.run(batch, nullptr, ShardSpec{}, &rep, policy);
  EXPECT_TRUE(rep.complete());
  EXPECT_EQ(rep.simulated, batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_identical(reference[i], out[i]);
}

TEST(ProcessIsolation, WorkerCrashIsRetryableAndLeavesABundleAndResumes) {
  FaultGuard guard;
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/31, /*reps=*/4);
  const BatchRunner runner(2);
  const auto reference = runner.run(batch);

  // Cell 1 aborts in its worker subprocess on every attempt. In-process this
  // injection would kill the whole test binary — surviving it at all IS the
  // tentpole property.
  ResultStore store(dir.path / "cache");
  fault::arm({{fault::Kind::kCrash, 1, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  policy.max_retries = 1;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  policy.crash_dir = (dir.path / "crashes").string();
  policy.invocation = "unit-test-sweep --reps=4";
  SweepReport rep;
  (void)runner.run(batch, &store, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.crashed, 1u);
  EXPECT_EQ(rep.retried, 1u);
  EXPECT_EQ(rep.simulated, 3u);
  ASSERT_EQ(rep.failures.size(), 1u);
  const CellFailure& f = rep.failures[0];
  EXPECT_EQ(f.index, 1u);
  EXPECT_TRUE(f.crashed);
  EXPECT_EQ(f.signal, SIGABRT);
  EXPECT_FALSE(f.timed_out);
  EXPECT_EQ(f.attempts, 2);
  EXPECT_NE(f.what.find("SIGABRT"), std::string::npos) << f.what;
  EXPECT_NE(f.what.find("injected fault: crash"), std::string::npos)
      << "the worker's stderr tail must ride along: " << f.what;

  // Repro bundle: scenario TOML with the derived seed + forensics.
  const fs::path bundle = dir.path / "crashes" / "cell-1";
  EXPECT_TRUE(fs::exists(bundle / "scenario.toml"));
  EXPECT_TRUE(fs::exists(bundle / "stderr.txt"));
  EXPECT_TRUE(fs::exists(bundle / "status.txt"));
  EXPECT_TRUE(fs::exists(bundle / "repro.txt"));
  const Scenario replay = ebrc::testbed::load_scenario(bundle / "scenario.toml");
  EXPECT_EQ(replay.seed, batch[1].seed) << "the bundle must replay this exact cell";

  // Fault-free resume over the same store: only the crashed cell simulates,
  // and the sweep converges bitwise to the clean cold run.
  fault::disarm();
  RunPolicy resume_policy;
  resume_policy.keep_going = true;
  SweepReport resumed;
  const auto out = runner.run(batch, &store, ShardSpec{}, &resumed, resume_policy);
  EXPECT_EQ(resumed.hits, 3u);
  EXPECT_EQ(resumed.simulated, 1u);
  EXPECT_TRUE(resumed.complete());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_identical(reference[i], out[i]);
}

TEST(ProcessIsolation, HungWorkerIsKilledAtTheHardDeadline) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/37, /*reps=*/2);
  const BatchRunner runner(2);

  fault::arm({{fault::Kind::kHang, 0, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  policy.cell_deadline_s = 1.0;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  SweepReport rep;
  (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.timed_out, 1u);
  EXPECT_EQ(rep.crashed, 0u) << "a deadline kill is a timeout, not a crash";
  EXPECT_EQ(rep.simulated, 1u);  // the healthy cell completed meanwhile
  ASSERT_EQ(rep.failures.size(), 1u);
  EXPECT_EQ(rep.failures[0].index, 0u);
  EXPECT_TRUE(rep.failures[0].timed_out);
  EXPECT_EQ(rep.failures[0].signal, SIGKILL);
  EXPECT_GE(rep.failures[0].elapsed_s, 1.0);
  EXPECT_LT(rep.failures[0].elapsed_s, 60.0) << "the kill must not wait out the hang";
}

TEST(ProcessIsolation, ParentOwnsStoreWritesSoATornCacheOrdinalTearsOneEntry) {
  FaultGuard guard;
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/59, /*reps=*/4);
  const BatchRunner runner(2);
  RunPolicy policy;
  policy.keep_going = true;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;

  // Write ordinal 0 is torn. Workers do not write the store, so there is one
  // ordinal sequence for the sweep — one torn entry, not one per worker.
  fault::arm({{fault::Kind::kTornCacheWrite, 0}});
  SweepReport cold;
  {
    const ResultStore store(dir.path / "cache");
    (void)runner.run(batch, &store, ShardSpec{}, &cold, policy);
    EXPECT_EQ(cold.simulated, batch.size());
    EXPECT_EQ(store.counters().stored, cold.simulated);
  }
  fault::disarm();

  const ResultStore fresh(dir.path / "cache");
  SweepReport warm;
  (void)runner.run(batch, &fresh, ShardSpec{}, &warm, policy);
  EXPECT_EQ(fresh.counters().corrupt, 1u);
  EXPECT_EQ(warm.quarantined, 1u);
  EXPECT_EQ(warm.hits, 3u);
  EXPECT_EQ(warm.simulated, 1u);
  EXPECT_EQ(fresh.counters().stored, warm.simulated);
  EXPECT_TRUE(warm.complete());
}

TEST(ProcessIsolation, InjectedOomStormIsContainedAndAttributed) {
  FaultGuard guard;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/41, /*reps=*/2);
  const BatchRunner runner(1);

  fault::arm({{fault::Kind::kOomStorm, 1, fault::kEveryAttempt}});
  RunPolicy policy;
  policy.keep_going = true;
  policy.isolate = ebrc::testbed::IsolationMode::kProcess;
  SweepReport rep;
  (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);

  EXPECT_EQ(rep.failed, 1u);
  EXPECT_EQ(rep.crashed, 1u);
  EXPECT_EQ(rep.simulated, 1u);
  ASSERT_EQ(rep.failures.size(), 1u);
  EXPECT_TRUE(rep.failures[0].crashed);
  EXPECT_NE(rep.failures[0].what.find("oom storm"), std::string::npos)
      << rep.failures[0].what;
}

// ---- event feed through the batch layer -------------------------------------

TEST(EventFeed, SweepEmitsLifecycleEvents) {
  FaultGuard guard;
  TempDir dir;
  const auto batch = ebrc::testbed::replicate(short_ns2(0), /*root_seed=*/53, /*reps=*/3);
  const BatchRunner runner(2);

  const auto read_feed = [](const fs::path& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  };

  // In-process, cell 2 throws on every attempt → cell_failed.
  fault::arm({{fault::Kind::kThrow, 2, fault::kEveryAttempt}});
  const fs::path feed_path = dir.path / "events.jsonl";
  {
    ebrc::testbed::SweepEventFeed feed(feed_path);
    RunPolicy policy;
    policy.keep_going = true;
    policy.events = &feed;
    SweepReport rep;
    (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);
    EXPECT_EQ(rep.failed, 1u);
  }
  const std::string all = read_feed(feed_path);
  EXPECT_NE(all.find("\"event\":\"cell_start\""), std::string::npos);
  EXPECT_NE(all.find("\"event\":\"cell_done\""), std::string::npos);
  EXPECT_NE(all.find("\"event\":\"cell_failed\""), std::string::npos);
  EXPECT_NE(all.find("\"detail\":\"injected fault"), std::string::npos);

  // Under process isolation, cell 1 throws on attempt 0 and recovers on
  // attempt 1 → retry + cell_done.
  fault::arm({{fault::Kind::kThrow, 1, 0}});
  const fs::path retry_path = dir.path / "retry-events.jsonl";
  {
    ebrc::testbed::SweepEventFeed feed(retry_path);
    RunPolicy policy;
    policy.keep_going = true;
    policy.max_retries = 1;
    policy.isolate = ebrc::testbed::IsolationMode::kProcess;
    policy.events = &feed;
    SweepReport rep;
    (void)runner.run(batch, nullptr, ShardSpec{}, &rep, policy);
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_EQ(rep.retried, 1u);
  }
  const std::string retried = read_feed(retry_path);
  EXPECT_NE(retried.find("\"event\":\"retry\""), std::string::npos);
  EXPECT_NE(retried.find("\"event\":\"cell_done\""), std::string::npos);
}

}  // namespace
