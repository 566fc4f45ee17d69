// Process-level supervision for sweep cells.
//
// PR 7's fault tolerance is exception-level: a cell that SIGSEGVs, gets OOM
// killed, or wedges in an infinite loop still takes the whole BatchRunner
// process (and every in-flight cell) with it. This layer closes that gap for
// `--isolate=process` sweeps: each (scenario, seed) cell runs in a forked
// worker subprocess, the parent enforces a *hard* wall-clock deadline via
// SIGKILL, reaps exit status / termination signal / rusage, and captures a
// bounded tail of the worker's stderr for the failure manifest and the
// crash repro bundle.
//
// Design notes:
//  - fork() without exec(): the worker body is a plain callable, so the cell
//    runs the exact same code path as the in-process mode (bit-identical
//    results are an acceptance criterion). The child therefore inherits the
//    parent's entire address space — including mutexes another BatchRunner
//    thread may hold at the instant of fork. The worker body must only touch
//    fork-safe state: fresh objects it constructs itself and the lock-free
//    fault_injection read path. Sweep workers never write the result store:
//    they hand their bytes back and the parent stores them, so every store
//    write and fault ordinal lives in one process.
//  - The child's stdout AND stderr are both redirected onto the supervision
//    pipe: the parent's stdout stays bit-comparable across runs no matter
//    what a worker prints while dying.
//  - The child exits via _exit(), never exit(): the parent's stdio buffers
//    are inherited by the fork and must not be flushed a second time.
//  - PR_SET_PDEATHSIG ensures no worker outlives a crashed parent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

namespace ebrc::testbed {

/// How BatchRunner executes each cell attempt.
enum class IsolationMode {
  kInProcess,  // PR 7 behavior: cell runs on the pool thread (default)
  kProcess,    // each attempt runs in a forked, supervised worker subprocess
};

/// Parses an --isolate flag value ("none" | "process"). Throws
/// std::invalid_argument naming the valid values on anything else.
[[nodiscard]] IsolationMode isolation_from(const std::string& name);

/// Inverse of isolation_from, for diagnostics.
[[nodiscard]] const char* isolation_name(IsolationMode mode) noexcept;

/// Limits the supervisor enforces on one worker.
struct WorkerLimits {
  /// Hard wall-clock deadline in seconds; <= 0 disables the kill. This
  /// SIGKILL is the sweep's only cell deadline (--cell-deadline); it stops a
  /// wedged cell wherever it is stuck.
  double deadline_s = 0.0;
  /// How much of the end of the worker's stderr to keep.
  std::size_t stderr_tail_bytes = 8192;
};

/// What happened to one supervised worker.
struct WorkerOutcome {
  bool ok = false;       // exited 0 within the deadline
  bool crashed = false;  // died on a signal the supervisor did not send
  bool killed = false;   // SIGKILLed by the supervisor at the deadline
  int exit_code = -1;    // WEXITSTATUS when the worker exited normally
  int term_signal = 0;   // WTERMSIG when the worker died on a signal
  double elapsed_s = 0.0;
  long max_rss_kb = 0;  // ru_maxrss of the reaped worker
  std::string stderr_tail;

  /// One-line human-readable classification ("crashed: SIGSEGV", "killed at
  /// the 30 s cell deadline", "exited 1", ...).
  [[nodiscard]] std::string describe() const;
};

/// Forks, runs `body` in the child (its int return becomes the exit code;
/// an escaping exception prints to stderr and exits 1), and supervises from
/// the parent: polls the stderr pipe, kills at the deadline, reaps with
/// rusage. Never throws on worker misbehavior — that is all encoded in the
/// returned WorkerOutcome (fork/pipe setup failure reports ok = false with
/// the reason in stderr_tail).
[[nodiscard]] WorkerOutcome run_supervised(const std::function<int()>& body,
                                           const WorkerLimits& limits);

/// Human-readable name for a termination signal ("SIGSEGV", "signal 42").
[[nodiscard]] std::string signal_name(int sig);

/// Append-only JSONL telemetry for a sweep (--events-out). One object per
/// line, flushed per event so `tail -f` works mid-sweep. The first line is
/// always a schema header:
///
///   {"ts":...,"event":"schema","version":2,
///    "events":"cell_start cell_done cell_failed cell_crashed cell_killed retry sweep_done",
///    "fields":"ts event cell scenario seed attempt elapsed_s rss_kb detail obs"}
///
/// then one object per event:
///
///   {"ts":1754650000.123456,"event":"cell_crashed","cell":7,
///    "scenario":"fig16/b=0.25","seed":123456789,"attempt":0,
///    "elapsed_s":1.932,"rss_kb":51240,"detail":"crashed: SIGABRT"}
///
/// cell_done events additionally carry the cell's deterministic obs snapshot
/// as a nested object: ,"obs":{"kernel_events":12345,...}. sweep_done is a
/// sweep-level event (cell fields absent) carrying store counters the same
/// way. elapsed_s / rss_kb / detail are omitted when unknown. Thread-safe:
/// BatchRunner workers emit concurrently. scripts/validate_events.py checks
/// all of this strictly; README documents the schema.
class SweepEventFeed {
 public:
  /// Opens (truncates) the feed file and writes the schema header line.
  /// Throws std::runtime_error if the path cannot be opened — a sweep asked
  /// to record telemetry must not silently drop it.
  explicit SweepEventFeed(const std::filesystem::path& path);

  /// `extra_json` is a pre-rendered fragment appended verbatim before the
  /// closing brace (e.g. `,"obs":{...}`); empty means no extra fields.
  void emit(std::string_view event, std::size_t cell, std::string_view scenario,
            std::uint64_t seed, int attempt, double elapsed_s = -1.0, long rss_kb = -1,
            std::string_view detail = {}, std::string_view extra_json = {});

  /// Sweep-level event: no cell / scenario / seed / attempt fields.
  void emit_sweep(std::string_view event, std::string_view extra_json = {});

 private:
  // Serialises line CONSTRUCTION as well as the write: the ts stamp happens
  // under this lock, so timestamps are non-decreasing in file order — a
  // property scripts/validate_events.py checks.
  std::mutex mu_;
  std::ofstream out_;
};

}  // namespace ebrc::testbed
