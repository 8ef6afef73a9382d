/// \file
/// \brief Shared vocabulary of the benchmark driver: run arguments, item
/// outcomes, the raw result every workload returns, and the timed loop.
///
/// The driver measures and checks; it does no statistics.  Each workload
/// returns every item's latency and outcome, and perfbench/run.py turns
/// them into the end-to-end metrics, so the arithmetic lives (and is
/// tested) in one place.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/json.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

/// Worker threads and client connections: the 4-core machine the
/// benchmark was written for.
inline constexpr std::size_t kThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace-event JSON written in trace mode
  /// Set up, print `ready` on stdout and exit: perfbench/run.py times
  /// setup_s from process start to that line, in separate processes.
  bool setup_only = false;
  std::string spool;  ///< file the item log is spooled to during the run
};

/// How one attempted item ended.  Everything except kOk is a failure, and
/// a failed item counts as missing any latency limit.
enum class Outcome : std::uint8_t {
  kOk,
  kWrong,            ///< verdict or witness differs from the oracle
  kError,            ///< the server answered with an `error` frame
  kSaturated,        ///< the server refused the request (admission control)
  kTimeout,          ///< no reply within the item limit
  kResourceLimited,  ///< the engine gave up (budget or deadline)
};

[[nodiscard]] std::string_view outcome_name(Outcome outcome);

/// Latency and outcome of every attempted item, in completion order.
struct ItemLog {
  std::vector<double> latency_ms;
  std::vector<Outcome> outcomes;

  void add(double ms, Outcome outcome) {
    latency_ms.push_back(ms);
    outcomes.push_back(outcome);
  }
  void append(const ItemLog& other);
};

/// The item log of a long run, kept in a file while the run is timed so
/// that its growth (which follows throughput) stays out of peak_rss_mb.
class ItemSpool {
 public:
  explicit ItemSpool(const std::string& path);
  ~ItemSpool();
  ItemSpool(const ItemSpool&) = delete;
  ItemSpool& operator=(const ItemSpool&) = delete;

  void add(const ItemLog& log);
  /// Every spooled item, in order; removes the file.
  [[nodiscard]] ItemLog read_back();

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
};

struct RunResult {
  ItemLog items;
  double wall_s = 0.0;          ///< time inside the timed region
  double peak_rss_mb = 0.0;     ///< high-water mark of the timed region
  double item_limit_ms = 0.0;   ///< longest the benchmark waits for an item
  std::vector<std::string> mismatches;  ///< oracle findings (first few)
  /// Facts for the human-readable report (paper values, repeat share, ...).
  fannet::serve::Json info = fannet::serve::Json::object();

  void mismatch(std::string what);
};

/// FNV-1a over a workload's generated inputs, reported as
/// `info.inputs_digest` so a check can show that two seeds differ.
class Digest {
 public:
  void add(std::int64_t value);
  void add(std::string_view bytes);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Runs `round` until `seconds` of timed work have accumulated and returns
/// that time.  `round` returns the seconds it spent inside its timed part,
/// so checking and input generation between items stay outside it.
double timed_rounds(double seconds, const std::function<double(std::size_t)>& round);

/// True in set-up-only mode, after printing the `ready` line: the
/// workload returns at once.  Every workload calls it right after its
/// set-up.
[[nodiscard]] bool setup_done(const Args& args);

/// Restricts this thread, and every thread it starts afterwards, to the
/// first `count` CPUs it may run on (all of them when it may run on fewer).
void pin_to_cpus(std::size_t count);

/// Resets this process's resident-memory high-water mark, so that
/// peak_rss_mb() covers only what runs after the call (the timed region,
/// not the set-up and the oracle).
void reset_peak_rss();

/// Resident-memory high-water mark of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

RunResult run_fig4(const Args& args);
RunResult run_serve(const Args& args);
RunResult run_sat(const Args& args);

}  // namespace perfbench
