// perfbench_driver: runs one benchmark workload against libfannet and prints
// its raw measurements as one JSON line on stdout.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE] [--setup-only 1]
//
// Workloads: fig4_pipeline, serve_closed_loop, sat_p2.  The line holds every
// item's latency and outcome, the timed wall time, the peak RSS of the
// timed region and the oracle's findings;
// perfbench/run.py computes the metrics from it.  With --trace 1 the spans
// go to --trace-out as Chrome trace-event JSON.  With --setup-only 1 the
// driver sets the workload up, prints `ready` and exits.  Exit status: 0
// when every output matched the oracle, 1 when one did not (or the run
// failed), 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace {

using fannet::serve::Json;
using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "fig4_pipeline|serve_closed_loop|sat_p2 --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--setup-only 1]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else if (flag == "--setup-only") {
        args.setup_only = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (args.seconds <= 0) usage("--seconds must be positive");
  if (args.trace && args.trace_out.empty()) usage("--trace 1 needs --trace-out");
  // Next to the binary, in the build directory.
  args.spool = std::string(argv[0]) + ".spool-" + std::to_string(::getpid());
  return args;
}

Json numbers(const std::vector<double>& values) {
  Json list = Json::array();
  for (const double v : values) list.push_back(Json::number(v));
  return list;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  trace::enable(args.trace);
  RunResult run;
  try {
    if (args.workload == "fig4_pipeline") {
      run = run_fig4(args);
    } else if (args.workload == "serve_closed_loop") {
      run = run_serve(args);
    } else if (args.workload == "sat_p2") {
      run = run_sat(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  if (args.setup_only) return 0;
  trace::enable(false);
  if (args.trace) trace::write_chrome(args.trace_out);

  bool wrong = !run.mismatches.empty();
  Json outcomes = Json::array();
  for (const Outcome o : run.items.outcomes) {
    outcomes.push_back(Json::string(std::string(outcome_name(o))));
    wrong = wrong || o == Outcome::kWrong;
  }
  Json mismatches = Json::array();
  for (const std::string& m : run.mismatches) {
    std::fprintf(stderr, "oracle mismatch: %s\n", m.c_str());
    mismatches.push_back(Json::string(m));
  }
  Json out = Json::object();
  out.set("workload", Json::string(args.workload));
  out.set("seed", Json::integer(static_cast<std::int64_t>(args.seed)));
  out.set("latency_ms", numbers(run.items.latency_ms));
  out.set("outcomes", std::move(outcomes));
  out.set("wall_s", Json::number(run.wall_s));
  out.set("item_limit_ms", Json::number(run.item_limit_ms));
  out.set("peak_rss_mb", Json::number(run.peak_rss_mb));
  out.set("mismatches", std::move(mismatches));
  out.set("info", run.info);
  std::printf("%s\n", out.dump().c_str());
  return wrong ? 1 : 0;
}
