// sat_p2: one item is one P2 query through the `sat` engine, run serially.
//
// A run is one robust query on the paper-scale case-study net (a
// seed-drawn correctly classified test row at +/-1%: CNF encoding plus an
// UNSAT proof, 3-12 s depending on the row) in the middle of vulnerable
// queries on seeded small random nets asked about the wrong label at range
// 5 (the lex-lowest-witness minimizer, a few hundred milliseconds each),
// as many as fill --seconds.  Vulnerable case-study queries take minutes
// under `sat`, so the minimizer is measured on the small nets.  One robust
// query, not several, because the row's cost moves the run's wall time:
// each further row adds its spread to the throughput's.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "mc/sat_engine.hpp"
#include "nn/network.hpp"
#include "oracle.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "verify/engine.hpp"
#include "verify/task.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fc = fannet::core;
namespace fv = fannet::verify;
namespace nn = fannet::nn;
using fannet::util::Stopwatch;

namespace {

/// The item count of a run follows --seconds, not the machine's speed, so
/// a run's item count and tail percentile are fixed: the robust query
/// takes about kRobustSeconds (the median over the rows) and a small-net
/// query about kSmallSeconds on the 4-vCPU machine the benchmark was
/// written on.
constexpr double kRobustSeconds = 9.0;
constexpr double kSmallSeconds = 0.25;
/// Untimed small-net queries, from their own seed stream, that warm the
/// solver's code and the allocator before the first timed item.
constexpr std::size_t kWarmup = 3;
/// A step quota no query reaches: the engine's own conflict budget bounds
/// every solve first.
constexpr std::uint64_t kUnlimitedStep = std::uint64_t{1} << 40;

struct Inputs {
  std::deque<nn::QuantizedNetwork> nets;  // stable addresses for Query::net
  std::vector<fv::Query> queries;
  std::vector<fv::VerifyResult> expected;
  std::size_t robust_at = 0;  // index of the robust query
};

/// Indices of the test rows the case-study net classifies correctly.
std::vector<std::size_t> correct_rows(const fc::CaseStudy& cs) {
  const std::vector<std::size_t> bad =
      fc::Fannet(cs.qnet).validate_p1(cs.test_x, cs.test_y);
  std::vector<std::size_t> rows;
  for (std::size_t s = 0; s < cs.test_x.rows(); ++s) {
    if (std::find(bad.begin(), bad.end(), s) == bad.end()) rows.push_back(s);
  }
  return rows;
}

/// +/-1% around a correctly classified case-study row: robust, since the
/// net's noise tolerance is +/-10%.
fv::Query robust_query(const fc::CaseStudy& cs,
                       std::span<const fannet::util::i64> x, int label) {
  return fc::Fannet(cs.qnet).make_query(
      x, label, fv::NoiseBox::symmetric(x.size(), 1), false);
}

std::size_t small_count(double seconds) {
  return static_cast<std::size_t>(
      std::max(10.0, std::round((seconds - kRobustSeconds) / kSmallSeconds)));
}

/// The run's queries with their oracle answers: `small` small-net queries
/// with the robust one in the middle.
Inputs make_inputs(const fc::CaseStudy& cs, const std::vector<std::size_t>& rows,
                   std::uint64_t seed, std::size_t small) {
  fannet::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL);
  Inputs out;
  const std::size_t row = rows[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(rows.size()) - 1))];
  for (std::size_t i = 0; i < small; ++i) {
    if (i == small / 2) {
      out.robust_at = out.queries.size();
      out.queries.push_back(robust_query(cs, cs.test_x.row(row), cs.test_y[row]));
    }
    out.queries.push_back(small_net_query(rng.next_u64(), out.nets.emplace_back()));
  }
  const trace::Suspend untraced;
  for (const fv::Query& q : out.queries) {
    out.expected.push_back(fv::engine("bnb").verify(q));
  }
  return out;
}

}  // namespace

fv::Query small_net_query(std::uint64_t seed, nn::QuantizedNetwork& net) {
  net = nn::QuantizedNetwork::quantize(nn::Network::random({3, 3, 2}, seed),
                                       100);
  fannet::util::Rng rng(seed ^ 0x5bd1e995ULL);
  fv::Query q;
  q.net = &net;
  for (int i = 0; i < 3; ++i) q.x.push_back(rng.uniform_int(1, 100));
  q.true_label = 1 - net.classify_noised(q.x, {});
  q.box = fv::NoiseBox::symmetric(q.x.size(), 5);
  return q;
}

std::vector<fv::Query> sat_replay_queries(const fc::CaseStudy& cs,
                                          const Samples& samples,
                                          std::uint64_t seed,
                                          nn::QuantizedNetwork& small_net) {
  const std::vector<std::size_t> bad =
      fc::Fannet(cs.qnet).validate_p1(samples.x, samples.y);
  std::size_t row = 0;
  while (std::find(bad.begin(), bad.end(), row) != bad.end()) ++row;
  return {robust_query(cs, samples.x.row(row), samples.y[row]),
          small_net_query(seed, small_net)};
}

fv::VerifyResult sat_decide_traced(const fv::Query& query, std::uint64_t item) {
  trace::Span span("sat.query", item);
  const std::unique_ptr<fv::EngineTask> task =
      fv::engine("sat").make_task(query, fv::VerifyContext{});
  {
    const trace::Span encode("sat.encode", item);
    task->step(1);
  }
  if (task->state() != fv::TaskState::kDone) {
    const trace::Span decide("sat.decide", item);
    task->step(kUnlimitedStep);
  }
  {
    trace::Span minimize("sat.minimize", item);
    std::uint64_t probes = 0;
    for (; task->state() != fv::TaskState::kDone; ++probes) {
      task->step(kUnlimitedStep);
    }
    minimize.arg("probes", static_cast<double>(probes));
  }
  span.arg("conflicts", static_cast<double>(task->result().work));
  return task->result();
}

RunResult run_sat(const Args& args) {
  RunResult run;
  const fc::CaseStudy cs = case_study_setup();
  if (setup_done(args)) return run;
  const std::vector<std::size_t> rows = correct_rows(cs);
  run.item_limit_ms = 180e3;  // the engine's conflict budget bounds a query

  const fv::Engine& sat = fv::engine("sat");
  const Inputs inputs = make_inputs(cs, rows, args.seed, small_count(args.seconds));
  {
    const trace::Suspend untraced;
    fannet::util::Rng rng(~args.seed);
    for (std::size_t i = 0; i < kWarmup; ++i) {
      nn::QuantizedNetwork net;
      (void)sat.verify(small_net_query(rng.next_u64(), net));
    }
  }
  ItemLog traced;
  reset_peak_rss();
  for (std::size_t i = 0; i < inputs.queries.size(); ++i) {
    // The traced run alternates untraced and traced items, so both sides
    // of the overhead comparison see the same machine state.
    const bool on = args.trace && i % 2 == 1;
    trace::enable(on);
    const Stopwatch watch;
    const fv::VerifyResult result = on ? sat_decide_traced(inputs.queries[i], i + 1)
                                       : sat.verify(inputs.queries[i]);
    const double s = watch.seconds();
    run.wall_s += s;
    std::vector<std::string> diffs;
    (on ? traced : run.items).add(s * 1e3, judge(result, inputs.expected[i], &diffs));
    for (std::string& d : diffs) run.mismatch("sat item: " + std::move(d));
  }
  run.peak_rss_mb = peak_rss_mb();
  if (args.trace) {
    trace::enable(true);
    record_overhead(run.items, traced);
    run.items.append(traced);
  }
  std::int64_t robust = 0;
  for (const fv::VerifyResult& e : inputs.expected) {
    robust += e.verdict == fv::Verdict::kRobust ? 1 : 0;
  }
  Digest digest;
  for (const fv::Query& q : inputs.queries) {
    digest.add(static_cast<std::int64_t>(q.net->fingerprint()));
    for (const fannet::util::i64 v : q.x) digest.add(v);
    digest.add(q.true_label);
    digest.add(q.box.hi.front());
  }
  run.info.set("inputs_digest", fannet::serve::Json::string(digest.hex()));
  run.info.set("queries", fannet::serve::Json::integer(
                             static_cast<std::int64_t>(inputs.queries.size())));
  run.info.set("robust_queries", fannet::serve::Json::integer(robust));
  if (robust != 1) run.mismatch("a run must hold exactly one robust query");
  if (!args.trace) return run;

  const fv::Query& robust_q = inputs.queries[inputs.robust_at];
  LayerInputs layer{.cs = &cs, .seed = args.seed};
  layer.samples.x = fannet::la::Matrix<fannet::util::i64>(1, cs.test_x.cols());
  std::copy(robust_q.x.begin(), robust_q.x.end(), layer.samples.x.row(0).begin());
  layer.samples.y.push_back(robust_q.true_label);
  layer.queries = inputs.queries;
  for (std::size_t i = 0; i < layer.queries.size(); ++i) layer.stream.push_back(i);
  layer.sat_queries = {robust_q, inputs.queries.front()};
  replay_layers(layer);
  return run;
}

}  // namespace perfbench
