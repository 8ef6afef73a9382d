// The traced run's layer replay: the workload's generated inputs sent
// through each layer's public calls, one span per call (or per timed loop
// where a single call is too short to time), with the counts the
// per-layer ratios need as span arguments.  perfbench/trace_summary.py
// turns the spans into the per-layer metrics.
#include <algorithm>
#include <memory>

#include "core/translate.hpp"
#include "nn/batch_eval.hpp"
#include "serve/server.hpp"
#include "tests/serve_harness.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "verify/engine.hpp"
#include "verify/query_cache.hpp"
#include "verify/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fc = fannet::core;
namespace fv = fannet::verify;
namespace fs = fannet::serve;
namespace nn = fannet::nn;

namespace {

constexpr int kRepeats = 3;

double count(std::size_t n) { return static_cast<double>(n); }

/// run_all at 1 and kThreads workers, and the same queries as direct
/// Engine::verify calls (the scheduler's overhead is the difference).
void replay_scheduler(const std::vector<fv::Query>& queries) {
  const fv::Engine& cascade = fv::engine("cascade");
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (const std::size_t threads : {std::size_t{1}, kThreads}) {
      trace::Span span("scheduler.run_all");
      span.arg("threads", count(threads));
      span.arg("queries", count(queries.size()));
      (void)fv::Scheduler({.threads = threads}).run_all(queries, cascade);
    }
    trace::Span span("scheduler.direct");
    span.arg("queries", count(queries.size()));
    for (const fv::Query& q : queries) (void)cascade.verify(q);
  }
}

/// The cascade's stages in cascade order through the registry, each on the
/// queries its predecessors left kUnknown.
void replay_cascade_stages(const std::vector<fv::Query>& queries) {
  std::vector<std::size_t> pending(queries.size());
  for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;
  for (const char* stage : {"interval", "symbolic", "bnb"}) {
    const fv::Engine& engine = fv::engine(stage);
    trace::Span span(std::string("verify.") + stage);
    span.arg("queries", count(pending.size()));
    span.arg("batch", count(queries.size()));
    std::vector<std::size_t> left;
    double work = 0.0;
    for (const std::size_t i : pending) {
      const fv::VerifyResult r = engine.verify(queries[i]);
      work += static_cast<double>(r.work);
      if (r.verdict == fv::Verdict::kUnknown) left.push_back(i);
    }
    span.arg("decided", count(pending.size() - left.size()));
    span.arg("work", work);  // bnb: boxes explored
    pending = std::move(left);
  }
}

/// BatchEvaluator::run over lanes drawn from the queries' noise boxes, at
/// the automatic lane count and at one lane.  Batches are staged first so
/// the span covers run() alone.
void replay_batch_eval(const std::vector<fv::Query>& queries,
                       std::uint64_t seed) {
  const nn::QuantizedNetwork& net = *queries.front().net;
  const nn::BatchEvaluator evaluator(net);
  double macs_per_lane = 0.0;
  for (const nn::QLayer& layer : net.layers()) {
    macs_per_lane += count(layer.in_dim() * layer.out_dim());
  }
  constexpr std::size_t kLanesStaged = 4096;
  constexpr std::size_t kLanesRun = std::size_t{1} << 21;
  for (const std::size_t lanes :
       {nn::BatchEvaluator::resolve_batch(0), std::size_t{1}}) {
    fannet::util::Rng rng(seed);
    std::vector<nn::BatchEvaluator::Batch> batches;
    std::vector<int> deltas;
    for (std::size_t k = 0, lane = 0; lane < kLanesStaged; ++k) {
      const fv::Query& q = queries[k % queries.size()];
      if (q.net != &net || q.bias_node) continue;
      if (batches.empty() || batches.back().lanes() == lanes) {
        batches.push_back(evaluator.make_batch());
      }
      deltas.clear();
      for (std::size_t d = 0; d < q.x.size(); ++d) {
        deltas.push_back(static_cast<int>(rng.uniform_int(q.box.lo[d], q.box.hi[d])));
      }
      batches.back().push_noised(q.x, deltas, nn::kNoiseDen);
      ++lane;
    }
    const std::size_t runs = kLanesRun / lanes;
    trace::Span span("nn.batch_eval");
    for (std::size_t r = 0; r < runs; ++r) evaluator.run(batches[r % batches.size()]);
    span.arg("lanes_per_batch", count(lanes));
    span.arg("lanes", count(runs * lanes));
    span.arg("macs", count(runs * lanes) * macs_per_lane);
  }
}

/// The query stream (repeats included) through a fresh QueryCache: a miss
/// is decided by cascade and inserted.
void replay_cache(const std::vector<fv::Query>& queries,
                  const std::vector<std::size_t>& stream) {
  const fv::Engine& cascade = fv::engine("cascade");
  fv::QueryCache cache;
  for (const std::size_t i : stream) {
    std::optional<fv::VerifyResult> hit;
    {
      trace::Span span("cache.lookup");
      hit = cache.lookup(queries[i], cascade);
      span.arg("hit", hit.has_value() ? 1.0 : 0.0);
    }
    if (hit) continue;
    const fv::VerifyResult result = cascade.verify(queries[i]);
    const trace::Span span("cache.insert");
    cache.insert(queries[i], cascade, result);
  }
  trace::counters("cache.stats", {{"entries", count(cache.size())}});
}

/// An idle server on the case-study fleet: ping round trips, cold served
/// verify against direct Scheduler::verify_one on the same queries (both
/// with an empty cache), and a few batch and tolerance requests.
void replay_serve(const LayerInputs& in) {
  const fc::CaseStudy& cs = *in.cs;
  std::vector<fs::ServeModel> fleet;
  fleet.push_back(fs::ServeModel{.name = "casestudy",
                                 .net = cs.qnet,
                                 .inputs = cs.test_x,
                                 .labels = cs.test_y});
  fv::QueryCache served_cache;
  fs::ServeOptions options;
  options.threads = kThreads;
  options.cache = &served_cache;
  fs::Server server(std::move(fleet), options);
  {
    const trace::Span span("setup.server_start");
    server.start();
  }
  fs::harness::ServeClient client(server.port(), 30000);
  std::uint64_t id = 0;
  for (int i = 0; i < 200; ++i) {
    const trace::Span span("serve.ping");
    (void)client.call(fs::harness::simple_request(++id, "ping"));
  }

  std::vector<const fv::Query*> picked;
  for (const fv::Query& q : in.queries) {
    if (q.net == &cs.qnet && !q.bias_node && picked.size() < 100) picked.push_back(&q);
  }
  fv::QueryCache direct_cache;
  const fv::Scheduler direct({.threads = kThreads, .cache = &direct_cache});
  const fv::Engine& cascade = fv::engine("cascade");
  for (const fv::Query* q : picked) {
    {
      trace::Span span("serve.verify");
      span.arg("cold", 1.0);
      (void)client.call(fs::harness::verify_request(++id, q->x, q->true_label,
                                                    q->box.hi.front()));
    }
    const trace::Span span("scheduler.verify_one");
    (void)direct.verify_one(*q, cascade);
  }

  fannet::util::Rng rng(in.seed);
  for (int i = 0; i < 10; ++i) {
    const auto s = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(in.samples.x.rows()) - 1));
    const auto row = in.samples.x.row(s);
    const std::vector<fannet::util::i64> x(row.begin(), row.end());
    std::vector<int> ranges;
    for (int k = 0; k < 8; ++k) ranges.push_back(static_cast<int>(rng.uniform_int(1, 50)));
    {
      const trace::Span span("serve.batch");
      (void)client.call(fs::harness::batch_request(++id, x, in.samples.y[s], ranges));
    }
    fs::Json tolerance = fs::harness::request_base(++id, "tolerance");
    tolerance.set("x", fs::harness::int_array(x));
    tolerance.set("true_label", fs::Json::integer(in.samples.y[s]));
    const trace::Span span("serve.tolerance");
    (void)client.call(tolerance.dump());
  }
  const fs::ServerStats stats = server.stats();
  trace::counters("serve.stats",
                  {{"rejected", count(stats.rejected_saturated)},
                   {"errors", count(stats.errors)}});
  server.stop();
}

void replay_sat(const std::vector<fv::Query>& queries) {
  for (std::size_t i = 0; i < queries.size(); ++i) {
    {
      const trace::Span span("sat.translate", i + 1);
      (void)fc::translate_sample(queries[i]);
    }
    (void)sat_decide_traced(queries[i], i + 1);
  }
}

}  // namespace

void replay_layers(const LayerInputs& in) {
  const trace::Span span("replay");
  (void)run_pass(*in.cs, in.samples, PassConfig{});
  replay_scheduler(in.queries);
  replay_cascade_stages(in.queries);
  replay_batch_eval(in.queries, in.seed);
  replay_cache(in.queries, in.stream);
  replay_serve(in);
  replay_sat(in.sat_queries);
}

void record_overhead(const ItemLog& untraced, const ItemLog& traced) {
  const auto median = [](std::vector<double> ms) {
    if (ms.empty()) return 0.0;
    std::nth_element(ms.begin(), ms.begin() + static_cast<std::ptrdiff_t>(ms.size() / 2), ms.end());
    return ms[ms.size() / 2];
  };
  trace::counters("trace.overhead",
                  {{"untraced_ms", median(untraced.latency_ms)},
                   {"traced_ms", median(traced.latency_ms)},
                   {"untraced_items", count(untraced.latency_ms.size())},
                   {"traced_items", count(traced.latency_ms.size())}});
}

}  // namespace perfbench
