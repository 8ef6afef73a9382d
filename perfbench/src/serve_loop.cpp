// serve_closed_loop: an in-process serve::Server on an ephemeral port,
// serving the paper-scale fleet with kServeThreads workers and one shared
// QueryCache, driven by kServeThreads client connections in a closed loop
// (each sends its next request only after its last reply arrives) -- how
// fannet_serve's callers (CI drivers, sweep clients) use it.
//
// A round replays two existing callers' request streams against a cold
// cache, so its mix and repeat share come from them:
//   1. bench/bench_serve.cpp's cold pass: one `verify` (cascade) for every
//      test sample at every range of the Fig. 4 grid 5:50:5 (fannet_cli's
//      --grid default, docs/cli.md);
//   2. `fannet_cli tolerance` issued over the wire: per test sample one
//      `tolerance` request at fannet_cli's --start-range 50 and one `batch`
//      holding the sample's row of the misclassification table (the grid);
//   3. bench_serve's warm pass: the requests of step 1 again.
// The seed orders the requests within each step.  The cache is cleared
// between rounds, so every round starts cold.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <deque>
#include <optional>
#include <thread>

#include "oracle.hpp"
#include "serve/server.hpp"
#include "tests/serve_harness.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "verify/engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fc = fannet::core;
namespace fv = fannet::verify;
namespace fs = fannet::serve;
using fannet::serve::Json;
using fannet::serve::harness::ServeClient;
using fannet::util::Stopwatch;

namespace {

/// Server workers, client connections, and the CPUs the process is pinned
/// to.  Each request hops between a client, a connection reader and a
/// worker thread; unpinned, every hop may wake another, idle vCPU, and on
/// a shared VM that wake-up waits for the hypervisor.  Unpinned with four
/// workers and four connections the figures swung with the host's steal
/// far more than a change under test moves them (see README.md).
constexpr std::size_t kServeThreads = 2;
constexpr int kGridLo = 5;
constexpr int kGridHi = 50;
constexpr int kGridStep = 5;
constexpr int kStartRange = 50;
constexpr std::uint64_t kReplyLimitMs = 30000;

enum class Kind : std::uint8_t { kVerify, kBatch, kTolerance };

struct Request {
  Kind kind = Kind::kVerify;
  std::size_t sample = 0;
  std::vector<int> ranges;  // one for verify, the grid for batch
  std::string frame;
};

std::vector<int> grid_ranges() {
  std::vector<int> ranges;
  for (int r = kGridLo; r <= kGridHi; r += kGridStep) ranges.push_back(r);
  return ranges;
}

/// Answers of the bnb engine for the whole grid, and the tolerance
/// analysis by bnb for every sample.
struct Oracle {
  std::vector<std::vector<fv::VerifyResult>> grid;  // [sample][range]
  std::vector<fc::SampleTolerance> tolerance;       // [sample]

  [[nodiscard]] const fv::VerifyResult& at(std::size_t sample, int range) const {
    return grid[sample][static_cast<std::size_t>((range - kGridLo) / kGridStep)];
  }
};

Oracle make_oracle(const fs::ServeModel& model) {
  const trace::Suspend untraced;
  const fc::Fannet fannet(model.net);
  const std::vector<int> ranges = grid_ranges();
  std::vector<fv::Query> queries;
  for (std::size_t s = 0; s < model.inputs.rows(); ++s) {
    for (const int r : ranges) {
      queries.push_back(fannet.make_query(
          model.inputs.row(s), model.labels[s],
          fv::NoiseBox::symmetric(model.inputs.cols(), r), false));
    }
  }
  const std::vector<fv::VerifyResult> results = oracle_results(queries);
  Oracle oracle;
  for (auto it = results.begin(); it != results.end();
       it += static_cast<std::ptrdiff_t>(ranges.size())) {
    oracle.grid.emplace_back(it, it + static_cast<std::ptrdiff_t>(ranges.size()));
  }
  fc::ToleranceConfig config;
  config.start_range = kStartRange;
  config.engine = fc::Engine::kBnB;
  config.threads = kThreads;
  oracle.tolerance =
      fannet.analyze_tolerance(model.inputs, model.labels, config).per_sample;
  return oracle;
}

std::vector<fannet::util::i64> row_of(const fs::ServeModel& model,
                                      std::size_t s) {
  const auto row = model.inputs.row(s);
  return {row.begin(), row.end()};
}

template <typename T>
void shuffle(std::vector<T>& items, fannet::util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
  }
}

/// The round's request sequence (see the top of this file); `id` numbers
/// requests across rounds.
std::vector<Request> make_round(const fs::ServeModel& model,
                                fannet::util::Rng& rng, std::uint64_t& id) {
  const std::vector<int> ranges = grid_ranges();
  std::vector<Request> table;    // steps 1 and 3
  std::vector<Request> session;  // step 2
  for (std::size_t s = 0; s < model.inputs.rows(); ++s) {
    for (const int r : ranges) table.push_back({Kind::kVerify, s, {r}, {}});
    session.push_back({Kind::kTolerance, s, {}, {}});
    session.push_back({Kind::kBatch, s, ranges, {}});
  }
  shuffle(table, rng);
  shuffle(session, rng);
  std::vector<Request> round = table;
  round.insert(round.end(), session.begin(), session.end());
  shuffle(table, rng);
  round.insert(round.end(), table.begin(), table.end());

  for (Request& req : round) {
    const std::vector<fannet::util::i64> x = row_of(model, req.sample);
    const int label = model.labels[req.sample];
    switch (req.kind) {
      case Kind::kVerify:
        req.frame = fs::harness::verify_request(++id, x, label, req.ranges[0]);
        break;
      case Kind::kBatch:
        req.frame = fs::harness::batch_request(++id, x, label, req.ranges);
        break;
      case Kind::kTolerance: {
        Json frame = fs::harness::request_base(++id, "tolerance");
        frame.set("x", fs::harness::int_array(x));
        frame.set("true_label", Json::integer(label));
        frame.set("start_range", Json::integer(kStartRange));
        req.frame = frame.dump();
        break;
      }
    }
  }
  return round;
}

fv::Counterexample counterexample_from_json(const Json& cex) {
  fv::Counterexample c;
  for (const Json& d : cex.find("deltas")->as_array()) {
    c.deltas.push_back(static_cast<int>(d.as_int()));
  }
  c.bias_delta = static_cast<int>(cex.find("bias_delta")->as_int());
  c.mis_label = static_cast<int>(cex.find("mis_label")->as_int());
  return c;
}

fv::VerifyResult result_from_json(const Json& body) {
  fv::VerifyResult r;
  const std::string& verdict = body.find("verdict")->as_string();
  r.verdict = verdict == "robust"       ? fv::Verdict::kRobust
              : verdict == "vulnerable" ? fv::Verdict::kVulnerable
                                        : fv::Verdict::kUnknown;
  r.resource_limited = body.find("resource_limited")->as_bool();
  if (const Json* cex = body.find("counterexample")) {
    r.counterexample = counterexample_from_json(*cex);
  }
  return r;
}

Outcome judge_tolerance(const Json& body, const fc::SampleTolerance& expected,
                        std::vector<std::string>& mismatches) {
  const bool correct = body.find("correct_without_noise")->as_bool();
  std::optional<int> min_flip;
  std::optional<fv::Counterexample> witness;
  if (correct) {
    if (const Json* m = body.find("min_flip_range"); !m->is_null()) {
      min_flip = static_cast<int>(m->as_int());
    }
    if (const Json* w = body.find("witness")) {
      witness = counterexample_from_json(*w);
    }
  }
  if (correct != expected.correct_without_noise ||
      min_flip != expected.min_flip_range || witness != expected.witness) {
    mismatches.push_back("tolerance of sample " +
                         std::to_string(expected.sample) + " differs");
    return Outcome::kWrong;
  }
  return Outcome::kOk;
}

Outcome judge_reply(const ServeClient::Reply& reply, const Request& req,
                    const Oracle& oracle, std::vector<std::string>& mismatches) {
  if (!reply.final) return Outcome::kTimeout;
  if (reply.final_type() == "error") {
    return reply.error_code() == "saturated" ? Outcome::kSaturated
                                             : Outcome::kError;
  }
  const Json& body = *reply.final->find("body");
  switch (req.kind) {
    case Kind::kVerify:
      return judge(result_from_json(body), oracle.at(req.sample, req.ranges[0]),
                   &mismatches);
    case Kind::kBatch: {
      const Json::Array& items = body.find("items")->as_array();
      if (items.size() != req.ranges.size()) return Outcome::kWrong;
      Outcome outcome = Outcome::kOk;
      for (std::size_t i = 0; i < items.size(); ++i) {
        outcome = worse(outcome, judge(result_from_json(items[i]),
                                       oracle.at(req.sample, req.ranges[i]),
                                       &mismatches));
      }
      return outcome;
    }
    case Kind::kTolerance:
      return judge_tolerance(body, oracle.tolerance[req.sample], mismatches);
  }
  return Outcome::kError;
}

const char* span_name(Kind kind) {
  switch (kind) {
    case Kind::kVerify: return "serve.verify";
    case Kind::kBatch: return "serve.batch";
    case Kind::kTolerance: return "serve.tolerance";
  }
  return "serve.request";
}

/// kServeThreads client threads that live across rounds; the main thread and
/// the clients meet at a barrier before and after every round.
class ClosedLoop {
 public:
  ClosedLoop(std::uint16_t port, const Oracle& oracle)
      : port_(port), oracle_(oracle), sync_(kServeThreads + 1) {
    for (std::size_t c = 0; c < kServeThreads; ++c) {
      clients_.emplace_back();
      threads_.emplace_back([this, c] { client_loop(clients_[c]); });
    }
  }
  ~ClosedLoop() {
    stop_ = true;
    sync_.arrive_and_wait();
    for (std::thread& t : threads_) t.join();
  }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Serves one round; returns its wall seconds and moves the items'
  /// latencies and outcomes into `log`.
  double run_round(const std::vector<Request>& round, ItemLog& log,
                   std::vector<std::string>& mismatches) {
    trace::Span span("serve.round");
    round_ = &round;
    round_span_ = span.id();
    next_.store(0);
    sync_.arrive_and_wait();  // start
    const Stopwatch watch;
    sync_.arrive_and_wait();  // every client has drained the round
    const double seconds = watch.seconds();
    for (Client& c : clients_) {
      log.append(c.log);
      c.log.latency_ms.clear();
      c.log.outcomes.clear();
      for (std::string& m : c.mismatches) mismatches.push_back(std::move(m));
      c.mismatches.clear();
    }
    return seconds;
  }

 private:
  struct Client {
    ItemLog log;
    std::vector<std::string> mismatches;
  };

  void client_loop(Client& client) {
    std::optional<ServeClient> conn;
    conn.emplace(port_, kReplyLimitMs);
    for (;;) {
      sync_.arrive_and_wait();
      if (stop_) return;
      for (std::size_t i; (i = next_.fetch_add(1)) < round_->size();) {
        const Request& req = (*round_)[i];
        trace::Span span(span_name(req.kind), i + 1, round_span_);
        const Stopwatch watch;
        const ServeClient::Reply reply = conn->call(req.frame);
        const double ms = watch.millis();
        const Outcome outcome =
            judge_reply(reply, req, oracle_, client.mismatches);
        client.log.add(ms, outcome);
        if (outcome == Outcome::kTimeout) conn.emplace(port_, kReplyLimitMs);
      }
      sync_.arrive_and_wait();
    }
  }

  std::uint16_t port_;
  const Oracle& oracle_;
  std::barrier<> sync_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> next_{0};
  const std::vector<Request>* round_ = nullptr;
  std::uint64_t round_span_ = 0;
  std::deque<Client> clients_;  // stable addresses for the client threads
  std::vector<std::thread> threads_;
};

}  // namespace

RunResult run_serve(const Args& args) {
  pin_to_cpus(kServeThreads);
  RunResult run;
  fv::QueryCache cache;
  fs::ServeOptions options;
  options.port = 0;
  options.threads = kServeThreads;
  options.cache = &cache;
  std::vector<fs::ServeModel> fleet;
  {
    const trace::Span span("setup.case_study");
    fleet = fs::default_fleet(true);
  }
  const fs::ServeModel model = fleet.front();
  fs::Server server(std::move(fleet), options);
  {
    const trace::Span span("setup.server_start");
    server.start();
  }
  if (setup_done(args)) return run;

  const Oracle oracle = make_oracle(model);
  run.item_limit_ms = static_cast<double>(kReplyLimitMs);
  fannet::util::Rng rng(args.seed);
  std::uint64_t id = 0;
  std::vector<Request> first_round;
  std::size_t rounds = 0;
  ItemLog traced;
  {
    ClosedLoop loop(server.port(), oracle);
    ItemSpool spool(args.spool);
    reset_peak_rss();
    run.wall_s = timed_rounds(args.seconds, [&](std::size_t r) {
      std::vector<Request> round = make_round(model, rng, id);
      cache.clear();
      // The traced run alternates untraced and traced rounds, so both
      // sides of the overhead comparison see the same machine state.
      const bool on = args.trace && r % 2 == 1;
      trace::enable(on);
      std::vector<std::string> mismatches;
      ItemLog log;
      const double seconds = loop.run_round(round, log, mismatches);
      for (std::string& m : mismatches) run.mismatch("served " + std::move(m));
      if (on) {
        traced.append(log);
      } else {
        spool.add(log);
      }
      ++rounds;
      if (r == 0) first_round = std::move(round);
      return seconds;
    });
    run.peak_rss_mb = peak_rss_mb();
    run.items = spool.read_back();
  }
  if (args.trace) {
    trace::enable(true);
    record_overhead(run.items, traced);
    run.items.append(traced);
  }
  const fs::ServerStats stats = server.stats();
  trace::counters("serve.stats",
                  {{"rejected", static_cast<double>(stats.rejected_saturated)},
                   {"errors", static_cast<double>(stats.errors)},
                   {"cache_hits", static_cast<double>(stats.cache_hits)},
                   {"cache_misses", static_cast<double>(stats.cache_misses)}});
  server.stop();

  const double lookups =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  Digest digest;
  for (const Request& r : first_round) digest.add(r.frame);
  run.info.set("inputs_digest", Json::string(digest.hex()));
  run.info.set("rounds", Json::integer(static_cast<std::int64_t>(rounds)));
  run.info.set("round_requests",
               Json::integer(static_cast<std::int64_t>(first_round.size())));
  run.info.set("server_cache_hit_ratio",
               Json::number(lookups == 0 ? 0.0
                                         : static_cast<double>(stats.cache_hits) /
                                               lookups));
  run.info.set("server_rejected",
               Json::integer(static_cast<std::int64_t>(stats.rejected_saturated)));
  run.info.set("server_errors", Json::integer(static_cast<std::int64_t>(stats.errors)));
  if (!args.trace) return run;

  const fc::CaseStudy cs = fc::build_case_study();
  LayerInputs inputs{.cs = &cs,
                     .samples = Samples{.x = model.inputs, .y = model.labels},
                     .seed = args.seed};
  const fc::Fannet fannet(cs.qnet);
  std::vector<std::pair<std::size_t, int>> keys;
  for (const Request& r : first_round) {
    if (r.kind != Kind::kVerify) continue;
    const std::pair<std::size_t, int> key{r.sample, r.ranges[0]};
    auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.push_back(key);
      inputs.queries.push_back(fannet.make_query(
          cs.test_x.row(key.first), cs.test_y[key.first],
          fv::NoiseBox::symmetric(cs.test_x.cols(), key.second), false));
      it = keys.end() - 1;
    }
    inputs.stream.push_back(static_cast<std::size_t>(it - keys.begin()));
  }
  fannet::nn::QuantizedNetwork small_net;
  inputs.sat_queries =
      sat_replay_queries(cs, inputs.samples, args.seed, small_net);
  replay_layers(inputs);
  return run;
}

}  // namespace perfbench
