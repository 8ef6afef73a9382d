// fig4_pipeline: one item is one full paper pass (Fig. 4) over the
// paper-scale case-study net, at kThreads workers with the cascade engine
// and no query cache -- the workload fannet_cli runs.
//
// The seed permutes the test rows.  Every Fig. 4 figure is invariant under
// that permutation, so the paper-facing values (94.12% test accuracy,
// +/-10% tolerance, 162 tolerance queries) are checked at every seed,
// while the inputs each engine call sees (row order, sample indices in the
// reports, scheduler dispatch order) differ from seed to seed.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>

#include "oracle.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fc = fannet::core;
namespace fv = fannet::verify;
using fannet::util::Stopwatch;

namespace {

constexpr int kStartRange = 50;     // fannet_cli --start-range default
constexpr int kProbeRange = 20;     // fannet_cli --range default
constexpr std::size_t kCorpusCap = 100;  // fannet_cli --max-per-sample

Samples permuted_test_set(const fc::CaseStudy& cs, std::uint64_t seed) {
  std::vector<std::size_t> order(cs.test_x.rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  fannet::util::Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  Samples samples{.x = fannet::la::Matrix<fannet::util::i64>(order.size(),
                                                              cs.test_x.cols()),
                  .y = {}};
  for (std::size_t r = 0; r < order.size(); ++r) {
    const auto row = cs.test_x.row(order[r]);
    std::copy(row.begin(), row.end(), samples.x.row(r).begin());
    samples.y.push_back(cs.test_y[order[r]]);
  }
  return samples;
}

template <typename T>
void expect_equal(const T& actual, const T& expected, const char* what,
                  std::vector<std::string>& out) {
  if (!(actual == expected)) out.push_back(std::string(what) + " differs");
}

}  // namespace

fc::CaseStudy case_study_setup() {
  const trace::Span span("setup.case_study");
  return fc::build_case_study();
}

PassOutput run_pass(const fc::CaseStudy& cs, const Samples& samples,
                    const PassConfig& config, std::uint64_t item) {
  const fc::Fannet fannet(cs.qnet);
  PassOutput out;
  {
    const trace::Span span("core.validate_p1", item);
    out.misclassified = fannet.validate_p1(samples.x, samples.y);
  }
  {
    trace::Span span("core.analyze_tolerance", item);
    fc::ToleranceConfig tc;
    tc.start_range = kStartRange;
    tc.engine = fc::Engine{config.engine};
    tc.threads = config.threads;
    out.tolerance = fannet.analyze_tolerance(samples.x, samples.y, tc);
    span.arg("queries", static_cast<double>(out.tolerance.queries));
  }
  {
    const trace::Span span("core.analyze_boundary", item);
    out.boundary = fc::analyze_boundary(out.tolerance, 5, kStartRange);
  }
  {
    trace::Span span("core.extract_corpus", item);
    out.corpus = fannet.extract_corpus(samples.x, samples.y, kProbeRange,
                                       kCorpusCap, false, config.threads);
    span.arg("entries", static_cast<double>(out.corpus.size()));
  }
  {
    const trace::Span span("core.analyze_bias", item);
    out.bias = fc::analyze_bias(out.corpus, cs.qnet.output_dim(), cs.train_y);
  }
  {
    const trace::Span span("core.analyze_sensitivity", item);
    fc::SensitivityConfig sc;
    sc.engine = fc::Engine{config.engine};
    sc.threads = config.threads;
    out.sensitivity = fc::analyze_sensitivity(fannet, samples.x, samples.y,
                                              kProbeRange, out.corpus, sc);
  }
  {
    trace::Span span("core.analyze_weight_faults", item);
    fc::WeightFaultConfig wc;
    wc.max_percent = kProbeRange;
    wc.threads = config.threads;
    wc.scan = config.fault_scan;
    out.faults = fc::analyze_weight_faults(cs.qnet, samples.x, samples.y, wc);
    span.arg("layer_evaluations",
             static_cast<double>(out.faults.layer_evaluations));
    span.arg("evaluations", static_cast<double>(out.faults.evaluations));
  }
  return out;
}

void diff_pass(const PassOutput& a, const PassOutput& e,
               std::vector<std::string>& out) {
  expect_equal(a.misclassified, e.misclassified, "P1 misclassified set", out);
  expect_equal(a.tolerance.noise_tolerance, e.tolerance.noise_tolerance,
               "noise tolerance", out);
  expect_equal(a.tolerance.queries, e.tolerance.queries, "tolerance queries",
               out);
  if (a.tolerance.per_sample.size() != e.tolerance.per_sample.size()) {
    out.push_back("tolerance rows differ");
  } else {
    for (std::size_t s = 0; s < a.tolerance.per_sample.size(); ++s) {
      const fc::SampleTolerance& as = a.tolerance.per_sample[s];
      const fc::SampleTolerance& es = e.tolerance.per_sample[s];
      if (as.min_flip_range != es.min_flip_range || as.witness != es.witness ||
          as.correct_without_noise != es.correct_without_noise) {
        out.push_back("tolerance of row " + std::to_string(s) + " differs");
      }
    }
  }
  expect_equal(a.boundary.histogram, e.boundary.histogram,
               "boundary histogram", out);
  expect_equal(a.boundary.survivors, e.boundary.survivors, "boundary survivors",
               out);
  bool corpus_same = a.corpus.size() == e.corpus.size();
  for (std::size_t i = 0; corpus_same && i < a.corpus.size(); ++i) {
    corpus_same = a.corpus[i].sample == e.corpus[i].sample &&
                  a.corpus[i].cex == e.corpus[i].cex;
  }
  if (!corpus_same) out.push_back("adversarial corpus differs");
  expect_equal(a.bias.direction, e.bias.direction, "bias histogram", out);
  const fc::NodeSensitivityReport& as = a.sensitivity;
  const fc::NodeSensitivityReport& es = e.sensitivity;
  expect_equal(as.positive, es.positive, "sensitivity positive", out);
  expect_equal(as.negative, es.negative, "sensitivity negative", out);
  expect_equal(as.zero, es.zero, "sensitivity zero", out);
  expect_equal(as.positive_possible, es.positive_possible,
               "sensitivity positive_possible", out);
  expect_equal(as.negative_possible, es.negative_possible,
               "sensitivity negative_possible", out);
  expect_equal(as.solo_flip_range, es.solo_flip_range, "sensitivity solo range",
               out);
  expect_equal(a.faults.faults, e.faults.faults, "weight faults", out);
  expect_equal(a.faults.robust_weights, e.faults.robust_weights,
               "robust weights", out);
}

RunResult run_fig4(const Args& args) {
  RunResult run;
  const fc::CaseStudy cs = case_study_setup();
  if (setup_done(args)) return run;
  const Samples samples = permuted_test_set(cs, args.seed);

  // Oracle: the same pass by another complete engine (bnb), serial, with
  // the naive weight-fault scan; then the paper-facing values.
  PassOutput expected;
  {
    const trace::Suspend untraced;
    expected = run_pass(cs, samples,
                        PassConfig{.engine = "bnb",
                                   .threads = 1,
                                   .fault_scan = fc::FaultScan::kNaive});
  }
  char accuracy[16];
  std::snprintf(accuracy, sizeof accuracy, "%.2f", 100.0 * cs.test_accuracy);
  if (std::string(accuracy) != "94.12") {
    run.mismatch(std::string("test accuracy ") + accuracy + "%, paper 94.12%");
  }
  if (expected.tolerance.noise_tolerance != 10) {
    run.mismatch("noise tolerance +/-" +
                 std::to_string(expected.tolerance.noise_tolerance) +
                 "%, expected +/-10%");
  }
  if (expected.tolerance.queries != 162) {
    run.mismatch(std::to_string(expected.tolerance.queries) +
                 " tolerance queries, expected 162");
  }
  for (const fc::CorpusEntry& entry : expected.corpus) {
    const fv::Query q = fc::Fannet(cs.qnet).make_query(
        samples.x.row(entry.sample), samples.y[entry.sample],
        fv::NoiseBox::symmetric(samples.x.cols(), kProbeRange), false);
    if (fv::classify_under_noise(q, entry.cex.deltas) != entry.cex.mis_label ||
        entry.cex.mis_label == entry.true_label) {
      run.mismatch("corpus entry of row " + std::to_string(entry.sample) +
                   " does not flip the label");
    }
  }
  Digest digest;
  for (std::size_t r = 0; r < samples.x.rows(); ++r) {
    for (const fannet::util::i64 v : samples.x.row(r)) digest.add(v);
    digest.add(samples.y[r]);
  }
  run.info.set("inputs_digest", fannet::serve::Json::string(digest.hex()));
  run.info.set("test_accuracy_pct", fannet::serve::Json::string(accuracy));
  run.info.set("noise_tolerance_pct", fannet::serve::Json::integer(
                                          expected.tolerance.noise_tolerance));
  run.info.set("tolerance_queries",
               fannet::serve::Json::integer(
                   static_cast<std::int64_t>(expected.tolerance.queries)));
  run.info.set("corpus_entries",
               fannet::serve::Json::integer(
                   static_cast<std::int64_t>(expected.corpus.size())));

  run.item_limit_ms = 180e3;  // a pass is not bounded; the process is
  ItemLog traced;
  reset_peak_rss();
  run.wall_s = timed_rounds(args.seconds, [&](std::size_t r) {
    // The traced run alternates untraced and traced passes, so both sides
    // of the overhead comparison see the same machine state.
    const bool on = args.trace && r % 2 == 1;
    trace::enable(on);
    const Stopwatch watch;
    const PassOutput out = run_pass(cs, samples, PassConfig{}, r + 1);
    const double s = watch.seconds();
    std::vector<std::string> diffs;
    diff_pass(out, expected, diffs);
    for (std::string& d : diffs) run.mismatch("pass " + std::move(d));
    (on ? traced : run.items)
        .add(s * 1e3, diffs.empty() ? Outcome::kOk : Outcome::kWrong);
    return s;
  });
  run.peak_rss_mb = peak_rss_mb();
  if (!args.trace) return run;
  trace::enable(true);
  record_overhead(run.items, traced);
  run.items.append(traced);

  LayerInputs inputs{.cs = &cs, .samples = samples, .seed = args.seed};
  const fc::Fannet fannet(cs.qnet);
  for (std::size_t s = 0; s < samples.x.rows(); ++s) {
    if (std::find(expected.misclassified.begin(), expected.misclassified.end(),
                  s) != expected.misclassified.end()) {
      continue;
    }
    for (int range = 5; range <= 50; range += 5) {
      inputs.stream.push_back(inputs.queries.size());
      inputs.queries.push_back(fannet.make_query(
          samples.x.row(s), samples.y[s],
          fv::NoiseBox::symmetric(samples.x.cols(), range), false));
    }
  }
  fannet::nn::QuantizedNetwork small_net;
  inputs.sat_queries = sat_replay_queries(cs, samples, args.seed, small_net);
  replay_layers(inputs);
  return run;
}

}  // namespace perfbench
