/// \file
/// \brief Pieces the three workloads share with the traced layer replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/analysis.hpp"
#include "core/casestudy.hpp"
#include "core/faults.hpp"
#include "core/fannet.hpp"
#include "verify/query.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// The Fig. 4 paper pass (fig4.cpp)
// ---------------------------------------------------------------------------

/// The test rows a pass analyses.
struct Samples {
  fannet::la::Matrix<fannet::util::i64> x;
  std::vector<int> y;
};

/// Everything one pass produces; compared field by field with the oracle.
struct PassOutput {
  std::vector<std::size_t> misclassified;
  fannet::core::ToleranceReport tolerance;
  fannet::core::BoundaryReport boundary;
  std::vector<fannet::core::CorpusEntry> corpus;
  fannet::core::BiasReport bias;
  fannet::core::NodeSensitivityReport sensitivity;
  fannet::core::WeightFaultReport faults;
};

/// How a pass is run: the workload's configuration, or the oracle's.
struct PassConfig {
  std::string engine = "cascade";
  std::size_t threads = kThreads;
  fannet::core::FaultScan fault_scan = fannet::core::FaultScan::kIncremental;
};

/// One full paper pass with fannet_cli's defaults: validate_p1 ->
/// analyze_tolerance -> analyze_boundary -> extract_corpus -> analyze_bias
/// -> analyze_sensitivity -> analyze_weight_faults, each call in a span.
PassOutput run_pass(const fannet::core::CaseStudy& cs, const Samples& samples,
                    const PassConfig& config, std::uint64_t item = 0);

/// Appends one line per difference between two passes' outputs.
void diff_pass(const PassOutput& actual, const PassOutput& expected,
               std::vector<std::string>& out);

/// Builds the case study inside a `setup.case_study` span.
fannet::core::CaseStudy case_study_setup();

// ---------------------------------------------------------------------------
// SAT items (sat_p2.cpp)
// ---------------------------------------------------------------------------

/// Decides `query` with the `sat` engine through its resumable task, one
/// span per phase: `sat.encode` (the first step under a one-conflict
/// quota; the session encodes before its first solve), `sat.decide` (the
/// next step, unlimited) and `sat.minimize` (the remaining steps, one
/// witness-minimization probe each).
fannet::verify::VerifyResult sat_decide_traced(const fannet::verify::Query& query,
                                               std::uint64_t item);

// ---------------------------------------------------------------------------
// Traced layer replay (layers.cpp)
// ---------------------------------------------------------------------------

/// A workload's generated inputs, replayed through each layer's public
/// calls in the traced run.
struct LayerInputs {
  const fannet::core::CaseStudy* cs = nullptr;
  Samples samples = {};                             ///< rows for the core pass
  std::vector<fannet::verify::Query> queries = {};  ///< P2 queries, no repeats
  std::vector<std::size_t> stream = {};             ///< query order, repeats kept
  std::vector<fannet::verify::Query> sat_queries = {};
  std::uint64_t seed = 0;
};

/// Runs every layer's replay inside spans (the per-layer numbers are
/// computed from the trace file by perfbench/trace_summary.py).
void replay_layers(const LayerInputs& inputs);

/// A seeded small random network (3-3-2) with an input it is asked
/// about under the wrong label at range 5, so the query is vulnerable and
/// the `sat` engine runs its witness minimizer.  `net` must outlive the
/// returned query.
fannet::verify::Query small_net_query(std::uint64_t seed,
                                      fannet::nn::QuantizedNetwork& net);

/// The SAT replay of a workload that makes no SAT calls itself: the robust
/// +/-1% query on the first row of `samples` the case-study net classifies
/// correctly, and one seeded small-net query built in `small_net`, which
/// must outlive the queries.
std::vector<fannet::verify::Query> sat_replay_queries(
    const fannet::core::CaseStudy& cs, const Samples& samples,
    std::uint64_t seed, fannet::nn::QuantizedNetwork& small_net);

/// Records the traced run's own cost: the median item latency of the
/// untraced and the traced items of the workload loop.
void record_overhead(const ItemLog& untraced, const ItemLog& traced);

}  // namespace perfbench
