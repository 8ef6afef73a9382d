/// \file
/// \brief Exhaustive integer-grid enumeration — the ground-truth oracle.
///
/// Walks every integer noise vector in the box with exact arithmetic.  Cost
/// is the box volume, so this is the reference the property tests validate
/// the clever engines against, and the collector that materializes the full
/// adversarial-noise-vector corpus (the paper's P3 loop) for small ranges.
///
/// Internally the walk is batched: noise vectors are staged into an SoA
/// `nn::BatchEvaluator` batch and evaluated through one vectorized MAC
/// kernel (DESIGN.md §10).  Results — verdicts, witnesses, sink calls, the
/// visited count, and ArithmeticError overflow behavior — are bit-identical
/// to the scalar walk for every batch size and thread count:
///
///   - lanes are scanned in odometer order, so the first counterexample and
///     the visited count match the scalar scan (lanes staged past a stop
///     are discarded uncounted);
///   - a lane the batched kernel flags as overflowing is re-run through the
///     scalar path, which throws the genuine exception at exactly the point
///     the scalar walk would have;
///   - the decision walk (`enumerate_find_first`, the engine's task) splits
///     the box into fixed blocks claimed in ascending order — across
///     threads when `threads > 1` — and keeps the lowest-index event, so
///     verdict, witness, and `work` are pure functions of the query.
#pragma once

#include <functional>
#include <memory>

#include "verify/budget.hpp"
#include "verify/query.hpp"

namespace fannet::verify {

class EngineTask;

/// Execution knobs; every setting produces bit-identical results.
struct EnumerateOptions {
  /// Evaluation lanes per batched forward pass: 1 = the scalar reference
  /// walk, 0 = auto (nn::BatchEvaluator::kAutoBatch).  Streaming chunk
  /// sizes ramp up from 8 so a sink that stops early wastes little work.
  std::size_t batch = 0;
  /// Worker threads for the decision query (enumerate_find_first only;
  /// streaming and collection stay serial so sink order is the odometer
  /// order): 1 = serial, 0 = one per hardware thread.
  std::size_t threads = 1;
};

/// Decision query: stops at the first counterexample.  Runs
/// `make_enumerate_task` to completion in one unbounded step.
[[nodiscard]] VerifyResult enumerate_find_first(
    const Query& query, const EnumerateOptions& options = {});

/// Collects up to `max_count` counterexamples (all of them if the box
/// volume allows; deterministic lexicographic order).
[[nodiscard]] std::vector<Counterexample> enumerate_collect(
    const Query& query, std::size_t max_count,
    const EnumerateOptions& options = {});

/// Streaming variant: invokes `sink` per counterexample; return false from
/// the sink to stop early.  Returns the number of vectors visited.
std::uint64_t enumerate_stream(
    const Query& query,
    const std::function<bool(const Counterexample&)>& sink,
    const EnumerateOptions& options = {});

/// Native incremental task for the decision query (verify/task.hpp): each
/// step scans the next `max_work` grid points (rounded up to whole
/// evaluation blocks) of the linearized box, and the workers stop
/// claiming blocks once a pause, cancel or `budget` deadline fires, so the
/// walk pauses, resumes, and expires at block granularity.  Verdict,
/// witness, and `work` are identical for every step size, batch, and
/// thread count.
[[nodiscard]] std::unique_ptr<EngineTask> make_enumerate_task(
    const Query& query, const EnumerateOptions& options, const Budget& budget);

}  // namespace fannet::verify
