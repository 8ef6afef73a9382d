/// \file
/// \brief The correctness oracle: an item's answer against the answer of a
/// different complete engine.
///
/// Every complete engine returns the same verdict and the same
/// lexicographically lowest witness, so an item decided by `cascade` or
/// `sat` is checked against `bnb` computed outside every timed region.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "verify/query.hpp"

namespace perfbench {

/// Empty when `actual` carries `expected`'s verdict and, when vulnerable,
/// its exact witness (deltas, bias delta and flipped label); otherwise one
/// line naming the first difference.
[[nodiscard]] std::string diff_results(const fannet::verify::VerifyResult& actual,
                                       const fannet::verify::VerifyResult& expected);

/// The outcome of one decided query: kResourceLimited when the engine gave
/// up, kWrong (with the reason appended to `mismatches`) when it differs
/// from the oracle, kOk otherwise.
[[nodiscard]] Outcome judge(const fannet::verify::VerifyResult& actual,
                            const fannet::verify::VerifyResult& expected,
                            std::vector<std::string>* mismatches = nullptr);

/// The decision of every query by the `bnb` engine, at kThreads workers.
[[nodiscard]] std::vector<fannet::verify::VerifyResult> oracle_results(
    const std::vector<fannet::verify::Query>& queries);

/// The worse of two outcomes of one item (an item with several answers,
/// such as a batch request, fails if any answer does).
[[nodiscard]] Outcome worse(Outcome a, Outcome b);

}  // namespace perfbench
