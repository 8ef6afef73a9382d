#include "oracle.hpp"

#include <string>

#include "verify/engine.hpp"
#include "verify/scheduler.hpp"

namespace perfbench {

using fannet::verify::Counterexample;
using fannet::verify::Verdict;
using fannet::verify::VerifyResult;

namespace {

std::string verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kRobust: return "robust";
    case Verdict::kVulnerable: return "vulnerable";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

std::string deltas_text(const Counterexample& cex) {
  std::string text = "[";
  for (std::size_t i = 0; i < cex.deltas.size(); ++i) {
    text += (i == 0 ? "" : ",") + std::to_string(cex.deltas[i]);
  }
  return text + "] bias " + std::to_string(cex.bias_delta) + " -> " +
         std::to_string(cex.mis_label);
}

}  // namespace

std::string diff_results(const VerifyResult& actual,
                         const VerifyResult& expected) {
  if (actual.verdict != expected.verdict) {
    return "verdict " + verdict_name(actual.verdict) + ", oracle " +
           verdict_name(expected.verdict);
  }
  if (actual.counterexample.has_value() != expected.counterexample.has_value()) {
    return "witness present " +
           std::to_string(actual.counterexample.has_value()) + ", oracle " +
           std::to_string(expected.counterexample.has_value());
  }
  if (actual.counterexample.has_value() &&
      *actual.counterexample != *expected.counterexample) {
    return "witness " + deltas_text(*actual.counterexample) + ", oracle " +
           deltas_text(*expected.counterexample);
  }
  return {};
}

Outcome judge(const VerifyResult& actual, const VerifyResult& expected,
              std::vector<std::string>* mismatches) {
  if (actual.resource_limited) return Outcome::kResourceLimited;
  std::string diff = diff_results(actual, expected);
  if (diff.empty()) return Outcome::kOk;
  if (mismatches != nullptr) mismatches->push_back(std::move(diff));
  return Outcome::kWrong;
}

std::vector<VerifyResult> oracle_results(
    const std::vector<fannet::verify::Query>& queries) {
  const fannet::verify::Scheduler scheduler({.threads = kThreads});
  return scheduler.run_all(queries, fannet::verify::engine("bnb"));
}

Outcome worse(Outcome a, Outcome b) {
  // kWrong dominates: a wrong answer is the finding that fails the run.
  if (a == Outcome::kWrong || b == Outcome::kWrong) return Outcome::kWrong;
  return a != Outcome::kOk ? a : b;
}

}  // namespace perfbench
