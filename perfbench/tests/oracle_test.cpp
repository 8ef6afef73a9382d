// Tests for the benchmark's oracle comparison (perfbench/src/oracle.cpp)
// and its item spool (perfbench/src/bench.cpp).  Run through
// perfbench/tests/test_perfbench.py with the spool file's path as the only
// argument; exits non-zero when a check fails.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "oracle.hpp"

namespace {

using fannet::verify::Counterexample;
using fannet::verify::Verdict;
using fannet::verify::VerifyResult;
using perfbench::Outcome;

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

VerifyResult robust() {
  VerifyResult r;
  r.verdict = Verdict::kRobust;
  return r;
}

VerifyResult vulnerable(std::vector<int> deltas, int bias = 0, int label = 1) {
  VerifyResult r;
  r.verdict = Verdict::kVulnerable;
  r.counterexample = Counterexample{
      .deltas = std::move(deltas), .bias_delta = bias, .mis_label = label};
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::judge;
  std::vector<std::string> why;

  check(judge(robust(), robust(), &why) == Outcome::kOk, "robust == robust");
  check(judge(vulnerable({-3, 0}), vulnerable({-3, 0}), &why) == Outcome::kOk,
        "same witness is ok");
  check(why.empty(), "no finding for matching answers");

  // The effort counter is engine-specific and never compared.
  VerifyResult more_work = robust();
  more_work.work = 99;
  check(judge(more_work, robust()) == Outcome::kOk, "work is not compared");

  check(judge(robust(), vulnerable({1})) == Outcome::kWrong, "verdict differs");
  check(judge(vulnerable({-3, 1}), vulnerable({-3, 0}), &why) == Outcome::kWrong,
        "a non-lex-lowest witness is wrong");
  check(why.size() == 1 && why[0].find("witness") != std::string::npos,
        "the finding names the witness");
  check(judge(vulnerable({0}, 2), vulnerable({0}, 1)) == Outcome::kWrong,
        "bias delta differs");
  check(judge(vulnerable({0}, 0, 0), vulnerable({0}, 0, 1)) == Outcome::kWrong,
        "flipped label differs");

  VerifyResult unknown;  // Verdict::kUnknown
  check(judge(unknown, robust()) == Outcome::kWrong,
        "unknown from a complete engine without a limit is wrong");
  unknown.resource_limited = true;
  check(judge(unknown, robust()) == Outcome::kResourceLimited,
        "a resource-limited answer is a failure, not a wrong answer");

  check(perfbench::worse(Outcome::kOk, Outcome::kTimeout) == Outcome::kTimeout,
        "any failure makes the item fail");
  check(perfbench::worse(Outcome::kSaturated, Outcome::kWrong) == Outcome::kWrong,
        "a wrong answer dominates");

  if (argc == 2) {
    perfbench::ItemLog a;
    a.add(1.5, Outcome::kOk);
    a.add(2.5, Outcome::kTimeout);
    perfbench::ItemLog b;
    b.add(0.25, Outcome::kSaturated);
    perfbench::ItemLog back;
    {
      perfbench::ItemSpool spool(argv[1]);
      spool.add(a);
      spool.add(perfbench::ItemLog{});
      spool.add(b);
      back = spool.read_back();
    }
    check(back.latency_ms == std::vector<double>{1.5, 2.5, 0.25},
          "the spool returns every latency in order");
    check(back.outcomes == std::vector<Outcome>{Outcome::kOk, Outcome::kTimeout,
                                                Outcome::kSaturated},
          "the spool returns every outcome in order");
    std::FILE* left = std::fopen(argv[1], "rb");
    check(left == nullptr, "the spool removes its file");
    if (left != nullptr) std::fclose(left);
  } else {
    check(false, "usage: perfbench_oracle_test SPOOL_FILE");
  }

  if (failures == 0) std::puts("oracle_test: all checks passed");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
