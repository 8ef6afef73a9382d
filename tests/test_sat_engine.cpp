// Tests for the SAT-backed P2 engine ("sat"): registry resolution, verdict
// agreement with the enumeration oracle, witness bit-identity with the bnb
// engine's canonical lexicographically-lowest counterexample, budget-mapped
// kUnknown, cascade composition, and DRAT-certified robust verdicts across
// inprocessing configurations.
#include <gtest/gtest.h>

#include <algorithm>

#include "mc/sat_engine.hpp"
#include "nn/network.hpp"
#include "sat/drat.hpp"
#include "util/rng.hpp"
#include "verify/engine.hpp"
#include "verify/enumerate.hpp"

namespace fannet::mc {
namespace {

using util::i64;
using verify::Query;
using verify::Verdict;
using verify::VerifyResult;

Query make_query(const nn::QuantizedNetwork& net, std::vector<i64> x,
                 int label, int range, bool bias_node = false) {
  Query q;
  q.net = &net;
  q.x = std::move(x);
  q.true_label = label;
  q.box = verify::NoiseBox::symmetric(q.x.size() + (bias_node ? 1 : 0), range);
  q.bias_node = bias_node;
  return q;
}

nn::QuantizedNetwork random_qnet(std::uint64_t seed, std::size_t inputs = 2,
                                 std::size_t hidden = 3) {
  const nn::Network net = nn::Network::random({inputs, hidden, 2}, seed);
  return nn::QuantizedNetwork::quantize(net, 100);
}

TEST(SatEngine, ResolvesFromRegistryAsComplete) {
  ASSERT_TRUE(verify::registry().contains("sat"));
  const verify::Engine& e = verify::engine("sat");
  EXPECT_EQ(e.name(), "sat");
  EXPECT_TRUE(e.complete());
}

TEST(SatEngine, WitnessesAreBitIdenticalToBnb) {
  // Both engines define the canonical witness as the lexicographically
  // lowest flipping noise vector (query dimension order, bias last), so on
  // vulnerable queries the full counterexample structs must be equal.
  int vulnerable_seen = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const nn::QuantizedNetwork net = random_qnet(seed);
    util::Rng rng(seed * 977 + 3);
    std::vector<i64> x(2);
    for (auto& v : x) v = rng.uniform_int(1, 100);
    const int actual = net.classify_noised(x, {});
    const bool bias = rng.bernoulli(0.5);
    // Wrong-label queries are vulnerable at the zero vector; right-label
    // ones exercise real search.
    const int label = rng.bernoulli(0.5) ? 1 - actual : actual;
    const Query q = make_query(net, x, label, 2, bias);

    const VerifyResult ours = sat_verify(q, SatVerifyOptions{});
    const VerifyResult bnb = verify::engine("bnb").verify(q);
    ASSERT_EQ(ours.verdict, bnb.verdict) << "seed=" << seed;
    EXPECT_FALSE(ours.resource_limited);
    if (ours.verdict == Verdict::kVulnerable) {
      ++vulnerable_seen;
      ASSERT_TRUE(ours.counterexample.has_value());
      ASSERT_TRUE(bnb.counterexample.has_value());
      EXPECT_EQ(*ours.counterexample, *bnb.counterexample) << "seed=" << seed;
    }
  }
  EXPECT_GT(vulnerable_seen, 0) << "test never exercised the witness path";
}

TEST(SatEngine, AgreesWithEnumerationOracleOnBothVerdicts) {
  for (std::uint64_t seed = 20; seed <= 26; ++seed) {
    const nn::QuantizedNetwork net = random_qnet(seed);
    util::Rng rng(seed);
    std::vector<i64> x(2);
    for (auto& v : x) v = rng.uniform_int(1, 100);
    const Query q = make_query(net, x, net.classify_noised(x, {}), 1);
    const VerifyResult truth = verify::enumerate_find_first(q);
    const VerifyResult ours = verify::engine("sat").verify(q);
    EXPECT_EQ(ours.verdict, truth.verdict) << "seed=" << seed;
    if (ours.verdict == Verdict::kVulnerable) {
      std::vector<int> all = ours.counterexample->deltas;
      EXPECT_NE(verify::classify_under_noise(q, all), q.true_label);
    }
  }
}

TEST(SatEngine, BudgetExpiryMapsToUnknownWithResourceLimited) {
  const nn::QuantizedNetwork net = random_qnet(7, 2, 4);
  const std::vector<i64> x{55, 70};
  const Query q = make_query(net, x, net.classify_noised(x, {}), 2);
  SatVerifyOptions tiny;
  tiny.conflict_budget = 1;
  tiny.propagation_budget = 1;
  const VerifyResult r = sat_verify(q, tiny);
  EXPECT_EQ(r.verdict, Verdict::kUnknown);
  EXPECT_TRUE(r.resource_limited);
  EXPECT_FALSE(r.counterexample.has_value());
}

TEST(SatEngine, VerifyWithThreadsContextBudgets) {
  // Same hard instance as BudgetExpiryMapsToUnknownWithResourceLimited:
  // small nets can be decided outright by root inprocessing, which is a
  // legitimate answer no budget should suppress.
  const nn::QuantizedNetwork net = random_qnet(7, 2, 4);
  const std::vector<i64> x{55, 70};
  const Query q = make_query(net, x, net.classify_noised(x, {}), 2);
  verify::VerifyContext ctx;
  ctx.budget.conflicts = 1;
  ctx.budget.propagations = 1;
  const VerifyResult limited = verify::engine("sat").verify(q, ctx);
  EXPECT_EQ(limited.verdict, Verdict::kUnknown);
  EXPECT_TRUE(limited.resource_limited);
  // Default context: engine defaults apply and the query is decided.
  const VerifyResult full = verify::engine("sat").verify(q, {});
  EXPECT_NE(full.verdict, Verdict::kUnknown);
}

TEST(SatEngine, CascadeCanUseSatAsCompleteStage) {
  const verify::CascadeEngine cascade({"interval", "symbolic", "sat"});
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    const nn::QuantizedNetwork net = random_qnet(seed);
    util::Rng rng(seed * 3 + 1);
    std::vector<i64> x(2);
    for (auto& v : x) v = rng.uniform_int(1, 100);
    const int actual = net.classify_noised(x, {});
    const int label = rng.bernoulli(0.4) ? 1 - actual : actual;
    const Query q = make_query(net, x, label, 1);
    EXPECT_EQ(cascade.verify(q).verdict,
              verify::enumerate_find_first(q).verdict)
        << "seed=" << seed;
  }
}

TEST(SatEngine, RobustVerdictsCarryCheckableProofsAcrossInprocessConfigs) {
  // Find a genuinely robust query (per the enumeration oracle), then demand
  // a verified DRAT refutation from every representative inprocessing
  // configuration: none, each pass alone, and the full suite.
  Query robust;
  nn::QuantizedNetwork net;
  bool found = false;
  for (std::uint64_t seed = 40; seed <= 60 && !found; ++seed) {
    net = random_qnet(seed);
    util::Rng rng(seed);
    std::vector<i64> x{rng.uniform_int(1, 100), rng.uniform_int(1, 100)};
    const Query q = make_query(net, x, net.classify_noised(x, {}), 1);
    if (verify::enumerate_find_first(q).verdict == Verdict::kRobust) {
      robust = q;
      robust.net = &net;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no robust query in the seed range";

  const sat::InprocessOptions configs[] = {
      {},
      {.vivify = true},
      {.subsume = true},
      {.bve = true},
      {.scc = true},
      sat::InprocessOptions::all(),
  };
  for (std::size_t i = 0; i < std::size(configs); ++i) {
    SatVerifyOptions options;
    options.inprocess = configs[i];
    sat::ProofLog proof;
    const VerifyResult r = sat_verify(robust, options, &proof);
    ASSERT_EQ(r.verdict, Verdict::kRobust) << "config=" << i;
    const sat::ProofCheckResult pc = sat::check_proof(proof);
    EXPECT_TRUE(pc.verified()) << "config=" << i << ": " << pc.detail;
  }
}

TEST(SatEngine, BiasNodeWitnessOrdersBiasLast) {
  // With a bias dimension the canonical order minimizes the input deltas
  // first and the bias delta last; cross-check against bnb on a vulnerable
  // bias query.
  for (std::uint64_t seed = 70; seed <= 80; ++seed) {
    const nn::QuantizedNetwork net = random_qnet(seed);
    const std::vector<i64> x{45, 60};
    const int actual = net.classify_noised(x, {});
    const Query q = make_query(net, x, 1 - actual, 1, true);
    const VerifyResult ours = sat_verify(q, SatVerifyOptions{});
    const VerifyResult bnb = verify::engine("bnb").verify(q);
    ASSERT_EQ(ours.verdict, bnb.verdict) << "seed=" << seed;
    if (ours.verdict == Verdict::kVulnerable) {
      EXPECT_EQ(*ours.counterexample, *bnb.counterexample) << "seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace fannet::mc
