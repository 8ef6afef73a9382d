// Engine registry + cascade portfolio tests.  The central property: EVERY
// registered engine — including the cascade and the SMV-translation MC
// adapters — must be consistent with the enumeration oracle on randomized
// small networks and boxes:
//   - complete engines reproduce the oracle verdict exactly,
//   - sound-only engines may answer kUnknown but a kRobust certificate
//     implies the oracle found nothing,
//   - every returned witness actually flips the sample.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "nn/network.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "verify/engine.hpp"
#include "verify/enumerate.hpp"

namespace fannet::verify {
namespace {

using util::i64;

Query make_query(const nn::QuantizedNetwork& net, std::vector<i64> x,
                 int label, int range, bool bias_node = false) {
  Query q;
  q.net = &net;
  q.x = std::move(x);
  q.true_label = label;
  q.box = NoiseBox::symmetric(q.x.size() + (bias_node ? 1 : 0), range);
  q.bias_node = bias_node;
  return q;
}

nn::QuantizedNetwork random_qnet(std::uint64_t seed, std::size_t inputs = 2,
                                 std::size_t hidden = 3) {
  const nn::Network net = nn::Network::random({inputs, hidden, 2}, seed);
  return nn::QuantizedNetwork::quantize(net, 100);
}

TEST(EngineRegistry, SeedsEveryBuiltinStrategy) {
  const std::vector<std::string> names = registry().names();
  for (const char* expected :
       {"bnb", "cascade", "enumerate", "explicit-mc", "interval", "sat",
        "symbolic"}) {
    EXPECT_TRUE(registry().contains(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
    EXPECT_EQ(registry().get(expected).name(), expected);
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

  // Completeness flags drive the cascade's fallback logic.
  EXPECT_TRUE(engine("enumerate").complete());
  EXPECT_TRUE(engine("bnb").complete());
  EXPECT_TRUE(engine("cascade").complete());
  EXPECT_TRUE(engine("sat").complete());
  EXPECT_FALSE(engine("interval").complete());
  EXPECT_FALSE(engine("symbolic").complete());
}

TEST(EngineRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    (void)registry().get("gpu-batch");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("gpu-batch"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bnb"), std::string::npos);
  }
}

TEST(EngineRegistry, RejectsDuplicatesAndNull) {
  EngineRegistry local;
  local.add(std::make_unique<CascadeEngine>());
  EXPECT_THROW(local.add(std::make_unique<CascadeEngine>()), InvalidArgument);
  EXPECT_THROW(local.add(nullptr), InvalidArgument);
}

TEST(Cascade, RequiresAtLeastOneStage) {
  EXPECT_THROW(CascadeEngine(std::vector<std::string>{}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// The oracle property over the whole registry.
// ---------------------------------------------------------------------------
class RegistryAgreement : public testing::TestWithParam<std::uint64_t> {};

/// The seeded queries each RegistryAgreement case checks: both verdicts
/// (wrong-label queries mixed in), ranges 1-2, the bias node on a quarter.
std::vector<Query> agreement_queries(const nn::QuantizedNetwork& net,
                                     std::uint64_t seed) {
  util::Rng rng(seed * 131 + 9);
  std::vector<Query> queries;
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<i64> x(2);
    for (auto& v : x) v = rng.uniform_int(1, 100);
    const int actual = net.classify_noised(x, {});
    const int label = rng.bernoulli(0.3) ? 1 - actual : actual;
    const int range = static_cast<int>(rng.uniform_int(1, 2));
    const bool bias = rng.bernoulli(0.25);
    queries.push_back(make_query(net, x, label, range, bias));
  }
  return queries;
}

TEST_P(RegistryAgreement, AllEnginesConsistentWithEnumerationOracle) {
  const std::uint64_t seed = GetParam();
  const nn::QuantizedNetwork net = random_qnet(seed);
  const std::vector<Query> queries = agreement_queries(net, seed);
  for (std::size_t trial = 0; trial < queries.size(); ++trial) {
    const Query& q = queries[trial];
    const VerifyResult truth = enumerate_find_first(q);
    for (const std::string& name : registry().names()) {
      const Engine& e = engine(name);
      const VerifyResult r = e.verify(q);
      if (e.complete()) {
        EXPECT_EQ(r.verdict, truth.verdict)
            << name << " seed=" << seed << " trial=" << trial;
      } else if (r.verdict == Verdict::kRobust) {
        EXPECT_EQ(truth.verdict, Verdict::kRobust)
            << name << " unsound! seed=" << seed << " trial=" << trial;
      }
      if (r.verdict == Verdict::kVulnerable) {
        ASSERT_TRUE(r.counterexample.has_value()) << name;
        std::vector<int> all = r.counterexample->deltas;
        if (q.bias_node) all.push_back(r.counterexample->bias_delta);
        EXPECT_NE(classify_under_noise(q, all), q.true_label)
            << name << " returned a witness that does not flip";
      }
    }
  }
}

TEST_P(RegistryAgreement, EnumerateDecisionMatchesScalarWalk) {
  // enumerate_find_first drives the engine's task; the scalar odometer
  // walk behind enumerate_stream at batch 1 is the reference, kept
  // verbatim.  The scalar task slice (batch 1), the batched blocks, and
  // their parallel fan-out must all land on its first counterexample and
  // its visited count.
  const std::uint64_t seed = GetParam();
  const nn::QuantizedNetwork net = random_qnet(seed);
  for (const Query& q : agreement_queries(net, seed)) {
    std::optional<Counterexample> first;
    const std::uint64_t visited = enumerate_stream(
        q,
        [&](const Counterexample& cex) {
          first = cex;
          return false;
        },
        {.batch = 1});
    for (const EnumerateOptions options :
         {EnumerateOptions{.batch = 1}, EnumerateOptions{},
          EnumerateOptions{.batch = 0, .threads = 2}}) {
      const VerifyResult r = enumerate_find_first(q, options);
      EXPECT_EQ(r.verdict,
                first.has_value() ? Verdict::kVulnerable : Verdict::kRobust)
          << "seed=" << seed << " batch=" << options.batch;
      EXPECT_EQ(r.counterexample, first)
          << "seed=" << seed << " batch=" << options.batch;
      EXPECT_EQ(r.work, visited)
          << "seed=" << seed << " batch=" << options.batch;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryAgreement,
                         testing::Range<std::uint64_t>(1, 9));

TEST(Cascade, AccumulatesWorkAcrossStages) {
  // A wrong-label query defeats the sound screens (the zero vector already
  // "flips"), so the cascade must fall through to B&B and report the
  // summed work of all stages that ran.
  const nn::QuantizedNetwork net = random_qnet(21);
  const std::vector<i64> x{40, 80};
  const int actual = net.classify_noised(x, {});
  const Query q = make_query(net, x, 1 - actual, 2);

  const VerifyResult cascade = engine("cascade").verify(q);
  EXPECT_EQ(cascade.verdict, Verdict::kVulnerable);

  const VerifyResult interval_only = engine("interval").verify(q);
  EXPECT_EQ(interval_only.verdict, Verdict::kUnknown);
  EXPECT_GE(cascade.work, interval_only.work);
}

TEST(Cascade, CustomStageListWorks) {
  const CascadeEngine skip_symbolic({"interval", "bnb"});
  ASSERT_EQ(skip_symbolic.stages().size(), 2u);
  const nn::QuantizedNetwork net = random_qnet(22);
  const std::vector<i64> x{25, 75};
  const int label = net.classify_noised(x, {});
  const Query q = make_query(net, x, label, 2);
  EXPECT_EQ(skip_symbolic.verify(q).verdict,
            enumerate_find_first(q).verdict);
}

}  // namespace
}  // namespace fannet::verify
