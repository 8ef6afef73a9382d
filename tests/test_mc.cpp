// Unit + cross-engine tests for the model-checking backends: explicit-state
// reachability (the Fig.-3 counters) and BDD-based symbolic reachability.
// A family of small SMV models is checked by both engines, which must
// agree.
#include <gtest/gtest.h>

#include "core/translate.hpp"
#include "mc/bddmc.hpp"
#include "mc/explicit.hpp"
#include "smv/parser.hpp"
#include "util/error.hpp"

namespace fannet::mc {
namespace {

using smv::Module;
using smv::parse_module;

/// Simple bounded counter: x counts 0..7 and wraps.
Module counter_module() {
  return parse_module(R"(
MODULE main
VAR x : 0..7;
ASSIGN
  init(x) := 0;
  next(x) := case x < 7 : x + 1; TRUE : 0; esac;
INVARSPEC x <= 7
INVARSPEC x < 5
)");
}

TEST(Explicit, CounterReachability) {
  const Module m = counter_module();
  const ExplicitChecker checker(m);
  const ReachabilityStats stats = checker.explore();
  EXPECT_EQ(stats.num_states, 8u);
  EXPECT_EQ(stats.num_transitions, 8u);  // deterministic ring
  EXPECT_EQ(stats.num_initial, 1u);
}

TEST(Explicit, InvariantHoldsAndFails) {
  const Module m = counter_module();
  const ExplicitChecker checker(m);
  EXPECT_TRUE(checker.check_spec(m.specs()[0]).holds);
  const InvariantResult r = checker.check_spec(m.specs()[1]);
  EXPECT_FALSE(r.holds);
  // BFS produces the shortest counterexample: 0,1,2,3,4,5.
  ASSERT_EQ(r.counterexample.states.size(), 6u);
  EXPECT_EQ(r.counterexample.states.front()[0], 0);
  EXPECT_EQ(r.counterexample.states.back()[0], 5);
}

TEST(Explicit, NondeterministicChoices) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..3;
ASSIGN
  init(x) := {0, 1};
  next(x) := {x, 0};
)");
  const ExplicitChecker checker(m);
  EXPECT_EQ(checker.initial_states().size(), 2u);
  const auto succ = checker.successors({3});
  EXPECT_EQ(succ.size(), 2u);  // {3, 0}
  const auto self = checker.successors({0});
  EXPECT_EQ(self.size(), 1u);  // {0} deduplicated
}

TEST(Explicit, TransConstraintFiltersEdges) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..3;
ASSIGN init(x) := 0;
TRANS next(x) = x + 1
)");
  // No ASSIGN next: the domain is filtered by TRANS to a single successor.
  const ExplicitChecker checker(m);
  const auto succ = checker.successors({1});
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ[0][0], 2);
  // From 3, x+1 = 4 is outside the domain: no successors at all.
  EXPECT_TRUE(checker.successors({3}).empty());
}

TEST(Explicit, InvarConstraintPrunesStates) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..9;
ASSIGN init(x) := {0,1,2,3,4,5,6,7,8,9};
INVAR x < 4
)");
  const ExplicitChecker checker(m);
  EXPECT_EQ(checker.initial_states().size(), 4u);
}

TEST(Explicit, DomainViolationThrows) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..3;
ASSIGN init(x) := 0; next(x) := x + 1;
)");
  const ExplicitChecker checker(m);
  EXPECT_THROW(checker.successors({3}), InvalidArgument);
}

TEST(Explicit, StateCapEnforced) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..1000;
ASSIGN init(x) := 0; next(x) := 0..1000;
)");
  ExplicitOptions options;
  options.max_states = 10;
  const ExplicitChecker checker(m, options);
  EXPECT_THROW((void)checker.explore(), ResourceLimit);
}

// ---------------------------------------------------------------------------
// Fig. 3: the paper's state/transition counts.
// ---------------------------------------------------------------------------
TEST(Fig3, LabelFsmHas3States6Transitions) {
  const Module m = core::make_fig3_label_fsm();
  const ExplicitChecker checker(m);
  const ReachabilityStats stats = checker.explore();
  EXPECT_EQ(stats.num_states, 3u);
  EXPECT_EQ(stats.num_transitions, 6u);
}

TEST(Fig3, NoiseFsmMatchesPaperAt1Percent) {
  // 6 input nodes (5 genes + bias), noise range [0,1]%: 65 states, 4160
  // transitions — the exact numbers in Fig. 3(c).
  const Module m = core::make_fig3_noise_fsm(6, 1);
  const ExplicitChecker checker(m);
  const ReachabilityStats stats = checker.explore();
  EXPECT_EQ(stats.num_states, 65u);
  EXPECT_EQ(stats.num_transitions, 4160u);
}

TEST(Fig3, NoiseFsmFollowsClosedForm) {
  for (const auto& [nodes, delta] :
       std::vector<std::pair<std::size_t, int>>{{2, 1}, {3, 1}, {2, 3}, {4, 2}}) {
    const Module m = core::make_fig3_noise_fsm(nodes, delta);
    const ExplicitChecker checker(m);
    const ReachabilityStats stats = checker.explore();
    std::uint64_t box = 1;
    for (std::size_t i = 0; i < nodes; ++i) {
      box *= static_cast<std::uint64_t>(delta + 1);
    }
    EXPECT_EQ(stats.num_states, 1 + box);
    EXPECT_EQ(stats.num_transitions, box + box * box);
  }
}

// ---------------------------------------------------------------------------
// BDD engine + cross-engine agreement
// ---------------------------------------------------------------------------
TEST(BddMc, CounterReachableCountMatchesExplicit) {
  const Module m = counter_module();
  const BddChecker checker(m);
  const BddCheckResult r = checker.reachable_states();
  EXPECT_DOUBLE_EQ(r.reachable_states, 8.0);
}

TEST(BddMc, InvariantVerdictsMatchExplicit) {
  const Module m = counter_module();
  const BddChecker bddc(m);
  const ExplicitChecker expl(m);
  EXPECT_EQ(bddc.check_invariant(m.specs()[0].expr).holds,
            expl.check_spec(m.specs()[0]).holds);
  const BddCheckResult bad = bddc.check_invariant(m.specs()[1].expr);
  EXPECT_FALSE(bad.holds);
  ASSERT_TRUE(bad.violating_state.has_value());
  EXPECT_GE((*bad.violating_state)[0], 5);
}

TEST(BddMc, NodeLimitEnforced) {
  const Module m = core::make_fig3_noise_fsm(4, 3);
  BddOptions options;
  options.max_nodes = 50;
  const BddChecker checker(m, options);
  EXPECT_THROW(checker.reachable_states(), ResourceLimit);
}

/// Both engines on one nondeterministic model with INVAR + TRANS mix.
TEST(CrossEngine, AgreeOnMixedModel) {
  const Module m = parse_module(R"(
MODULE main
VAR x : 0..15; y : boolean;
ASSIGN
  init(x) := 0; init(y) := FALSE;
  next(x) := {x, x + 2};
INVAR x != 6
TRANS next(y) = (next(x) > x)
INVARSPEC !(x = 10 & y)
INVARSPEC x != 6
)");
  const ExplicitChecker expl(m);
  const BddChecker bdd(m);
  for (const auto& spec : m.specs()) {
    const bool expl_holds = expl.check_spec(spec).holds;
    const bool bdd_holds = bdd.check_invariant(spec.expr).holds;
    EXPECT_EQ(expl_holds, bdd_holds);
  }
}

TEST(CrossEngine, Fig3CountsViaBddSatCount) {
  // The BDD engine independently reproduces the Fig.-3(c) state count.
  const Module m = core::make_fig3_noise_fsm(6, 1);
  const BddChecker checker(m);
  const BddCheckResult r = checker.reachable_states();
  EXPECT_DOUBLE_EQ(r.reachable_states, 65.0);
}

}  // namespace
}  // namespace fannet::mc
