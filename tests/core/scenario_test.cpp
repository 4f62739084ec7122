#include "core/scenario.h"

#include <gtest/gtest.h>

#include "../test_scenario.h"
#include "core/scale.h"
#include "core/traffic_map.h"

namespace itm::core {
namespace {

TEST(Scenario, DeterministicForSeed) {
  auto a = Scenario::generate(tiny_config(5));
  auto b = Scenario::generate(tiny_config(5));
  EXPECT_EQ(a->topo().graph.size(), b->topo().graph.size());
  EXPECT_EQ(a->topo().graph.links().size(), b->topo().graph.links().size());
  EXPECT_EQ(a->users().size(), b->users().size());
  EXPECT_DOUBLE_EQ(a->users().total_users(), b->users().total_users());
  EXPECT_DOUBLE_EQ(a->matrix().total_bytes(), b->matrix().total_bytes());
  // Spot-check a deep value.
  EXPECT_EQ(a->deployment().front_ends().size(),
            b->deployment().front_ends().size());
  if (!a->deployment().front_ends().empty()) {
    EXPECT_EQ(a->deployment().front_ends().back().address,
              b->deployment().front_ends().back().address);
  }
}

TEST(Scenario, DifferentSeedsDiffer) {
  auto a = Scenario::generate(tiny_config(5));
  auto b = Scenario::generate(tiny_config(6));
  EXPECT_NE(a->users().total_users(), b->users().total_users());
}

TEST(Scenario, ComponentsAreConsistent) {
  auto& s = itm::testing::shared_tiny_scenario();
  // DNS pops exist and matrix is non-trivial.
  EXPECT_GT(s.dns().public_pops().size(), 0u);
  EXPECT_GT(s.matrix().total_bytes(), 0.0);
  EXPECT_GT(s.apnic().total_users(), 0.0);
  EXPECT_FALSE(s.peeringdb().records().empty());
  EXPECT_GT(s.tls().size(), 0u);
  EXPECT_EQ(s.routers().routers().size(), s.topo().graph.size());
}

TEST(Scenario, ForkRngIsStablePerPurpose) {
  auto& s = itm::testing::shared_tiny_scenario();
  auto r1 = s.fork_rng(3);
  auto r2 = s.fork_rng(3);
  EXPECT_EQ(r1.next_u64(), r2.next_u64());
  auto r3 = s.fork_rng(4);
  EXPECT_NE(s.fork_rng(3).next_u64(), r3.next_u64());
}

TEST(Scenario, ConfigPresetsScale) {
  const auto tiny = tiny_config();
  const auto def = default_config();
  const auto large = large_config();
  EXPECT_LT(tiny.topology.num_access, def.topology.num_access);
  EXPECT_LT(def.topology.num_access, large.topology.num_access);
}

// The fields tier_build_options() sets.
void expect_same_build(const MapBuildOptions& a, const MapBuildOptions& b) {
  EXPECT_EQ(a.tier, b.tier);
  EXPECT_EQ(a.workload.queries_per_activity, b.workload.queries_per_activity);
  EXPECT_EQ(a.workload.sessions_per_user, b.workload.sessions_per_user);
  EXPECT_EQ(a.workload.top_services, b.workload.top_services);
  EXPECT_EQ(a.probe_rounds, b.probe_rounds);
  EXPECT_EQ(a.ecs_map_services, b.ecs_map_services);
  EXPECT_EQ(a.routing_destination_stride, b.routing_destination_stride);
}

TEST(Scale, PinnedTiersResolveToTierBuildOptions) {
  for (const ScaleTier tier : {ScaleTier::kMedium, ScaleTier::kHuge}) {
    ScenarioConfig config;
    MapBuildOptions options;
    ASSERT_TRUE(resolve_scale(to_string(tier), std::nullopt, config, options));
    expect_same_build(options, tier_build_options(tier));
    EXPECT_EQ(config.seed, tier_seed(tier));
    EXPECT_EQ(config.topology.num_access,
              tier_config(tier).topology.num_access);
    // An explicit seed replaces the pinned one; the build stays the tier's.
    ASSERT_TRUE(resolve_scale(to_string(tier), 7, config, options));
    EXPECT_EQ(config.seed, 7u);
    expect_same_build(options, tier_build_options(tier));
  }
}

TEST(Scale, ExplorationScalesResolveToDefaultBuildOptions) {
  for (const char* name : {"tiny", "default", "large"}) {
    ScenarioConfig config;
    MapBuildOptions options;
    options.probe_rounds = 99;  // a stale value must not survive
    ASSERT_TRUE(resolve_scale(name, 5, config, options)) << name;
    expect_same_build(options, MapBuildOptions{});
    EXPECT_EQ(config.seed, 5u);
  }
  ScenarioConfig config;
  MapBuildOptions options;
  ASSERT_TRUE(resolve_scale("tiny", std::nullopt, config, options));
  EXPECT_EQ(config.seed, tiny_config().seed);
  EXPECT_EQ(config.topology.num_access, tiny_config().topology.num_access);
  EXPECT_FALSE(resolve_scale("galactic", std::nullopt, config, options));
}

}  // namespace
}  // namespace itm::core
