// Tests for fault/fault_model and core/failure_predicate.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "core/failure_predicate.hpp"
#include "fault/fault_model.hpp"

namespace rnoc::fault {
namespace {

using core::RouterMode;

TEST(FaultModel, InjectAndQuery) {
  RouterFaultState s({5, 4});
  EXPECT_FALSE(s.has(SiteType::RcPrimary, 2));
  EXPECT_TRUE(s.inject({SiteType::RcPrimary, 2, 0}));
  EXPECT_TRUE(s.has(SiteType::RcPrimary, 2));
  EXPECT_EQ(s.count(), 1);
}

TEST(FaultModel, DoubleInjectIsNoop) {
  RouterFaultState s({5, 4});
  EXPECT_TRUE(s.inject({SiteType::XbMux, 1, 0}));
  EXPECT_FALSE(s.inject({SiteType::XbMux, 1, 0}));
  EXPECT_EQ(s.count(), 1);
}

TEST(FaultModel, ClearResets) {
  RouterFaultState s({5, 4});
  s.inject({SiteType::Va1ArbiterSet, 0, 3});
  s.clear();
  EXPECT_EQ(s.count(), 0);
  EXPECT_FALSE(s.has(SiteType::Va1ArbiterSet, 0, 3));
}

TEST(FaultModel, PerVcSitesAreDistinct) {
  RouterFaultState s({5, 4});
  s.inject({SiteType::Va1ArbiterSet, 1, 2});
  EXPECT_TRUE(s.has(SiteType::Va1ArbiterSet, 1, 2));
  EXPECT_FALSE(s.has(SiteType::Va1ArbiterSet, 1, 1));
  EXPECT_FALSE(s.has(SiteType::Va1ArbiterSet, 2, 2));
}

TEST(FaultModel, RangeChecks) {
  RouterFaultState s({5, 4});
  EXPECT_THROW(s.has(SiteType::RcPrimary, 5), std::invalid_argument);
  EXPECT_THROW(s.has(SiteType::Va1ArbiterSet, 0, 4), std::invalid_argument);
  EXPECT_THROW(s.inject({SiteType::RcPrimary, 0, 1}), std::invalid_argument);
}

TEST(FaultModel, MasksTrackInjectAndRemove) {
  // The masks the router pipeline reads must agree with has() through any
  // sequence of injections and (transient) removals: a port bit stays set
  // while any VC site of that port is faulty and clears with the last one.
  const FaultGeometry g{5, 4};
  const auto sites = RouterFaultState::enumerate_sites(g, true);
  RouterFaultState s(g);
  Rng rng(11);
  for (int step = 0; step < 2000; ++step) {
    const FaultSite& site = sites[rng.next_below(sites.size())];
    if (rng.next_bool(0.5))
      s.inject(site);
    else
      s.remove(site);
    int faulty = 0;
    for (const FaultSite& q : sites) {
      const bool f = s.has(q);
      faulty += f ? 1 : 0;
      EXPECT_EQ((s.port_mask(q.type) >> q.a & 1u) != 0,
                type_uses_vc(q.type) ? s.vc_mask(q.type, q.a) != 0 : f);
      if (type_uses_vc(q.type)) {
        EXPECT_EQ((s.vc_mask(q.type, q.a) >> q.b & 1u) != 0, f);
      }
    }
    ASSERT_EQ(s.count(), faulty);
  }
  s.clear();
  for (const FaultSite& q : sites) EXPECT_EQ(s.port_mask(q.type), 0u);
}

TEST(FaultModel, EnumerateBaselineSiteCount) {
  // RcPrimary 5 + Va1 20 + Va2 20 + Sa1 5 + Sa2 5 + XbMux 5 = 60.
  const auto sites = RouterFaultState::enumerate_sites({5, 4}, false);
  EXPECT_EQ(sites.size(), 60u);
  for (const auto& s : sites) {
    EXPECT_NE(s.type, SiteType::RcSpare);
    EXPECT_NE(s.type, SiteType::Sa1Bypass);
    EXPECT_NE(s.type, SiteType::XbDemux);
    EXPECT_NE(s.type, SiteType::XbPSelect);
  }
}

TEST(FaultModel, EnumerateProtectedSiteCount) {
  // + RcSpare 5 + Sa1Bypass 5 + XbDemux 4 + XbPSelect 5 = 79.
  const auto sites = RouterFaultState::enumerate_sites({5, 4}, true);
  EXPECT_EQ(sites.size(), 79u);
}

TEST(FaultModel, EnumerateSitesAreUnique) {
  const auto sites = RouterFaultState::enumerate_sites({5, 4}, true);
  std::set<std::string> seen;
  for (const auto& s : sites) EXPECT_TRUE(seen.insert(to_string(s)).second);
}

TEST(FaultModel, ToStringNamesTypeAndPort) {
  const std::string s = to_string({SiteType::Va1ArbiterSet, 3, 2});
  EXPECT_NE(s.find("Va1ArbiterSet"), std::string::npos);
  EXPECT_NE(s.find("port=3"), std::string::npos);
  EXPECT_NE(s.find("vc=2"), std::string::npos);
}

// ---------- Failure predicate ----------

TEST(FailurePredicate, CleanRouterNeverFailed) {
  RouterFaultState s({5, 4});
  EXPECT_FALSE(core::router_failed(s, RouterMode::Baseline));
  EXPECT_FALSE(core::router_failed(s, RouterMode::Protected));
}

TEST(FailurePredicate, BaselineFailsOnAnyFault) {
  for (const auto& site : RouterFaultState::enumerate_sites({5, 4}, false)) {
    RouterFaultState s({5, 4});
    s.inject(site);
    EXPECT_TRUE(core::router_failed(s, RouterMode::Baseline))
        << to_string(site);
  }
}

TEST(FailurePredicate, ProtectedSurvivesAnySinglePipelineFault) {
  for (const auto& site : RouterFaultState::enumerate_sites({5, 4}, false)) {
    RouterFaultState s({5, 4});
    s.inject(site);
    EXPECT_FALSE(core::router_failed(s, RouterMode::Protected))
        << to_string(site);
  }
}

TEST(FailurePredicate, RcPairKills) {
  RouterFaultState s({5, 4});
  s.inject({SiteType::RcPrimary, 2, 0});
  EXPECT_FALSE(core::router_failed(s, RouterMode::Protected));
  s.inject({SiteType::RcSpare, 2, 0});
  EXPECT_TRUE(core::router_failed(s, RouterMode::Protected));
}

TEST(FailurePredicate, RcPairAcrossPortsDoesNotKill) {
  RouterFaultState s({5, 4});
  s.inject({SiteType::RcPrimary, 2, 0});
  s.inject({SiteType::RcSpare, 3, 0});
  EXPECT_FALSE(core::router_failed(s, RouterMode::Protected));
}

TEST(FailurePredicate, VaPortDiesOnlyWhenAllSetsDie) {
  RouterFaultState s({5, 4});
  for (int v = 0; v < 3; ++v) {
    s.inject({SiteType::Va1ArbiterSet, 1, v});
    EXPECT_FALSE(core::router_failed(s, RouterMode::Protected)) << v;
  }
  s.inject({SiteType::Va1ArbiterSet, 1, 3});
  EXPECT_TRUE(core::router_failed(s, RouterMode::Protected));
}

TEST(FailurePredicate, SaArbiterPlusBypassKills) {
  RouterFaultState s({5, 4});
  s.inject({SiteType::Sa1Arbiter, 0, 0});
  s.inject({SiteType::Sa1Bypass, 0, 0});
  EXPECT_TRUE(core::router_failed(s, RouterMode::Protected));
}

TEST(FailurePredicate, MaxTolerableXbFaultSet) {
  // Paper §VIII-D: M1 and M3 (0-based) simultaneously faulty: functional.
  RouterFaultState s({5, 4});
  s.inject({SiteType::XbMux, 1, 0});
  s.inject({SiteType::XbMux, 3, 0});
  EXPECT_FALSE(core::router_failed(s, RouterMode::Protected));
  // One more mux anywhere kills it.
  for (int m : {0, 2, 4}) {
    RouterFaultState t({5, 4});
    t.inject({SiteType::XbMux, 1, 0});
    t.inject({SiteType::XbMux, 3, 0});
    t.inject({SiteType::XbMux, m, 0});
    EXPECT_TRUE(core::router_failed(t, RouterMode::Protected)) << m;
  }
}

TEST(FailurePredicate, PaperMaximumToleratedSetSurvives) {
  // The paper's 27-fault maximum: one RC unit per port (5), three VA sets
  // per port (15), one SA arbiter per port (5), two crossbar muxes (2).
  RouterFaultState s({5, 4});
  for (int p = 0; p < 5; ++p) {
    s.inject({SiteType::RcPrimary, p, 0});
    s.inject({SiteType::Sa1Arbiter, p, 0});
    for (int v = 0; v < 3; ++v) s.inject({SiteType::Va1ArbiterSet, p, v});
  }
  s.inject({SiteType::XbMux, 1, 0});
  s.inject({SiteType::XbMux, 3, 0});
  EXPECT_EQ(s.count(), 27);
  EXPECT_FALSE(core::router_failed(s, core::RouterMode::Protected));
}

TEST(FailurePredicate, ReasonsNamePort) {
  RouterFaultState s({5, 4});
  s.inject({SiteType::RcPrimary, 2, 0});
  s.inject({SiteType::RcSpare, 2, 0});
  const auto a = core::analyze_router(s, RouterMode::Protected);
  ASSERT_TRUE(a.failed);
  ASSERT_FALSE(a.reasons.empty());
  EXPECT_NE(a.reasons[0].find("port 2"), std::string::npos);
}

TEST(FailurePredicate, Va2AllArbitersOfOutputKills) {
  RouterFaultState s({5, 4});
  for (int u = 0; u < 4; ++u) s.inject({SiteType::Va2Arbiter, 3, u});
  EXPECT_TRUE(core::router_failed(s, RouterMode::Protected));
}

TEST(FailurePredicate, OutputReachability) {
  RouterFaultState s({5, 4});
  EXPECT_TRUE(core::output_reachable(s, RouterMode::Protected, 2));
  s.inject({SiteType::XbMux, 2, 0});
  EXPECT_TRUE(core::output_reachable(s, RouterMode::Protected, 2));
  EXPECT_FALSE(core::output_reachable(s, RouterMode::Baseline, 2));
  s.inject({SiteType::XbMux, 1, 0});  // secondary of out2
  EXPECT_FALSE(core::output_reachable(s, RouterMode::Protected, 2));
}

}  // namespace
}  // namespace rnoc::fault
