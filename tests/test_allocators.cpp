// Direct unit tests for the separable allocators (VcAllocator,
// SwitchAllocator) driven outside the router, where each stage's inputs and
// outputs can be staged precisely.
#include <gtest/gtest.h>

#include "noc/sw_allocator.hpp"
#include "noc/vc_allocator.hpp"

namespace rnoc::noc {
namespace {

using core::RouterMode;
using fault::SiteType;

constexpr int P = 5;
constexpr int V = 4;

struct AllocRig {
  explicit AllocRig(RouterMode mode = RouterMode::Protected)
      : store(P, V, 4),
        out(P, V, 4),
        faults({P, V}),
        va(P, V, mode),
        sa(P, V, mode, 1000) {
    for (int p = 0; p < P; ++p) inputs.emplace_back(store, p);
  }

  /// Puts a head flit into (port, vc) already routed toward `route`,
  /// in VcAlloc state (as if RC completed last cycle).
  VirtualChannel& stage_vcalloc(int port, int vc, int route) {
    Flit f;
    f.type = FlitType::Head;
    f.vc = vc;
    f.src = 0;
    f.dst = 1;
    inputs[static_cast<std::size_t>(port)].write(f);
    VirtualChannel& ch = inputs[static_cast<std::size_t>(port)].vc(vc);
    ch.state = VcState::VcAlloc;
    ch.route = static_cast<std::int8_t>(route);
    return ch;
  }

  /// Puts a flit into (port, vc) in Active state bound to (route, out_vc).
  VirtualChannel& stage_active(int port, int vc, int route, int out_vc) {
    VirtualChannel& ch = stage_vcalloc(port, vc, route);
    ch.state = VcState::Active;
    ch.out_vc = static_cast<std::int8_t>(out_vc);
    out.set_allocated(route, out_vc, true);
    return ch;
  }

  // The staged VCs bypass the store's mask upkeep, so each run derives the
  // VC-state masks from scratch, as the FullSweep oracle does.
  void run_va(Cycle now = 0) {
    store.rebuild_masks();
    va.step(now, store, out, faults, stats);
  }
  std::vector<StGrant> run_sa(Cycle now = 0) {
    store.rebuild_masks();
    GrantSet grants;
    sa.step(now, store, out, faults, stats, grants);
    return {grants.begin(), grants.end()};
  }

  VcStore store;
  std::vector<InputPort> inputs;  ///< Views of the store's ports.
  OutVcTable out;
  fault::RouterFaultState faults;
  RouterStats stats;
  VcAllocator va;
  SwitchAllocator sa;
};

// ---------- VcAllocator ----------

TEST(VcAllocatorUnit, GrantsEmptyDownstreamVc) {
  AllocRig rig;
  VirtualChannel& ch = rig.stage_vcalloc(0, 0, 2);
  rig.run_va();
  EXPECT_EQ(ch.state, VcState::Active);
  EXPECT_GE(ch.out_vc, 0);
  EXPECT_TRUE(rig.out.allocated(2, ch.out_vc));
}

TEST(VcAllocatorUnit, SkipsAllocatedDownstreamVcs) {
  AllocRig rig;
  for (int u = 0; u < 3; ++u) rig.out.set_allocated(2, u, true);
  VirtualChannel& ch = rig.stage_vcalloc(0, 0, 2);
  rig.run_va();
  EXPECT_EQ(ch.out_vc, 3);
}

TEST(VcAllocatorUnit, NoEmptyDownstreamVcMeansNoGrant) {
  AllocRig rig;
  for (int u = 0; u < V; ++u) rig.out.set_allocated(2, u, true);
  VirtualChannel& ch = rig.stage_vcalloc(0, 0, 2);
  rig.run_va();
  EXPECT_EQ(ch.state, VcState::VcAlloc);  // still waiting
}

TEST(VcAllocatorUnit, Stage2ResolvesConflict) {
  AllocRig rig;
  VirtualChannel& a = rig.stage_vcalloc(0, 0, 2);
  VirtualChannel& b = rig.stage_vcalloc(1, 0, 2);
  rig.run_va();
  // Both propose downstream VC 0 (fresh stage-1 pointers); exactly one wins.
  const bool a_won = a.state == VcState::Active;
  const bool b_won = b.state == VcState::Active;
  EXPECT_NE(a_won, b_won);
  rig.run_va();
  EXPECT_EQ(a.state, VcState::Active);
  EXPECT_EQ(b.state, VcState::Active);
  EXPECT_NE(a.out_vc, b.out_vc);
}

TEST(VcAllocatorUnit, DifferentOutputsGrantInParallel) {
  AllocRig rig;
  VirtualChannel& a = rig.stage_vcalloc(0, 0, 2);
  VirtualChannel& b = rig.stage_vcalloc(1, 0, 3);
  rig.run_va();
  EXPECT_EQ(a.state, VcState::Active);
  EXPECT_EQ(b.state, VcState::Active);
}

TEST(VcAllocatorUnit, BorrowSetsLenderFieldsDuringStep) {
  // The R2/VF/ID fields are written on the lender and cleared at the end of
  // the VA step (paper §V-B2); a borrowing VC still gets its allocation.
  AllocRig rig;
  rig.faults.inject({SiteType::Va1ArbiterSet, 0, 0});
  VirtualChannel& ch = rig.stage_vcalloc(0, 0, 2);
  rig.run_va();
  EXPECT_EQ(ch.state, VcState::Active);
  EXPECT_EQ(rig.stats.va1_borrows, 1u);
  // Fields are reset after the allocation attempt completes.
  EXPECT_FALSE(rig.inputs[0].vc(1).vf);
  EXPECT_EQ(rig.inputs[0].vc(1).id, -1);
}

TEST(VcAllocatorUnit, TwoBorrowersOneLender) {
  AllocRig rig;
  rig.faults.inject({SiteType::Va1ArbiterSet, 0, 0});
  rig.faults.inject({SiteType::Va1ArbiterSet, 0, 1});
  rig.faults.inject({SiteType::Va1ArbiterSet, 0, 2});
  VirtualChannel& a = rig.stage_vcalloc(0, 0, 2);
  VirtualChannel& b = rig.stage_vcalloc(0, 1, 3);
  rig.run_va();
  // Only VC3's set is healthy; it can serve one borrower per cycle.
  const int active = (a.state == VcState::Active ? 1 : 0) +
                     (b.state == VcState::Active ? 1 : 0);
  EXPECT_EQ(active, 1);
  EXPECT_EQ(rig.stats.va1_borrow_waits, 1u);
  rig.run_va();
  EXPECT_EQ(a.state, VcState::Active);
  EXPECT_EQ(b.state, VcState::Active);
}

TEST(VcAllocatorUnit, Stage2FaultSetsExclusion) {
  AllocRig rig;
  rig.faults.inject({SiteType::Va2Arbiter, 2, 0});
  VirtualChannel& ch = rig.stage_vcalloc(0, 0, 2);
  rig.run_va();
  EXPECT_EQ(ch.state, VcState::VcAlloc);
  EXPECT_EQ(ch.excluded_out_vc, 0);
  EXPECT_EQ(rig.stats.va2_retries, 1u);
  rig.run_va();
  EXPECT_EQ(ch.state, VcState::Active);
  EXPECT_NE(ch.out_vc, 0);
  EXPECT_EQ(ch.excluded_out_vc, -1);  // cleared on success
}

TEST(VcAllocatorUnit, BaselineBlocksOnFaultySet) {
  AllocRig rig(RouterMode::Baseline);
  rig.faults.inject({SiteType::Va1ArbiterSet, 0, 0});
  VirtualChannel& ch = rig.stage_vcalloc(0, 0, 2);
  for (int i = 0; i < 5; ++i) rig.run_va();
  EXPECT_EQ(ch.state, VcState::VcAlloc);
  EXPECT_GE(rig.stats.blocked_vc_cycles, 5u);
}

// ---------- SwitchAllocator ----------

TEST(SwitchAllocatorUnit, GrantsActiveVcWithCredits) {
  AllocRig rig;
  rig.stage_active(0, 0, 2, 1);
  const auto grants = rig.run_sa();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].in_port, 0);
  EXPECT_EQ(grants[0].in_vc, 0);
  EXPECT_EQ(grants[0].out_port, 2);
  EXPECT_EQ(grants[0].mux, 2);
  EXPECT_EQ(grants[0].out_vc, 1);
  EXPECT_EQ(rig.out.credits(2, 1), 3);  // decremented
}

TEST(SwitchAllocatorUnit, NoCreditNoGrant) {
  AllocRig rig;
  rig.stage_active(0, 0, 2, 1);
  rig.out.credits(2, 1) = 0;
  EXPECT_TRUE(rig.run_sa().empty());
}

TEST(SwitchAllocatorUnit, OneGrantPerInputPort) {
  AllocRig rig;
  rig.stage_active(0, 0, 2, 0);
  rig.stage_active(0, 1, 3, 0);
  const auto grants = rig.run_sa();
  EXPECT_EQ(grants.size(), 1u);
}

TEST(SwitchAllocatorUnit, OneGrantPerOutputPort) {
  AllocRig rig;
  rig.stage_active(0, 0, 2, 0);
  rig.stage_active(1, 0, 2, 1);
  const auto grants = rig.run_sa();
  EXPECT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].out_port, 2);
}

TEST(SwitchAllocatorUnit, IndependentPortsGrantTogether) {
  AllocRig rig;
  rig.stage_active(0, 0, 2, 0);
  rig.stage_active(1, 0, 3, 0);
  EXPECT_EQ(rig.run_sa().size(), 2u);
}

TEST(SwitchAllocatorUnit, RoundRobinAcrossInputPorts) {
  AllocRig rig;
  rig.stage_active(0, 0, 2, 0);
  rig.stage_active(1, 0, 2, 1);
  const auto g1 = rig.run_sa(0);
  ASSERT_EQ(g1.size(), 1u);
  const int first = g1[0].in_port;
  const auto g2 = rig.run_sa(1);
  ASSERT_EQ(g2.size(), 1u);
  EXPECT_NE(g2[0].in_port, first);
}

TEST(SwitchAllocatorUnit, BypassGrantsOnlyDefaultWinner) {
  AllocRig rig;
  rig.faults.inject({SiteType::Sa1Arbiter, 0, 0});
  rig.stage_active(0, 1, 2, 0);  // not the default winner (VC 0 at cycle 0)
  rig.stage_active(0, 0, 3, 0);  // the default winner
  const auto grants = rig.run_sa(0);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].in_vc, 0);
  EXPECT_EQ(rig.stats.sa1_bypass_grants, 1u);
}

TEST(SwitchAllocatorUnit, TransferWhenDefaultWinnerEmpty) {
  AllocRig rig;
  rig.faults.inject({SiteType::Sa1Arbiter, 0, 0});
  rig.stage_active(0, 2, 3, 0);  // flits wait on VC2, default winner VC0 empty
  const auto g1 = rig.run_sa(0);
  EXPECT_TRUE(g1.empty());  // the transfer consumes this cycle
  EXPECT_EQ(rig.stats.sa1_transfers, 1u);
  EXPECT_FALSE(rig.inputs[0].vc(0).empty());
  const auto g2 = rig.run_sa(1);
  ASSERT_EQ(g2.size(), 1u);
  EXPECT_EQ(g2[0].in_vc, 0);
}

TEST(SwitchAllocatorUnit, SecondaryPathTargetsNeighbourMux) {
  AllocRig rig;
  rig.faults.inject({SiteType::XbMux, 2, 0});
  rig.stage_active(0, 0, 2, 0);
  const auto grants = rig.run_sa();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].out_port, 2);
  EXPECT_EQ(grants[0].mux, core::secondary_mux_for_output(2, P));
  EXPECT_EQ(rig.stats.xb_secondary_traversals, 1u);
}

TEST(SwitchAllocatorUnit, SharedSecondaryMuxSerializes) {
  AllocRig rig;
  rig.faults.inject({SiteType::XbMux, 2, 0});
  rig.stage_active(0, 0, 2, 0);  // secondary via mux 1
  rig.stage_active(1, 0, 1, 0);  // native user of mux 1
  const auto grants = rig.run_sa();
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0].mux, 1);
}

TEST(SwitchAllocatorUnit, DeadSa2ArbiterGrantsNothing) {
  AllocRig rig(RouterMode::Baseline);
  rig.faults.inject({SiteType::Sa2Arbiter, 2, 0});
  rig.stage_active(0, 0, 2, 0);
  EXPECT_TRUE(rig.run_sa().empty());
  EXPECT_GE(rig.stats.blocked_vc_cycles, 1u);
}

TEST(SwitchAllocatorUnit, DefaultWinnerEpochRotation) {
  SwitchAllocator sa(P, V, RouterMode::Protected, 4);
  EXPECT_EQ(sa.default_winner(0), 0);
  EXPECT_EQ(sa.default_winner(4), 1);
  EXPECT_EQ(sa.default_winner(15), 3);
  EXPECT_EQ(sa.default_winner(16), 0);
}

}  // namespace
}  // namespace rnoc::noc
