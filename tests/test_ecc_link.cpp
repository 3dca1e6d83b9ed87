// Tests for the SECDED-protected link datapath with retransmission.
#include <gtest/gtest.h>

#include "link_take.hpp"
#include "noc/link.hpp"
#include "noc/simulator.hpp"
#include "traffic/patterns.hpp"

namespace rnoc::noc {
namespace {

using testing::take_flit;

Flit flit_of(PacketId id, std::uint64_t payload = 0xDEADBEEFull) {
  Flit f;
  f.type = FlitType::HeadTail;
  f.packet = id;
  f.src = 0;
  f.dst = 1;
  f.vc = 0;
  f.size = 1;
  f.payload = payload;
  return f;
}

TEST(EccLink, CleanChannelBehavesLikeLink) {
  Link l(1, {0.0, 0.0, 1});
  l.push_flit(flit_of(1), 0);
  EXPECT_FALSE(take_flit(l, 0).has_value());
  const auto f = take_flit(l, 1);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->packet, 1u);
  EXPECT_EQ(l.stats().corrected_singles, 0u);
  EXPECT_EQ(l.stats().retransmissions, 0u);
}

TEST(EccLink, SingleUpsetsAreCorrectedInPlace) {
  Link l(1, {1.0, 0.0, 7});  // every flit takes a single-bit hit
  for (Cycle c = 0; c < 50; ++c) {
    const std::uint64_t payload = 0xABCD0000ull + c;
    l.push_flit(flit_of(c + 1, payload), 2 * c);
    const auto f = take_flit(l, 2 * c + 1);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->payload, payload);  // corrected, not corrupted
  }
  EXPECT_EQ(l.stats().corrected_singles, 50u);
  EXPECT_EQ(l.stats().flits_delivered, 50u);
}

TEST(EccLink, DoubleUpsetTriggersRetransmission) {
  Link l(1, {0.0, 1.0, 3});  // every first transfer fails
  l.push_flit(flit_of(9, 42), 0);
  EXPECT_FALSE(take_flit(l, 1).has_value());  // detected, held
  const auto f = take_flit(l, 2);             // retry arrives next cycle
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->packet, 9u);
  EXPECT_EQ(f->payload, 42u);
  EXPECT_EQ(l.stats().retransmissions, 1u);
  EXPECT_EQ(l.stats().flits_delivered, 1u);
}

TEST(EccLink, HeldFlitCountsAsInFlight) {
  Link l(1, {0.0, 1.0, 3});
  l.push_flit(flit_of(1), 0);
  EXPECT_EQ(l.flits_in_flight(), 1);
  (void)take_flit(l, 1);  // moves into held state
  EXPECT_EQ(l.flits_in_flight(), 1);
  EXPECT_FALSE(l.idle());
  (void)take_flit(l, 2);
  EXPECT_EQ(l.flits_in_flight(), 0);
  EXPECT_TRUE(l.idle());
}

TEST(EccLink, RetransmissionPreservesOrder) {
  Link l(1, {0.0, 1.0, 5});
  l.push_flit(flit_of(1), 0);
  l.push_flit(flit_of(2), 1);
  std::vector<PacketId> order;
  for (Cycle c = 1; c < 8; ++c)
    if (auto f = take_flit(l, c)) order.push_back(f->packet);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
}

TEST(EccLink, RejectsBadProbabilities) {
  EXPECT_THROW(Link(1, {0.8, 0.5, 1}), std::invalid_argument);
  EXPECT_THROW(Link(1, {-0.1, 0.0, 1}), std::invalid_argument);
}

TEST(EccLink, EccOffLinkMatchesPlainLink) {
  // Zero upset rates switch the datapath off whatever the seed: the link
  // delivers exactly like a plain one and never engages the codec or its
  // error draws.
  Link plain(2);
  Link off(2, {0.0, 0.0, 99});
  EXPECT_FALSE(off.ecc());
  for (Cycle c = 0; c < 40; ++c) {
    if (c % 3 != 2) {
      plain.push_flit(flit_of(c + 1, 0x1234500ull + c), c);
      off.push_flit(flit_of(c + 1, 0x1234500ull + c), c);
    }
    EXPECT_EQ(plain.next_flit_ready(), off.next_flit_ready());
    const auto a = take_flit(plain, c);
    const auto b = take_flit(off, c);
    ASSERT_EQ(a.has_value(), b.has_value()) << "cycle " << c;
    if (a) {
      EXPECT_EQ(a->packet, b->packet);
      EXPECT_EQ(a->payload, b->payload);
    }
  }
  EXPECT_EQ(off.stats().flits_delivered, 0u);
  EXPECT_EQ(off.stats().corrected_singles, 0u);
  EXPECT_EQ(off.stats().retransmissions, 0u);
}

TEST(EccLink, NoisyMeshStillDeliversEverything) {
  SimConfig cfg;
  cfg.mesh.dims = {4, 4};
  cfg.mesh.link_single_ber = 0.02;
  cfg.mesh.link_double_ber = 0.002;
  cfg.warmup = 500;
  cfg.measure = 3000;
  cfg.drain_limit = 10000;
  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.08;
  Simulator sim(cfg, std::make_shared<traffic::SyntheticTraffic>(tc));
  const auto rep = sim.run();
  EXPECT_FALSE(rep.deadlock_suspected);
  EXPECT_EQ(rep.undelivered_flits, 0u);
  const auto ecc = sim.mesh().aggregate_ecc_stats();
  EXPECT_GT(ecc.corrected_singles, 0u);
  EXPECT_GT(ecc.retransmissions, 0u);
  EXPECT_GT(ecc.flits_delivered, 0u);
}

TEST(EccLink, NoiseAndPermanentFaultsCompose) {
  SimConfig cfg;
  cfg.mesh.dims = {4, 4};
  cfg.mesh.link_single_ber = 0.01;
  cfg.mesh.link_double_ber = 0.001;
  cfg.warmup = 500;
  cfg.measure = 3000;
  cfg.drain_limit = 12000;
  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.08;
  Simulator sim(cfg, std::make_shared<traffic::SyntheticTraffic>(tc));
  Rng rng(4);
  sim.set_fault_plan(fault::FaultPlan::random(
      cfg.mesh.dims, {kMeshPorts, cfg.mesh.router.vcs},
      core::RouterMode::Protected, 16, cfg.warmup, rng, true));
  const auto rep = sim.run();
  EXPECT_FALSE(rep.deadlock_suspected);
  EXPECT_EQ(rep.undelivered_flits, 0u);
}

}  // namespace
}  // namespace rnoc::noc
