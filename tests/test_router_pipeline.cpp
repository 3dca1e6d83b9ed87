// Tests for the fault-free 4-stage router pipeline: stage timing, credit
// flow, VC lifecycle, streaming, and arbitration under contention.
#include <gtest/gtest.h>

#include "router_harness.hpp"

namespace rnoc::noc {
namespace {

using testing::RouterHarness;

TEST(RouterPipeline, SingleFlitFourStageLatency) {
  RouterHarness h;
  const auto pkt = RouterHarness::make_packet(
      1, RouterHarness::dst_for(Direction::East), 0, 1);
  h.send(port_of(Direction::West), pkt[0], 0);

  Cycle now = 1;
  Flit got;
  const auto arrival = h.run_until_output(port_of(Direction::East), &now, 20, &got);
  ASSERT_TRUE(arrival.has_value());
  // Accepted at cycle 1 (RC), VA at 2, SA at 3, ST at 4, link delivers at 5.
  EXPECT_EQ(*arrival, 5u);
  EXPECT_EQ(got.packet, 1u);
  EXPECT_EQ(got.type, FlitType::HeadTail);
}

TEST(RouterPipeline, FlitRewrittenToDownstreamVc) {
  RouterHarness h;
  const auto pkt = RouterHarness::make_packet(
      1, RouterHarness::dst_for(Direction::South), 2, 1);
  h.send(port_of(Direction::North), pkt[0], 0);
  Cycle now = 1;
  Flit got;
  ASSERT_TRUE(h.run_until_output(port_of(Direction::South), &now, 20, &got));
  // The downstream VC id is whatever VA allocated (0 with fresh arbiters),
  // not the VC the flit occupied here.
  EXPECT_EQ(got.vc, 0);
}

TEST(RouterPipeline, CreditReturnedWithVcFreeOnTail) {
  RouterHarness h;
  const auto pkt = RouterHarness::make_packet(
      1, RouterHarness::dst_for(Direction::East), 3, 1);
  h.send(port_of(Direction::West), pkt[0], 0);
  Cycle now = 1;
  ASSERT_TRUE(h.run_until_output(port_of(Direction::East), &now, 20));
  // Credit was pushed at ST (cycle 4), available at 5 on the input link.
  const auto credits = h.recv_credits(port_of(Direction::West), now);
  ASSERT_EQ(credits.size(), 1u);
  EXPECT_EQ(credits[0].vc, 3);
  EXPECT_TRUE(credits[0].vc_free);
}

TEST(RouterPipeline, MultiFlitPacketStreamsOnePerCycle) {
  RouterHarness h;
  const auto pkt = RouterHarness::make_packet(
      7, RouterHarness::dst_for(Direction::East), 0, 3);
  for (std::size_t i = 0; i < pkt.size(); ++i)
    h.send(port_of(Direction::West), pkt[i], static_cast<Cycle>(i));

  std::vector<Cycle> arrivals;
  std::vector<FlitType> types;
  for (Cycle now = 1; now <= 12; ++now) {
    h.step(now);
    if (auto f = h.recv(port_of(Direction::East), now)) {
      arrivals.push_back(now);
      types.push_back(f->type);
    }
  }
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], 5u);
  EXPECT_EQ(arrivals[1], 6u);
  EXPECT_EQ(arrivals[2], 7u);
  EXPECT_EQ(types[0], FlitType::Head);
  EXPECT_EQ(types[1], FlitType::Body);
  EXPECT_EQ(types[2], FlitType::Tail);
}

TEST(RouterPipeline, TailFreesInputVc) {
  RouterHarness h;
  const auto pkt = RouterHarness::make_packet(
      1, RouterHarness::dst_for(Direction::East), 0, 2);
  h.send(port_of(Direction::West), pkt[0], 0);
  h.send(port_of(Direction::West), pkt[1], 1);
  Cycle now = 1;
  for (; now <= 7; ++now) h.step(now);
  const auto& vc = h.router.input_port(port_of(Direction::West)).vc(0);
  EXPECT_EQ(vc.state, VcState::Idle);
  EXPECT_TRUE(vc.buffer.empty());
}

TEST(RouterPipeline, CreditsLimitInFlightFlits) {
  RouterHarness h;  // depth 4 per VC downstream
  // A 6-flit packet with no credits returned: only 4 flits may leave.
  const auto pkt = RouterHarness::make_packet(
      1, RouterHarness::dst_for(Direction::East), 0, 6);
  for (std::size_t i = 0; i < pkt.size(); ++i)
    h.send(port_of(Direction::West), pkt[i], static_cast<Cycle>(i));
  int received = 0;
  Cycle now = 1;
  for (; now <= 25; ++now) {
    h.step(now);
    if (h.recv(port_of(Direction::East), now)) ++received;
  }
  EXPECT_EQ(received, 4);
  // Returning credits releases the rest.
  h.return_credit(port_of(Direction::East), {0, false}, now);
  h.return_credit(port_of(Direction::East), {0, false}, now + 1);
  for (Cycle end = now + 10; now <= end; ++now) {
    h.step(now);
    if (h.recv(port_of(Direction::East), now)) ++received;
  }
  EXPECT_EQ(received, 6);
}

TEST(RouterPipeline, TwoInputsContendForOneOutput) {
  RouterHarness h;
  const NodeId dst = RouterHarness::dst_for(Direction::East);
  const auto a = RouterHarness::make_packet(1, dst, 0, 1);
  const auto b = RouterHarness::make_packet(2, dst, 0, 1);
  h.send(port_of(Direction::West), a[0], 0);
  h.send(port_of(Direction::North), b[0], 0);

  std::vector<Cycle> arrivals;
  for (Cycle now = 1; now <= 12; ++now) {
    h.step(now);
    if (h.recv(port_of(Direction::East), now)) arrivals.push_back(now);
  }
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 5u);
  EXPECT_EQ(arrivals[1], 6u);  // serialized by SA stage 2
}

TEST(RouterPipeline, IndependentOutputsTraverseInParallel) {
  RouterHarness h;
  const auto a = RouterHarness::make_packet(
      1, RouterHarness::dst_for(Direction::East), 0, 1);
  const auto b = RouterHarness::make_packet(
      2, RouterHarness::dst_for(Direction::South), 0, 1);
  h.send(port_of(Direction::West), a[0], 0);
  h.send(port_of(Direction::North), b[0], 0);
  Cycle got_east = 0, got_south = 0;
  for (Cycle now = 1; now <= 12; ++now) {
    h.step(now);
    if (h.recv(port_of(Direction::East), now)) got_east = now;
    if (h.recv(port_of(Direction::South), now)) got_south = now;
  }
  EXPECT_EQ(got_east, 5u);
  EXPECT_EQ(got_south, 5u);
}

TEST(RouterPipeline, LocalEjection) {
  RouterHarness h;
  const auto pkt = RouterHarness::make_packet(1, RouterHarness::kCenter, 0, 1);
  h.send(port_of(Direction::West), pkt[0], 0);
  Cycle now = 1;
  const auto arrival = h.run_until_output(port_of(Direction::Local), &now, 20);
  ASSERT_TRUE(arrival.has_value());
  EXPECT_EQ(*arrival, 5u);
}

TEST(RouterPipeline, TwoPacketsOnDifferentVcsOfOnePort) {
  RouterHarness h;
  const NodeId dst = RouterHarness::dst_for(Direction::East);
  const auto a = RouterHarness::make_packet(1, dst, 0, 1);
  const auto b = RouterHarness::make_packet(2, dst, 1, 1);
  h.send(port_of(Direction::West), a[0], 0);
  h.send(port_of(Direction::West), b[0], 1);
  int received = 0;
  for (Cycle now = 1; now <= 15; ++now) {
    h.step(now);
    if (h.recv(port_of(Direction::East), now)) ++received;
  }
  EXPECT_EQ(received, 2);
}

TEST(RouterPipeline, StatsCountTraversals) {
  RouterHarness h;
  const auto pkt = RouterHarness::make_packet(
      1, RouterHarness::dst_for(Direction::East), 0, 3);
  for (std::size_t i = 0; i < pkt.size(); ++i)
    h.send(port_of(Direction::West), pkt[i], static_cast<Cycle>(i));
  for (Cycle now = 1; now <= 10; ++now) h.step(now);
  EXPECT_EQ(h.router.stats().flits_traversed, 3u);
  EXPECT_EQ(h.router.stats().rc_computations, 1u);
  EXPECT_EQ(h.router.stats().blocked_vc_cycles, 0u);
}

TEST(RouterPipeline, DownstreamVcAllocatedUntilFreed) {
  RouterHarness h;
  const auto pkt = RouterHarness::make_packet(
      1, RouterHarness::dst_for(Direction::East), 0, 1);
  h.send(port_of(Direction::West), pkt[0], 0);
  for (Cycle now = 1; now <= 6; ++now) h.step(now);
  // Tail left but no vc_free credit came back yet: still allocated.
  EXPECT_TRUE(h.router.out_vc(port_of(Direction::East), 0).allocated);
  h.return_credit(port_of(Direction::East), {0, true}, 6);
  for (Cycle now = 7; now <= 8; ++now) h.step(now);
  EXPECT_FALSE(h.router.out_vc(port_of(Direction::East), 0).allocated);
  EXPECT_EQ(h.router.out_vc(port_of(Direction::East), 0).credits, 4);
}

TEST(RouterPipeline, SameCycleCreditBurstAppliedByOneDelivery) {
  // A decommission or purge returns several credits on one link in a single
  // cycle. They are due together, so one credit delivery must apply them
  // all (and nothing that is not yet due).
  RouterHarness h;
  const int east = port_of(Direction::East);
  const auto pkt = RouterHarness::make_packet(
      1, RouterHarness::dst_for(Direction::East), 0, 2);
  h.send(port_of(Direction::West), pkt[0], 0);
  h.send(port_of(Direction::West), pkt[1], 1);
  for (Cycle now = 1; now <= 7; ++now) h.step(now);
  ASSERT_EQ(h.router.stats().flits_traversed, 2u);
  ASSERT_EQ(h.router.out_vc(east, 0).credits, 2);
  h.return_credit(east, {0, false}, 8);
  h.return_credit(east, {0, true}, 8);
  h.return_credit(east, {1, false}, 9);  // due one cycle later
  h.router.drain_credits_due(east, 9);
  EXPECT_EQ(h.router.out_vc(east, 0).credits, 4);
  EXPECT_FALSE(h.router.out_vc(east, 0).allocated);
  EXPECT_EQ(h.out[static_cast<std::size_t>(east)]->next_credit_ready(), 10u);
}

}  // namespace
}  // namespace rnoc::noc
