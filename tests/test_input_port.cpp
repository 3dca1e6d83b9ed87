// Tests for noc/input_port: VC state machine fields, buffer-write rules,
// and the transfer mechanism with its logical->physical VC remapping.
#include <gtest/gtest.h>

#include "noc/input_port.hpp"

namespace rnoc::noc {
namespace {

Flit make_flit(FlitType type, int vc, PacketId pkt = 1, std::uint32_t seq = 0) {
  Flit f;
  f.type = type;
  f.vc = vc;
  f.packet = pkt;
  f.seq = seq;
  f.src = 0;
  f.dst = 1;
  return f;
}

TEST(InputPort, InitialStateIdleIdentityMap) {
  InputPort p(4, 4);
  EXPECT_EQ(p.vcs(), 4);
  EXPECT_EQ(p.depth(), 4);
  for (int v = 0; v < 4; ++v) {
    EXPECT_EQ(p.vc(v).state, VcState::Idle);
    EXPECT_EQ(p.physical_of(v), v);
    EXPECT_EQ(p.logical_of(v), v);
  }
  EXPECT_EQ(p.buffered_flits(), 0);
}

TEST(InputPort, HeadFlitMovesIdleVcToRouting) {
  InputPort p(4, 4);
  p.write(make_flit(FlitType::Head, 1));
  EXPECT_EQ(p.vc(1).state, VcState::Routing);
  EXPECT_EQ(p.buffered_flits(), 1);
}

TEST(InputPort, HeadIntoBusyVcThrows) {
  InputPort p(2, 4);
  p.write(make_flit(FlitType::Head, 0));
  EXPECT_THROW(p.write(make_flit(FlitType::Head, 0)), std::invalid_argument);
}

TEST(InputPort, BodyIntoIdleVcThrows) {
  InputPort p(2, 4);
  EXPECT_THROW(p.write(make_flit(FlitType::Body, 0)), std::invalid_argument);
}

TEST(InputPort, OverflowThrows) {
  InputPort p(2, 2);
  p.write(make_flit(FlitType::Head, 0));
  p.write(make_flit(FlitType::Body, 0, 1, 1));
  EXPECT_FALSE(p.can_accept(make_flit(FlitType::Body, 0, 1, 2)));
  EXPECT_THROW(p.write(make_flit(FlitType::Body, 0, 1, 2)),
               std::invalid_argument);
}

TEST(InputPort, ResetToIdleClearsFields) {
  VirtualChannel vc;
  vc.state = VcState::Active;
  vc.route = 3;
  vc.out_vc = 2;
  vc.sp = 1;
  vc.fsp = true;
  vc.excluded_out_vc = 0;
  vc.r2 = 2;
  vc.vf = true;
  vc.id = 1;
  vc.reset_to_idle();
  EXPECT_EQ(vc.state, VcState::Idle);
  EXPECT_EQ(vc.route, -1);
  EXPECT_EQ(vc.out_vc, -1);
  EXPECT_EQ(vc.sp, -1);
  EXPECT_FALSE(vc.fsp);
  EXPECT_EQ(vc.excluded_out_vc, -1);
  EXPECT_FALSE(vc.vf);
  EXPECT_EQ(vc.r2, -1);
  EXPECT_EQ(vc.id, -1);
}

TEST(InputPort, TransferMovesPacketAndState) {
  InputPort p(4, 4);
  p.write(make_flit(FlitType::Head, 1));
  p.vc(1).state = VcState::Active;
  p.vc(1).route = 2;
  p.vc(1).out_vc = 3;

  p.transfer(1, 0);

  EXPECT_EQ(p.vc(0).state, VcState::Active);
  EXPECT_EQ(p.vc(0).route, 2);
  EXPECT_EQ(p.vc(0).out_vc, 3);
  EXPECT_EQ(p.vc(0).buffer.size(), 1u);
  EXPECT_EQ(p.vc(1).state, VcState::Idle);
  EXPECT_TRUE(p.vc(1).buffer.empty());
}

TEST(InputPort, TransferSwapsLogicalMap) {
  InputPort p(4, 4);
  p.write(make_flit(FlitType::Head, 1));
  p.vc(1).state = VcState::Active;
  p.transfer(1, 0);
  // Upstream-facing id 1 now maps to physical 0 and vice versa.
  EXPECT_EQ(p.physical_of(1), 0);
  EXPECT_EQ(p.physical_of(0), 1);
  EXPECT_EQ(p.logical_of(0), 1);
  EXPECT_EQ(p.logical_of(1), 0);
}

TEST(InputPort, InFlightFlitsFollowTransfer) {
  InputPort p(4, 4);
  p.write(make_flit(FlitType::Head, 1));
  p.vc(1).state = VcState::Active;
  p.transfer(1, 0);
  // A body flit of the same packet still addressed to logical VC 1 must land
  // in physical VC 0 where the packet now lives.
  p.write(make_flit(FlitType::Body, 1, 1, 1));
  EXPECT_EQ(p.vc(0).buffer.size(), 2u);
  EXPECT_TRUE(p.vc(1).buffer.empty());
}

TEST(InputPort, NewPacketUsesFreedPhysicalVc) {
  InputPort p(4, 4);
  p.write(make_flit(FlitType::Head, 1, 1));
  p.vc(1).state = VcState::Active;
  p.transfer(1, 0);
  // A new packet allocated by upstream to logical VC 0 lands in physical 1.
  p.write(make_flit(FlitType::Head, 0, 2));
  EXPECT_EQ(p.vc(1).state, VcState::Routing);
  EXPECT_EQ(p.vc(1).buffer.front().packet, 2u);
}

TEST(InputPort, TransferIntoBusyVcThrows) {
  InputPort p(4, 4);
  p.write(make_flit(FlitType::Head, 0, 1));
  p.write(make_flit(FlitType::Head, 1, 2));
  EXPECT_THROW(p.transfer(0, 1), std::invalid_argument);
}

TEST(InputPort, TransferFromEmptyVcThrows) {
  InputPort p(4, 4);
  EXPECT_THROW(p.transfer(0, 1), std::invalid_argument);
}

TEST(InputPort, DoubleTransferKeepsMapPermutation) {
  InputPort p(4, 4);
  p.write(make_flit(FlitType::Head, 2, 1));
  p.vc(2).state = VcState::Active;
  p.transfer(2, 0);
  p.write(make_flit(FlitType::Head, 3, 2));
  p.vc(p.physical_of(3)).state = VcState::Active;
  p.transfer(p.physical_of(3), 2);
  // Map stays a permutation of {0,1,2,3}.
  std::vector<bool> seen(4, false);
  for (int l = 0; l < 4; ++l) {
    const int phys = p.physical_of(l);
    EXPECT_FALSE(seen[static_cast<std::size_t>(phys)]);
    seen[static_cast<std::size_t>(phys)] = true;
    EXPECT_EQ(p.logical_of(phys), l);
  }
}

TEST(InputPort, RangeChecks) {
  InputPort p(2, 2);
  EXPECT_THROW(p.vc(2), std::invalid_argument);
  EXPECT_THROW(p.physical_of(-1), std::invalid_argument);
  EXPECT_THROW(InputPort(0, 4), std::invalid_argument);
  EXPECT_THROW(InputPort(4, 0), std::invalid_argument);
  EXPECT_THROW(InputPort(kMaxPortVcs + 1, 4), std::invalid_argument);
  EXPECT_THROW(InputPort(4, kMaxVcDepth + 1), std::invalid_argument);

  // A buffer deeper than 256 flits fills to its depth and wraps its window
  // in FIFO order.
  InputPort deep(1, 300);
  deep.write(make_flit(FlitType::Head, 0, 1, 0));
  for (std::uint32_t seq = 1; seq < 300; ++seq)
    deep.write(make_flit(FlitType::Body, 0, 1, seq));
  EXPECT_THROW(deep.write(make_flit(FlitType::Body, 0, 1, 300)),
               std::invalid_argument);
  for (std::uint32_t seq = 0; seq < 250; ++seq)
    EXPECT_EQ(deep.pop_front(0).seq, seq);
  for (std::uint32_t seq = 300; seq < 500; ++seq)
    deep.write(make_flit(FlitType::Body, 0, 1, seq));
  ASSERT_EQ(deep.vc(0).buffer.size(), 250u);
  for (std::uint32_t seq = 250; seq < 500; ++seq)
    EXPECT_EQ(deep.pop_front(0).seq, seq);
}

TEST(InputPort, TransferFromWrappedRingKeepsOrderAndStorage) {
  InputPort p(4, 4);
  // Cycle three single-flit packets through VC 1 so its slab window's head
  // index sits at slot 3; the next packet then wraps around the window.
  for (PacketId id = 1; id <= 3; ++id) {
    p.write(make_flit(FlitType::HeadTail, 1, id));
    (void)p.pop_front(1);
    p.vc(1).reset_to_idle();
    p.refresh_vc(1);
  }
  for (std::uint32_t seq = 0; seq < 3; ++seq)
    p.write(make_flit(seq == 0 ? FlitType::Head : FlitType::Body, 1, 7, seq));
  p.vc(1).state = VcState::Active;

  p.transfer(1, 0);

  const VcBuffer& moved = p.vc(0).buffer;
  ASSERT_EQ(moved.size(), 3u);
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    EXPECT_EQ(moved.at(seq).packet, 7u);
    EXPECT_EQ(moved.at(seq).seq, seq);
  }
  // Both VCs still own a full window: the moved packet takes its tail, and
  // a new packet fills the freed VC to depth, with no slot shared.
  EXPECT_GE(p.vc(1).buffer.capacity(), 4u);
  p.write(make_flit(FlitType::Tail, 1, 7, 3));
  for (std::uint32_t seq = 0; seq < 4; ++seq)
    p.write(make_flit(seq == 0 ? FlitType::Head : FlitType::Body, 0, 8, seq));
  ASSERT_EQ(p.vc(0).buffer.size(), 4u);
  ASSERT_EQ(p.vc(1).buffer.size(), 4u);
  for (std::uint32_t seq = 0; seq < 4; ++seq) {
    EXPECT_EQ(p.vc(0).buffer.at(seq).packet, 7u);
    EXPECT_EQ(p.vc(0).buffer.at(seq).seq, seq);
    EXPECT_EQ(p.vc(1).buffer.at(seq).packet, 8u);
    EXPECT_EQ(p.vc(1).buffer.at(seq).seq, seq);
  }
  EXPECT_EQ(p.buffered_flits(), 8);
}

}  // namespace
}  // namespace rnoc::noc
