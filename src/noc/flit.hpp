// Flits, packets and credits — the units of NoC flow control (paper §II-A).
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace rnoc::noc {

enum class FlitType : std::uint8_t {
  Head,      ///< Allocates router resources; carries routing info.
  Body,      ///< Payload.
  Tail,      ///< Frees router resources.
  HeadTail,  ///< Single-flit packet (head and tail at once).
};

/// Flow-control unit. `vc` is the virtual-channel id the flit occupies at its
/// *current* input port, i.e. the id the upstream node targeted; it is what
/// the credit returned upstream must name, and it is rewritten to the
/// downstream VC id at switch traversal.
struct Flit {
  // Laid out widest-first so a flit packs into 48 bytes: it is copied on
  // every link push, buffer write and delivery. `seq` and `vc` are narrow:
  // a packet has at most 65535 flits, a port at most 32 VCs.
  PacketId packet = 0;
  Cycle created = 0;   ///< Cycle the packet was created at the source NI.
  Cycle injected = 0;  ///< Cycle the head flit entered the network.
  std::uint64_t payload = 0;  ///< Protocol payload (e.g. original requester).
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::int16_t vc = -1;
  std::uint16_t seq = 0;   ///< Flit index within the packet.
  std::uint16_t size = 1;  ///< Total flits in the packet.
  FlitType type = FlitType::Head;
  std::uint8_t traffic_class = 0;

  bool is_head() const {
    return type == FlitType::Head || type == FlitType::HeadTail;
  }
  bool is_tail() const {
    return type == FlitType::Tail || type == FlitType::HeadTail;
  }
};

static_assert(sizeof(Flit) == 48, "Flit layout: keep it at 48 bytes");

/// A packet waiting at a network interface for injection.
struct PacketDesc {
  PacketId id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int size_flits = 1;
  std::uint8_t traffic_class = 0;
  Cycle created = 0;
  std::uint64_t payload = 0;
};

/// Credit returned upstream when a flit leaves an input VC. `vc_free` rides
/// on the tail flit's credit and tells the upstream allocator the VC is Idle
/// again and may be re-allocated to a new packet.
struct Credit {
  int vc = -1;
  bool vc_free = false;
};

}  // namespace rnoc::noc
