// Small shared state types used by the router and its allocator submodules.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace rnoc::noc {

// Capacity of one router's state. The allocators arbitrate on request
// bitmasks of 32 bits per port (one bit per VC) and 64 bits per router (one
// bit per input VC), and every fixed per-router table is sized from these.
inline constexpr int kMaxRouterPorts = 8;
inline constexpr int kMaxPortVcs = 32;
inline constexpr int kMaxRouterVcs = 64;  ///< ports * vcs
/// Deepest VC buffer (credit counters are 16-bit).
inline constexpr int kMaxVcDepth = 32767;

/// Rejects a router geometry the fixed tables cannot hold.
inline void require_router_geometry(int ports, int vcs) {
  require(ports >= 1 && ports <= kMaxRouterPorts && vcs >= 1 &&
              vcs <= kMaxPortVcs && ports * vcs <= kMaxRouterVcs,
          "router geometry: at most 8 ports of at most 32 VCs, 64 VCs in all");
}

/// Rejects a VC buffer depth outside 1..kMaxVcDepth.
inline void require_vc_depth(int depth) {
  require(depth >= 1 && depth <= kMaxVcDepth,
          "VC depth must be between 1 and 32767 flits");
}

/// Upstream-side view of one downstream (output) VC: whether this router has
/// allocated it to a packet, and how many buffer credits remain.
struct OutVcState {
  bool allocated = false;
  int credits = 0;
};

/// Upstream-side state of the downstream VCs behind every output port:
/// buffer credits per (port, VC) in one small array, and per port the set
/// of VCs allocated to a packet as a bitmask, so "drop the allocated VCs"
/// is one AND.
class OutVcTable {
 public:
  OutVcTable(int ports, int vcs, int depth)
      : ports_(ports), vcs_(vcs), depth_(depth) {
    require_router_geometry(ports, vcs);
    require_vc_depth(depth);
    reset();
  }

  /// Free buffer slots of downstream VC (port, vc).
  std::int16_t& credits(int port, int vc) {
    return credits_[port * vcs_ + vc];
  }
  int credits(int port, int vc) const { return credits_[port * vcs_ + vc]; }

  /// Allocated downstream VCs of `port`, bit v = VC v.
  std::uint32_t allocated(int port) const { return allocated_[port]; }
  bool allocated(int port, int vc) const {
    return (allocated_[port] >> static_cast<unsigned>(vc) & 1u) != 0;
  }
  void set_allocated(int port, int vc, bool on) {
    const std::uint32_t bit = 1u << static_cast<unsigned>(vc);
    allocated_[port] = on ? allocated_[port] | bit : allocated_[port] & ~bit;
  }

  OutVcState get(int port, int vc) const {
    return {allocated(port, vc), credits(port, vc)};
  }

  /// Power-on values: every VC free with a full buffer of credits.
  void reset() {
    for (int i = 0; i < ports_ * vcs_; ++i)
      credits_[i] = static_cast<std::int16_t>(depth_);
    for (std::uint32_t& a : allocated_) a = 0;
  }

 private:
  int ports_;
  int vcs_;
  int depth_;
  std::int16_t credits_[kMaxRouterVcs]{};
  std::uint32_t allocated_[kMaxRouterPorts]{};
};

/// A switch-allocation grant: in the next cycle, the flit at the head of
/// input VC (in_port, in_vc) traverses crossbar mux `mux` to physical output
/// port `out_port` (mux != out_port means the secondary path was used),
/// heading to downstream VC `out_vc`.
struct StGrant {
  std::int8_t in_port = -1;
  std::int8_t in_vc = -1;  ///< Physical VC index.
  std::int8_t out_port = -1;
  std::int8_t mux = -1;
  std::int8_t out_vc = -1;  ///< Downstream logical VC id.
};

/// The grants one SA cycle issues, consumed by the next cycle's ST stage.
/// SA grants at most one input VC per crossbar mux, so a fixed array of
/// kMaxRouterPorts holds them and issuing a grant never allocates.
class GrantSet {
 public:
  bool empty() const { return count_ == 0; }
  int size() const { return count_; }
  const StGrant* begin() const { return items_; }
  const StGrant* end() const { return items_ + count_; }
  const StGrant& operator[](int i) const { return items_[i]; }

  void clear() { count_ = 0; }
  void push(int in_port, int in_vc, int out_port, int mux, int out_vc) {
    require(count_ < kMaxRouterPorts, "GrantSet::push: more grants than muxes");
    items_[count_++] = {static_cast<std::int8_t>(in_port),
                        static_cast<std::int8_t>(in_vc),
                        static_cast<std::int8_t>(out_port),
                        static_cast<std::int8_t>(mux),
                        static_cast<std::int8_t>(out_vc)};
  }
  /// Removes grant `i`, keeping the others in issue order.
  void erase(int i) {
    for (int j = i + 1; j < count_; ++j) items_[j - 1] = items_[j];
    --count_;
  }

 private:
  StGrant items_[kMaxRouterPorts];
  int count_ = 0;
};

/// Event counters for one router. The protection-mechanism counters feed the
/// ablation benches (which mechanism fired how often under which fault).
struct RouterStats {
  std::uint64_t flits_traversed = 0;
  std::uint64_t buffer_writes = 0;
  std::uint64_t va_allocations = 0;
  std::uint64_t rc_computations = 0;
  std::uint64_t rc_spare_uses = 0;
  std::uint64_t va1_borrows = 0;        ///< Successful arbiter borrows (Scenario 1/2).
  std::uint64_t va1_borrow_waits = 0;   ///< Cycles a faulty VC waited for a lender.
  std::uint64_t va2_retries = 0;        ///< Reallocation retries at a faulty stage-2 arbiter.
  std::uint64_t sa1_bypass_grants = 0;  ///< Default-winner grants through the bypass path.
  std::uint64_t sa1_transfers = 0;      ///< VC-to-VC flit/state transfers.
  std::uint64_t xb_secondary_traversals = 0;
  std::uint64_t blocked_vc_cycles = 0;  ///< Cycles a VC was stalled by an untolerated fault.
  std::uint64_t flits_swallowed = 0;    ///< Flits sunk by this router after it died.
  std::uint64_t escape_reroutes = 0;    ///< Packets diverted onto the escape VC (self-heal).
  std::uint64_t flits_dropped = 0;      ///< Flits of unroutable packets purged in-network.

  void merge(const RouterStats& o) {
    flits_traversed += o.flits_traversed;
    buffer_writes += o.buffer_writes;
    va_allocations += o.va_allocations;
    rc_computations += o.rc_computations;
    rc_spare_uses += o.rc_spare_uses;
    va1_borrows += o.va1_borrows;
    va1_borrow_waits += o.va1_borrow_waits;
    va2_retries += o.va2_retries;
    sa1_bypass_grants += o.sa1_bypass_grants;
    sa1_transfers += o.sa1_transfers;
    xb_secondary_traversals += o.xb_secondary_traversals;
    blocked_vc_cycles += o.blocked_vc_cycles;
    flits_swallowed += o.flits_swallowed;
    escape_reroutes += o.escape_reroutes;
    flits_dropped += o.flits_dropped;
  }

  friend bool operator==(const RouterStats&, const RouterStats&) = default;
};

}  // namespace rnoc::noc
