// Incremental network-wide accounting. One NetCounters instance is owned by
// the Mesh and shared (by pointer) with every Link, InputPort and
// NetworkInterface it wires, each of which bumps the relevant counter at the
// moment a flit changes place. The simulator's per-cycle watchdog and drain
// checks then read totals in O(1) instead of sweeping every router, link and
// NI each cycle.
//
// Components constructed standalone (unit tests, harnesses) simply leave the
// pointer null and skip the accounting.
#pragma once

#include <cstdint>

namespace rnoc::noc {

struct NetCounters {
  /// Flits currently buffered in router input-port VCs.
  std::int64_t router_flits = 0;
  /// Flits currently in flight on links (including a link's held
  /// retransmission slot).
  std::int64_t link_flits = 0;
  /// NIs with a queued or partially injected packet (!injection_idle()).
  std::int64_t active_injectors = 0;
  /// Total packets delivered (tail flits ejected) across all NIs.
  std::uint64_t packets_delivered = 0;

  std::int64_t flits_in_network() const { return router_flits + link_flits; }
};

}  // namespace rnoc::noc
