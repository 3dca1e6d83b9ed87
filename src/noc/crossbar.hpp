// Crossbar stage (paper §II-B4 / §V-D): validates switch-traversal grants
// against the current fault state at traversal time.
//
// The switch allocator checks the path when it grants; the crossbar
// re-validates at traversal because a permanent fault can strike in the one
// cycle between SA and ST. A grant whose path broke in that window is
// rejected and the flit stays buffered (it re-arbitrates, now aware of the
// fault).
#pragma once

#include "core/protection.hpp"
#include "fault/fault_model.hpp"
#include "noc/router_state.hpp"

namespace rnoc::noc {

class Crossbar {
 public:
  Crossbar(int ports, core::RouterMode mode);

  /// True when grant `g`'s path (mux, demux if secondary, output select)
  /// is fault-free right now. Inline: runs on every switch traversal.
  bool can_traverse(const StGrant& g,
                    const fault::RouterFaultState& faults) const {
    using fault::SiteType;
    require(g.mux >= 0 && g.mux < ports_ && g.out_port >= 0 &&
                g.out_port < ports_,
            "Crossbar::can_traverse: grant out of range");
    if (faults.count() == 0) {
      // Fault-free fast path: the primary path always works; a
      // secondary-path grant (stale FSP from an expired transient) is valid
      // iff it names the designated neighbour mux, same as the full check
      // below.
      if (g.mux == g.out_port) return true;
      return mode_ != core::RouterMode::Baseline &&
             core::secondary_mux_for_output(g.out_port, ports_) == g.mux;
    }
    // Port-level sites, read through the fault-state masks.
    const unsigned mux = static_cast<unsigned>(g.mux);
    if (faults.port_mask(SiteType::XbMux) >> mux & 1u) return false;
    if (mode_ == core::RouterMode::Baseline) {
      // The generic crossbar has no demuxes or output-select muxes.
      return g.mux == g.out_port;
    }
    const unsigned out = static_cast<unsigned>(g.out_port);
    if (faults.port_mask(SiteType::XbPSelect) >> out & 1u) return false;
    if (g.mux != g.out_port) {
      // Secondary path: through the demux hanging off the borrowed mux.
      if (core::secondary_mux_for_output(g.out_port, ports_) != g.mux)
        return false;
      if (faults.port_mask(SiteType::XbDemux) >> mux & 1u) return false;
    }
    return true;
  }

 private:
  int ports_;
  core::RouterMode mode_;
};

}  // namespace rnoc::noc
