// Two-stage separable switch allocator (paper §II-B3, Fig. 3b) with the
// paper's fault-tolerance extensions (§V-C): a per-port bypass path with a
// rotating default winner plus VC-to-VC flit transfer for stage 1, and
// secondary-path arbitration (shared with the crossbar protection) for
// stage 2. One mask-gated step() serves fault-free and faulted routers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protection.hpp"
#include "fault/fault_model.hpp"
#include "noc/arbiter.hpp"
#include "noc/input_port.hpp"
#include "noc/router_state.hpp"
#include "obs/observer.hpp"

namespace rnoc::noc {

class SwitchAllocator {
 public:
  /// `default_winner_epoch`: cycles each VC spends as the bypass path's
  /// default winner before rotation (starvation avoidance, paper §V-C1).
  SwitchAllocator(int ports, int vcs, core::RouterMode mode,
                  Cycle default_winner_epoch);

  /// Runs one SA cycle; fills `grants` (cleared first) with the crossbar
  /// grants to execute next cycle. Decrements the credit of each granted
  /// flit's downstream VC in `out`.
  ///
  /// Stage 1 visits only the VCs set in the store's ready masks (exact:
  /// they are the Active VCs holding a flit), ascending, and arbitrates on
  /// request bitmasks; stage 2 visits only requested muxes. Faults are read
  /// through the fault-state masks: the crossbar path check (with its
  /// SP/FSP updates), the Sa1 bypass default winner and VC-to-VC transfer,
  /// the blocked counting of a baseline or bypass-less port, and dead
  /// stage-2 arbiters. Every core drives this one function; the FullSweep
  /// oracle rebuilds the masks from scratch first.
  void step(Cycle now, VcStore& in, OutVcTable& out,
            const fault::RouterFaultState& faults, RouterStats& stats,
            GrantSet& grants);

  /// Resets arbiter pointers and trace scratch (Mesh::reset_for_run).
  void reset_for_run();

  /// The bypass path's default winner at cycle `now` (physical VC index).
  int default_winner(Cycle now) const;

  RoundRobinArbiter& stage1(int port);
  RoundRobinArbiter& stage2(int out_port);

#ifdef RNOC_TRACE
  /// Observability sink for SA stall attribution (set by the owning Router).
  void set_observer(obs::Observer* o, NodeId router) {
    obs_ = o;
    router_ = router;
  }
#endif

 private:
#ifdef RNOC_TRACE
  /// Charges every still-pending ready VC a lost-arbitration stall and
  /// clears the pending set (end of the SA cycle).
  void obs_flush_pending();
#endif
  /// True when the flit in (p, v) can reach its output port through the
  /// crossbar this cycle; resolves/validates the secondary path and updates
  /// the VC's SP/FSP fields for faults that appeared after RC ran. Only
  /// called on a faulted router.
  bool crossbar_path_ok(VirtualChannel& vc,
                        const fault::RouterFaultState& faults) const;

  /// Stage 1 of input port `p` whose stage-1 arbiter is dead: the bypass
  /// path (default winner or VC-to-VC transfer) on the protected router,
  /// blocked otherwise. `ready` holds the port's requesting VCs and
  /// `occupied` its Active VCs with a buffered flit. Returns the winning VC
  /// or -1.
  int bypass_stage1(Cycle now, VcStore& in, int p, std::uint64_t ready,
                    std::uint32_t occupied,
                    const fault::RouterFaultState& faults, RouterStats& stats);

  int ports_;
  int vcs_;
  core::RouterMode mode_;
  Cycle epoch_;
  std::vector<RoundRobinArbiter> stage1_;  ///< per input port, over VCs
  std::vector<RoundRobinArbiter> stage2_;  ///< per output mux, over input ports

  // Per-cycle scratch, fixed-size so it lives inside the allocator.
  int w1_[kMaxRouterPorts]{};                ///< stage-1 winner VC per input port
  std::uint64_t mux_req_[kMaxRouterPorts]{};  ///< requesting-port mask per mux
#ifdef RNOC_TRACE
  obs::Observer* obs_ = nullptr;
  NodeId router_ = kInvalidNode;
  /// [port * vcs + vc]: ready this cycle, stall not yet attributed. Whatever
  /// is still set after stage 2 lost an arbitration.
  std::vector<std::uint8_t> obs_pending_;
  int obs_npending_ = 0;
#endif
};

}  // namespace rnoc::noc
