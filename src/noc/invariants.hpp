// Runtime NoC invariant checker (NocChecker), compiled in under the CMake
// option RNOC_INVARIANTS and wired by the Mesh into every router, NI and
// link it owns. When the option is off the hooks compile to nothing — the
// checker exists so that perf/scale changes to the simulator core (active
// scheduling, incremental accounting, allocator fast paths) can be proven
// not to have broken the microarchitecture, whose failure mode is silent:
// a dropped credit or an illegal VC state produces plausible-but-wrong
// latencies, not crashes.
//
// Checked invariants, each at the end of every simulated cycle:
//   * Credit conservation — for every channel (router->router and NI<->
//     router) and every logical VC: upstream credits + pending SA grants +
//     flits in flight + downstream buffer occupancy + credits in flight
//     == VC depth.
//   * Flit conservation — the Mesh's incremental NetCounters must equal an
//     O(network) recount of every buffer and link.
//   * VC state legality — per-cycle transitions of each VC's G field must
//     follow the pipeline: Idle -> Routing -> VcAlloc -> Active -> Idle
//     (a head flit may legally reach VcAlloc the cycle it arrives, since
//     buffer-write and RC execute in the same mesh step), and a VC in
//     Routing/VcAlloc state must hold a head flit at its buffer front.
//   * VC-state mask upkeep — each router's incrementally maintained
//     RouterVcMasks (what the SA/VA/RC stages iterate) equal the masks
//     recomputed from its VCs' states.
//   * Switch-allocator post-conditions — the pending switch-traversal
//     grants contain at most one grant per input port, per output port and
//     per crossbar mux; every granted VC is Active, non-empty, and the
//     grant matches the VC's R/O fields and an allocated downstream VC.
//   * Per-VC in-order delivery — flits eject head-first, in seq order, one
//     packet per VC, tail-complete (hooked from NetworkInterface::eject).
//   * Starvation watchdog — a non-empty VC whose buffer front and state
//     have not changed for more than Config::stall_limit cycles trips a
//     deadlock/starvation violation.
//
// A violation is reported through the handler: the default prints the full
// cycle/router/port/VC context to stderr and aborts; tests install a
// throwing handler to assert that seeded corruptions are caught.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "noc/flit.hpp"

namespace rnoc::noc {

class Link;
class Mesh;
class NetworkInterface;
class Router;

/// Everything known about one invariant violation. `port`/`vc` are -1 when
/// the invariant is not localised to a port or VC.
struct InvariantViolation {
  std::string kind;     ///< e.g. "credit-conservation", "vc-state".
  std::string message;  ///< Full human-readable context.
  Cycle cycle = 0;
  NodeId router = kInvalidNode;
  int port = -1;
  int vc = -1;
};

/// Exception form of a violation, for tests that install a throwing handler.
class InvariantViolationError : public std::runtime_error {
 public:
  explicit InvariantViolationError(InvariantViolation v)
      : std::runtime_error(v.message), violation(std::move(v)) {}

  InvariantViolation violation;
};

class NocChecker {
 public:
  struct Config {
    /// Cycles a non-empty VC may sit with an unchanged buffer front and
    /// state before the starvation watchdog fires. Large by default so that
    /// legitimately blocked VCs (untolerated faults, saturated drains)
    /// never trip it in ordinary runs; directed tests lower it.
    Cycle stall_limit = 1u << 20;
    /// Cycle-end check cadence (1 = every cycle). The watchdog and state
    /// checks observe at this granularity.
    Cycle check_interval = 1;
  };

  /// One unidirectional flit channel and its reverse credit path. Exactly
  /// one of (up_router, up_ni) and one of (down_router, down_ni) is set.
  struct Channel {
    const Link* link = nullptr;
    const Router* up_router = nullptr;  ///< Credit-counter holder.
    int up_port = -1;
    const NetworkInterface* up_ni = nullptr;
    const Router* down_router = nullptr;  ///< Buffer holder.
    int down_port = -1;
    const NetworkInterface* down_ni = nullptr;
  };

  using Handler = std::function<void(const InvariantViolation&)>;

  NocChecker();  ///< Default Config.
  explicit NocChecker(Config cfg);

  Config& config() { return cfg_; }
  const Config& config() const { return cfg_; }

  /// Installs a violation handler (tests: throw InvariantViolationError).
  /// An empty handler restores the default print-and-abort behaviour. The
  /// handler must not return normally if simulation state is to be trusted
  /// afterwards; a violated invariant does not self-heal.
  void set_handler(Handler h) { handler_ = std::move(h); }

  /// A ready-made handler that throws InvariantViolationError.
  static Handler throwing_handler();

  // --- Registration (performed by the Mesh while wiring itself) ---
  void add_router(const Router* r);
  void add_ni(const NetworkInterface* ni);
  void add_channel(const Channel& ch);
  void set_mesh(const Mesh* mesh) { mesh_ = mesh; }

  // --- Hooks ---
  /// Runs the full check suite; called by Mesh::step after all stages.
  void on_cycle_end(Cycle now);
  /// Validates one ejected flit against the per-VC in-order invariant;
  /// called by NetworkInterface::eject before its own protocol checks.
  void on_ejected(NodeId node, const Flit& f, Cycle now);
  /// Final sweep regardless of check_interval; called by Simulator::run.
  void on_run_end(Cycle now);

  /// Degraded-mode hook: forget per-cycle history after the Mesh mutates
  /// flow-control state out-of-band (router death, drain-barrier reset).
  /// The VC-state shadow re-primes on the next sweep and the starvation
  /// watchdog restarts its clocks. `clear_delivery_tracks` additionally
  /// abandons the per-VC ejection expectations — only safe at a drain
  /// barrier, when the network provably holds no flits; at a router death
  /// they must survive so in-flight deliveries keep being validated.
  void reset_history(bool clear_delivery_tracks);

  /// Self-heal reclamation hook: abandons the ejection expectation of one
  /// NI's VC after the sweep aborted a truncated reassembly there, so the
  /// eventual retransmission (same packet id, fresh head) validates from
  /// seq 0. Targeted — every other track keeps validating mid-flight.
  void clear_delivery_track(NodeId node, int vc);

  /// Full check sweeps executed so far (tests assert the checker ran).
  std::uint64_t sweeps_run() const { return sweeps_run_; }

 private:
  struct VcShadow {
    std::uint8_t state = 0;  ///< VcState of the previous observation.
  };
  struct WatchSlot {
    PacketId front_packet = 0;
    std::uint32_t front_seq = 0;
    std::size_t occupancy = 0;
    std::uint8_t state = 0;
    Cycle last_change = 0;
  };
  struct RouterEntry {
    const Router* router = nullptr;
    std::vector<VcShadow> shadow;  ///< [port * vcs + logical vc]
    std::vector<WatchSlot> watch;  ///< [port * vcs + physical vc]
  };
  struct SeqTrack {
    bool active = false;
    PacketId packet = 0;
    std::uint32_t next_seq = 0;
  };
  struct NiEntry {
    const NetworkInterface* ni = nullptr;
    std::vector<SeqTrack> tracks;  ///< [vc]
  };

  [[noreturn]] void unreachable_after_handler(const InvariantViolation& v);
  void fail(const char* kind, Cycle cycle, NodeId router, int port, int vc,
            const std::string& detail);

  void check_channels(Cycle now);
  void check_router_states(Cycle now);
  void check_grants(Cycle now);
  void check_counters(Cycle now);
  void run_sweep(Cycle now);

  Config cfg_;
  Handler handler_;
  const Mesh* mesh_ = nullptr;
  std::vector<RouterEntry> routers_;
  std::vector<Channel> channels_;
  std::vector<NiEntry> nis_;
  std::uint64_t sweeps_run_ = 0;
  bool shadow_primed_ = false;
};

}  // namespace rnoc::noc
