// Degraded-operation walkthrough: drives a single protected router through
// every fault scenario of paper §V, one mechanism at a time, printing what
// the correction circuitry does and what each tolerance costs in cycles.
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "core/protection.hpp"
#include "noc/router.hpp"

using namespace rnoc;
using namespace rnoc::noc;

namespace {

/// Minimal single-router rig (center of a 3x3 mesh; all ports legal routes).
struct Rig {
  explicit Rig(core::RouterMode mode) {
    RouterConfig cfg;
    cfg.mode = mode;
    cfg.default_winner_epoch = 1000;
    router = std::make_unique<Router>(4, MeshDims{3, 3}, cfg);
    for (int p = 0; p < kMeshPorts; ++p) {
      in.push_back(std::make_unique<Link>());
      out.push_back(std::make_unique<Link>());
      router->attach_input(p, in.back().get());
      router->attach_output(p, out.back().get());
    }
  }

  void step(Cycle now) {
    router->step_accept(now);
    router->step_st(now);
    router->step_sa(now);
    router->step_va(now);
    router->step_rc(now);
  }

  /// Sends a single-flit packet into `in_port` heading out of `out_dir`;
  /// returns the delivery cycle, or nullopt if blocked within 40 cycles.
  std::optional<Cycle> shoot(int in_port, Direction out_dir, int vc = 0) {
    static const NodeId dst_of[] = {4, 1, 5, 7, 3};  // Local,N,E,S,W
    Flit f;
    f.type = FlitType::HeadTail;
    f.packet = ++next_packet;
    f.src = 0;
    f.dst = dst_of[port_of(out_dir)];
    f.vc = vc;
    in[static_cast<std::size_t>(in_port)]->push_flit(f, clock);
    ++clock;
    for (Cycle end = clock + 40; clock < end; ++clock) {
      step(clock);
      if (out[static_cast<std::size_t>(port_of(out_dir))]->arrive(clock)) {
        const Cycle arrival = clock;
        ++clock;
        return arrival;
      }
      // Recycle credits so repeated shots never stall on flow control.
      for (int p = 0; p < kMeshPorts; ++p)
        in[static_cast<std::size_t>(p)]->drain_credits(clock,
                                                       [](const Credit&) {});
    }
    return std::nullopt;
  }

  std::unique_ptr<Router> router;
  std::vector<std::unique_ptr<Link>> in, out;
  Cycle clock = 0;
  PacketId next_packet = 0;
};

void report(const char* what, std::optional<Cycle> sent_at,
            std::optional<Cycle> baseline_cost, std::optional<Cycle> got) {
  if (got && sent_at) {
    const Cycle cost = *got - *sent_at;
    std::printf("  %-46s delivered, %llu cycles", what,
                static_cast<unsigned long long>(cost));
    if (baseline_cost)
      std::printf(" (%+lld vs fault-free)",
                  static_cast<long long>(cost) -
                      static_cast<long long>(*baseline_cost));
    std::printf("\n");
  } else {
    std::printf("  %-46s BLOCKED (fault not tolerable)\n", what);
  }
}

}  // namespace

int main() {
  using fault::SiteType;
  const int west = port_of(Direction::West);
  const int east = port_of(Direction::East);

  std::printf("degraded-operation walkthrough (paper §V mechanisms)\n\n");

  // Fault-free reference cost.
  Cycle ref_cost;
  {
    Rig rig(core::RouterMode::Protected);
    const Cycle sent = rig.clock;
    const auto got = rig.shoot(west, Direction::East);
    ref_cost = *got - sent;
    std::printf("fault-free router: %llu cycles through the 4-stage pipeline\n\n",
                static_cast<unsigned long long>(ref_cost));
  }

  std::printf("RC stage — spatial redundancy:\n");
  {
    Rig rig(core::RouterMode::Protected);
    rig.router->faults().inject({SiteType::RcPrimary, west, 0});
    const Cycle sent = rig.clock;
    report("primary RC unit dead (spare takes over)", sent, ref_cost,
           rig.shoot(west, Direction::East));
    rig.router->faults().inject({SiteType::RcSpare, west, 0});
    const Cycle sent2 = rig.clock;
    report("both RC units dead", sent2, ref_cost,
           rig.shoot(west, Direction::East));
  }

  std::printf("\nVA stage 1 — arbiter sharing between VCs:\n");
  {
    Rig rig(core::RouterMode::Protected);
    rig.router->faults().inject({SiteType::Va1ArbiterSet, west, 0});
    const Cycle sent = rig.clock;
    report("VC0 arbiter set dead (borrows from idle VC1)", sent, ref_cost,
           rig.shoot(west, Direction::East, 0));
    std::printf("    borrows recorded: %llu\n",
                static_cast<unsigned long long>(
                    rig.router->stats().va1_borrows));
  }

  std::printf("\nVA stage 2 — inherent redundancy (retry):\n");
  {
    Rig rig(core::RouterMode::Protected);
    rig.router->faults().inject({SiteType::Va2Arbiter, east, 0});
    const Cycle sent = rig.clock;
    report("downstream VC0 arbiter dead (reallocates, +1 cy)", sent, ref_cost,
           rig.shoot(west, Direction::East));
  }

  std::printf("\nSA stage 1 — bypass path and VC transfer:\n");
  {
    Rig rig(core::RouterMode::Protected);
    rig.router->faults().inject({SiteType::Sa1Arbiter, west, 0});
    const Cycle sent = rig.clock;
    report("SA arbiter dead, flit on default-winner VC0", sent, ref_cost,
           rig.shoot(west, Direction::East, 0));
    const Cycle sent2 = rig.clock;
    report("SA arbiter dead, flit on VC1 (transfer, +1 cy)", sent2, ref_cost,
           rig.shoot(west, Direction::East, 1));
    std::printf("    transfers recorded: %llu\n",
                static_cast<unsigned long long>(
                    rig.router->stats().sa1_transfers));
  }

  std::printf("\nXB stage — secondary path:\n");
  {
    Rig rig(core::RouterMode::Protected);
    rig.router->faults().inject({SiteType::XbMux, east, 0});
    const Cycle sent = rig.clock;
    report("East mux dead (rides neighbour mux + demux)", sent, ref_cost,
           rig.shoot(west, Direction::East));
    std::printf("    secondary traversals: %llu (via mux M%d)\n",
                static_cast<unsigned long long>(
                    rig.router->stats().xb_secondary_traversals),
                core::secondary_mux_for_output(east, kMeshPorts));
  }

  std::printf("\nbaseline router under the same faults:\n");
  for (const auto& [site, label] :
       std::vector<std::pair<fault::FaultSite, const char*>>{
           {{SiteType::RcPrimary, west, 0}, "RC unit dead"},
           {{SiteType::Va1ArbiterSet, west, 0}, "VA arbiter set dead"},
           {{SiteType::Sa1Arbiter, west, 0}, "SA arbiter dead"},
           {{SiteType::XbMux, east, 0}, "crossbar mux dead"}}) {
    Rig rig(core::RouterMode::Baseline);
    rig.router->faults().inject(site);
    const Cycle sent = rig.clock;
    report(label, sent, std::nullopt, rig.shoot(west, Direction::East));
  }
  return 0;
}
