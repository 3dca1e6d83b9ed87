// Single-router test harness: a Router wired to bare links on every port so
// tests can inject flits/credits and observe traversals cycle by cycle.
//
// The router sits at the center of a 3x3 mesh (node 4), so every direction
// is a legal route: East -> node 5, West -> node 3, North -> node 1,
// South -> node 7, Local -> node 4.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "link_take.hpp"
#include "noc/router.hpp"

namespace rnoc::noc::testing {

class RouterHarness {
 public:
  static constexpr NodeId kCenter = 4;

  explicit RouterHarness(const RouterConfig& cfg = RouterConfig{})
      : router(kCenter, MeshDims{3, 3}, cfg) {
    for (int p = 0; p < kMeshPorts; ++p) {
      in.push_back(std::make_unique<Link>());
      out.push_back(std::make_unique<Link>());
      router.attach_input(p, in.back().get());
      router.attach_output(p, out.back().get());
    }
  }

  /// Destination node id that routes through `port` at the center router.
  static NodeId dst_for(Direction d) {
    switch (d) {
      case Direction::Local: return 4;
      case Direction::North: return 1;
      case Direction::East: return 5;
      case Direction::South: return 7;
      case Direction::West: return 3;
    }
    return kInvalidNode;
  }

  /// Runs one full router cycle in the same phase order the Mesh uses.
  void step(Cycle now) {
    router.step_accept(now);
    router.step_st(now);
    router.step_sa(now);
    router.step_va(now);
    router.step_rc(now);
  }

  /// Pushes a flit toward input port `port`; it is accepted at `now + 1`.
  void send(int port, const Flit& f, Cycle now) {
    in[static_cast<std::size_t>(port)]->push_flit(f, now);
  }

  std::optional<Flit> recv(int port, Cycle now) {
    return take_flit(*out[static_cast<std::size_t>(port)], now);
  }

  std::vector<Credit> recv_credits(int port, Cycle now) {
    return take_credits(*in[static_cast<std::size_t>(port)], now);
  }

  /// Feeds a credit back as if the downstream router consumed a flit.
  void return_credit(int port, const Credit& c, Cycle now) {
    out[static_cast<std::size_t>(port)]->push_credit(c, now);
  }

  /// Builds a `size`-flit packet's flits heading to `dst` on VC `vc`.
  static std::vector<Flit> make_packet(PacketId id, NodeId dst, int vc,
                                       int size) {
    std::vector<Flit> flits;
    for (int i = 0; i < size; ++i) {
      Flit f;
      f.packet = id;
      f.src = 0;
      f.dst = dst;
      f.vc = vc;
      f.seq = static_cast<std::uint32_t>(i);
      f.size = static_cast<std::uint16_t>(size);
      const bool head = i == 0;
      const bool tail = i == size - 1;
      f.type = head && tail ? FlitType::HeadTail
               : head       ? FlitType::Head
               : tail       ? FlitType::Tail
                            : FlitType::Body;
      flits.push_back(f);
    }
    return flits;
  }

  /// Steps until a flit appears on `port` or `limit` cycles pass, starting
  /// at `*now`. Returns the arrival cycle (take time) or nullopt.
  std::optional<Cycle> run_until_output(int port, Cycle* now, Cycle limit,
                                        Flit* got = nullptr) {
    for (Cycle end = *now + limit; *now < end; ++*now) {
      step(*now);
      if (auto f = recv(port, *now)) {
        if (got) *got = *f;
        return *now;
      }
    }
    return std::nullopt;
  }

  Router router;
  std::vector<std::unique_ptr<Link>> in;
  std::vector<std::unique_ptr<Link>> out;
};

}  // namespace rnoc::noc::testing
