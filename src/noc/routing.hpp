// Mesh topology helpers and dimension-order (XY) routing (paper §V-A).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace rnoc::noc {

/// Router port indices. Port 0 is the local (NI) port; the rest are the four
/// mesh directions. Matches the paper's 5-port router.
enum class Direction : int {
  Local = 0,
  North = 1,
  East = 2,
  South = 3,
  West = 4,
};

inline constexpr int kMeshPorts = 5;

constexpr int port_of(Direction d) { return static_cast<int>(d); }
Direction direction_of(int port);
std::string direction_name(int port);

/// Opposite mesh direction (North <-> South, East <-> West). Local maps to
/// Local (an NI's link "comes back" at the local port of the same router).
int opposite_port(int port);

/// Mesh dimensions and node/coordinate conversions (row-major node ids).
struct MeshDims {
  int x = 8;
  int y = 8;

  int nodes() const { return x * y; }
  Coord coord_of(NodeId n) const {
    require(n >= 0 && n < nodes(), "MeshDims::coord_of: node out of range");
    return {static_cast<int>(n) % x, static_cast<int>(n) / x};
  }
  NodeId node_of(Coord c) const;
  bool contains(Coord c) const;

  friend bool operator==(const MeshDims&, const MeshDims&) = default;
};

/// Dimension-order XY routing: correct X (East/West) first, then Y
/// (North/South), then eject at Local. Deadlock-free on a mesh.
/// Returns the output port at coordinate `cur` toward coordinate `dst`.
inline int xy_route(Coord cur, Coord dst) {
  if (cur.x < dst.x) return port_of(Direction::East);
  if (cur.x > dst.x) return port_of(Direction::West);
  if (cur.y < dst.y) return port_of(Direction::South);
  if (cur.y > dst.y) return port_of(Direction::North);
  return port_of(Direction::Local);
}

/// xy_route between node ids.
inline int xy_route(const MeshDims& dims, NodeId current, NodeId dst) {
  return xy_route(dims.coord_of(current), dims.coord_of(dst));
}

/// Number of hops an XY-routed packet takes (Manhattan distance).
int xy_hops(const MeshDims& dims, NodeId src, NodeId dst);

/// Minimal adaptive routing under the odd-even turn model (Chiu, IEEE TPDS
/// 2000): East-to-North/East-to-South turns are forbidden in even columns
/// and North-to-West/South-to-West turns in odd columns, which keeps the
/// channel-dependency graph acyclic without virtual channels. Returns the
/// admissible minimal output ports at `cur` for a packet injected at `src`
/// heading to `dst`; never empty, and a singleton {Local} at the
/// destination. The router picks among candidates adaptively (by downstream
/// credit count — and, on the protected router, by path health).
std::vector<int> odd_even_candidates(const MeshDims& dims, NodeId cur,
                                     NodeId src, NodeId dst);

/// Allocation-free variant for the router's RC hot path: writes up to
/// kMeshPorts candidate ports into `out` and returns the count (>= 1).
int odd_even_candidates(const MeshDims& dims, NodeId cur, NodeId src,
                        NodeId dst, int out[kMeshPorts]);

}  // namespace rnoc::noc
