#include "noc/routing.hpp"

#include <cstdlib>

namespace rnoc::noc {

Direction direction_of(int port) {
  require(port >= 0 && port < kMeshPorts, "direction_of: bad port");
  return static_cast<Direction>(port);
}

std::string direction_name(int port) {
  switch (direction_of(port)) {
    case Direction::Local: return "Local";
    case Direction::North: return "North";
    case Direction::East: return "East";
    case Direction::South: return "South";
    case Direction::West: return "West";
  }
  unreachable("direction_name: unhandled Direction");
}

int opposite_port(int port) {
  switch (direction_of(port)) {
    case Direction::Local: return port_of(Direction::Local);
    case Direction::North: return port_of(Direction::South);
    case Direction::East: return port_of(Direction::West);
    case Direction::South: return port_of(Direction::North);
    case Direction::West: return port_of(Direction::East);
  }
  unreachable("opposite_port: unhandled Direction");
}

NodeId MeshDims::node_of(Coord c) const {
  require(contains(c), "MeshDims::node_of: coord out of range");
  return static_cast<NodeId>(c.y * x + c.x);
}

bool MeshDims::contains(Coord c) const {
  return c.x >= 0 && c.x < x && c.y >= 0 && c.y < y;
}

int xy_hops(const MeshDims& dims, NodeId src, NodeId dst) {
  const Coord s = dims.coord_of(src);
  const Coord d = dims.coord_of(dst);
  return std::abs(s.x - d.x) + std::abs(s.y - d.y);
}

int odd_even_candidates(const MeshDims& dims, NodeId cur, NodeId src,
                        NodeId dst, int out[kMeshPorts]) {
  // Chiu's ROUTE function, minimal version.
  const Coord c = dims.coord_of(cur);
  const Coord s = dims.coord_of(src);
  const Coord d = dims.coord_of(dst);
  const int e0 = d.x - c.x;
  const int e1 = d.y - c.y;

  if (e0 == 0 && e1 == 0) {
    out[0] = port_of(Direction::Local);
    return 1;
  }

  int n = 0;
  const int dir_v =
      e1 < 0 ? port_of(Direction::North) : port_of(Direction::South);
  if (e0 == 0) {
    out[n++] = dir_v;
  } else if (e0 > 0) {
    // Eastbound: the vertical (an EN/ES turn) is only legal in odd columns —
    // or at the source column, where no turn has been taken yet.
    if (e1 != 0 && (c.x % 2 == 1 || c.x == s.x)) out[n++] = dir_v;
    // Continuing East is fine unless the destination column is even and one
    // hop away (the final EN/ES turn would land in an even column).
    if (e1 == 0 || d.x % 2 == 1 || e0 != 1) out[n++] = port_of(Direction::East);
  } else {
    // Westbound: NW/SW turns are forbidden in odd columns, so the vertical
    // is only offered in even columns; West itself is always admissible.
    out[n++] = port_of(Direction::West);
    if (e1 != 0 && c.x % 2 == 0) out[n++] = dir_v;
  }
  require(n > 0, "odd_even_candidates: empty candidate set");
  return n;
}

std::vector<int> odd_even_candidates(const MeshDims& dims, NodeId cur,
                                     NodeId src, NodeId dst) {
  int buf[kMeshPorts];
  const int n = odd_even_candidates(dims, cur, src, dst, buf);
  return std::vector<int>(buf, buf + n);
}

}  // namespace rnoc::noc
