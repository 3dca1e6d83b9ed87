// Copying reads of what a Link delivers at one cycle, for tests that drive
// bare links. They go through Link::arrive and Link::drain_credits, the same
// delivery calls the routers and network interfaces make.
#pragma once

#include <optional>
#include <vector>

#include "noc/link.hpp"

namespace rnoc::noc::testing {

/// The flit `link` delivers at `now`, or nullopt when none is due.
inline std::optional<Flit> take_flit(Link& link, Cycle now) {
  if (const Flit* f = link.arrive(now)) return *f;
  return std::nullopt;
}

/// Every credit `link` delivers at `now`, in push order.
inline std::vector<Credit> take_credits(Link& link, Cycle now) {
  std::vector<Credit> credits;
  link.drain_credits(now, [&](const Credit& c) { credits.push_back(c); });
  return credits;
}

}  // namespace rnoc::noc::testing
