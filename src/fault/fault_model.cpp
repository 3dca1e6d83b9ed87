#include "fault/fault_model.hpp"

#include <sstream>

namespace rnoc::fault {
namespace {

bool type_is_correction(SiteType t) {
  switch (t) {
    case SiteType::RcSpare:
    case SiteType::Sa1Bypass:
    case SiteType::XbDemux:
    case SiteType::XbPSelect:
      return true;
    case SiteType::RcPrimary:
    case SiteType::Va1ArbiterSet:
    case SiteType::Va2Arbiter:
    case SiteType::Sa1Arbiter:
    case SiteType::Sa2Arbiter:
    case SiteType::XbMux:
      return false;
  }
  return false;
}

}  // namespace

std::string site_type_name(SiteType t) {
  switch (t) {
    case SiteType::RcPrimary: return "RcPrimary";
    case SiteType::RcSpare: return "RcSpare";
    case SiteType::Va1ArbiterSet: return "Va1ArbiterSet";
    case SiteType::Va2Arbiter: return "Va2Arbiter";
    case SiteType::Sa1Arbiter: return "Sa1Arbiter";
    case SiteType::Sa1Bypass: return "Sa1Bypass";
    case SiteType::Sa2Arbiter: return "Sa2Arbiter";
    case SiteType::XbMux: return "XbMux";
    case SiteType::XbDemux: return "XbDemux";
    case SiteType::XbPSelect: return "XbPSelect";
  }
  return "?";
}

std::string to_string(const FaultSite& s) {
  std::ostringstream os;
  os << site_type_name(s.type) << "(port=" << s.a;
  if (type_uses_vc(s.type)) os << ", vc=" << s.b;
  os << ")";
  return os.str();
}

RouterFaultState::RouterFaultState(const FaultGeometry& g) : geom_(g) {
  require(g.ports >= 2 && g.vcs >= 1, "RouterFaultState: bad geometry");
  require(g.ports <= kMaxPorts && g.vcs <= kMaxVcs,
          "RouterFaultState: geometry exceeds the 32-bit fault masks");
  require(g.vnets >= 1 && g.vcs % g.vnets == 0,
          "RouterFaultState: vcs must divide evenly into vnets");
  vc_mask_.assign(2 * static_cast<std::size_t>(g.ports), 0);
}

bool RouterFaultState::inject(const FaultSite& s) {
  check(s.type, s.a, s.b);
  std::uint32_t& ports = port_mask_[static_cast<std::size_t>(s.type)];
  const std::uint32_t port_bit = 1u << static_cast<unsigned>(s.a);
  if (type_uses_vc(s.type)) {
    std::uint32_t& m = vc_mask_[vc_slot(s.type, s.a)];
    const std::uint32_t bit = 1u << static_cast<unsigned>(s.b);
    if (m & bit) return false;
    m |= bit;
  } else if (ports & port_bit) {
    return false;
  }
  ports |= port_bit;
  ++count_;
  return true;
}

bool RouterFaultState::remove(const FaultSite& s) {
  check(s.type, s.a, s.b);
  std::uint32_t& ports = port_mask_[static_cast<std::size_t>(s.type)];
  const std::uint32_t port_bit = 1u << static_cast<unsigned>(s.a);
  if (type_uses_vc(s.type)) {
    std::uint32_t& m = vc_mask_[vc_slot(s.type, s.a)];
    const std::uint32_t bit = 1u << static_cast<unsigned>(s.b);
    if ((m & bit) == 0) return false;
    m &= ~bit;
    if (m == 0) ports &= ~port_bit;
  } else if (ports & port_bit) {
    ports &= ~port_bit;
  } else {
    return false;
  }
  --count_;
  return true;
}

void RouterFaultState::clear() {
  port_mask_.fill(0);
  vc_mask_.assign(vc_mask_.size(), 0);
  count_ = 0;
}

std::vector<FaultSite> RouterFaultState::enumerate_sites(
    const FaultGeometry& g, bool include_correction) {
  std::vector<FaultSite> sites;
  auto add_per_port = [&](SiteType t) {
    for (int p = 0; p < g.ports; ++p) sites.push_back({t, p, 0});
  };
  auto add_per_port_vc = [&](SiteType t) {
    for (int p = 0; p < g.ports; ++p)
      for (int v = 0; v < g.vcs; ++v) sites.push_back({t, p, v});
  };
  for (std::size_t ti = 0; ti < kTypeCount; ++ti) {
    const auto t = static_cast<SiteType>(ti);
    if (type_is_correction(t) && !include_correction) continue;
    if (t == SiteType::XbDemux) {
      // Demuxes hang off muxes M1..M_{P-1} (0-based), not off M0.
      for (int p = 1; p < g.ports; ++p) sites.push_back({t, p, 0});
      continue;
    }
    if (type_uses_vc(t))
      add_per_port_vc(t);
    else
      add_per_port(t);
  }
  return sites;
}

}  // namespace rnoc::fault
