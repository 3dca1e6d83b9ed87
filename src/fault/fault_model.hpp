// Permanent-fault model for the router pipeline.
//
// Fault *sites* are the physical components of the four pipeline stages plus
// the correction circuitry, matching the granularity of the paper's Table I /
// Table II and §VIII fault accounting. Faults are permanent: once injected a
// site stays faulty.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rnoc::fault {

enum class SiteType : std::uint8_t {
  RcPrimary,     ///< Primary RC unit of input port `a`.
  RcSpare,       ///< Duplicate RC unit of input port `a` (correction).
  Va1ArbiterSet, ///< The po v:1 arbiters of input VC (`a` = port, `b` = vc).
                 ///< A fault anywhere in the set disables the whole set (§V-B1).
  Va2Arbiter,    ///< Stage-2 VA arbiter of downstream VC (`a` = out port, `b` = vc).
  Sa1Arbiter,    ///< Stage-1 SA v:1 arbiter of input port `a`.
  Sa1Bypass,     ///< Bypass mux/register of input port `a` (correction).
  Sa2Arbiter,    ///< Stage-2 SA pi:1 arbiter of output port `a`.
  XbMux,         ///< Primary crossbar mux M of output port `a`.
  XbDemux,       ///< Secondary-path demux hanging off mux `a` (correction).
  XbPSelect,     ///< Output-select 2:1 mux P in front of output port `a` (correction).
};

std::string site_type_name(SiteType t);

/// One injectable component instance.
struct FaultSite {
  SiteType type = SiteType::RcPrimary;
  int a = 0;  ///< Port index (input or output, see SiteType).
  int b = 0;  ///< VC index where applicable, else 0.

  friend bool operator==(const FaultSite&, const FaultSite&) = default;
};

std::string to_string(const FaultSite& s);

/// True for site types addressed per (port, vc) rather than per port.
inline bool type_uses_vc(SiteType t) {
  return t == SiteType::Va1ArbiterSet || t == SiteType::Va2Arbiter;
}

/// Geometry needed to enumerate and validate fault sites. `vnets` matters
/// for the failure predicate: VA stage-2 redundancy (paper §V-B3) only works
/// within a virtual network, so each vnet needs a surviving arbiter.
struct FaultGeometry {
  int ports = 5;
  int vcs = 4;
  int vnets = 1;
};

/// Per-router permanent-fault state, held as bitmasks: per site type, a mask
/// over ports (bit a set iff some site of that type at port a is faulty),
/// plus, for the per-(port, vc) types, a mask over VCs per port. The checked
/// has() serves tests and the reliability models; the router pipeline reads
/// the masks directly.
class RouterFaultState {
 public:
  /// Geometry limits of the masks.
  static constexpr int kMaxPorts = 32;
  static constexpr int kMaxVcs = 32;

  explicit RouterFaultState(const FaultGeometry& g);

  const FaultGeometry& geometry() const { return geom_; }

  /// Bounds-checked site query (throws std::invalid_argument on a site
  /// outside the geometry).
  bool has(SiteType t, int a, int b = 0) const {
    check(t, a, b);
    const std::uint32_t m = type_uses_vc(t) ? vc_mask(t, a) : port_mask(t);
    return (m >> static_cast<unsigned>(type_uses_vc(t) ? b : a) & 1u) != 0;
  }
  bool has(const FaultSite& s) const { return has(s.type, s.a, s.b); }

  /// Unchecked: bit a set iff some site of type t at port a is faulty.
  std::uint32_t port_mask(SiteType t) const {
    return port_mask_[static_cast<std::size_t>(t)];
  }
  /// Unchecked, per-(port, vc) types only: bit b set iff site (t, a, b) is
  /// faulty. `a` must lie in the geometry.
  std::uint32_t vc_mask(SiteType t, int a) const {
    return vc_mask_[vc_slot(t, a)];
  }

  /// Marks a site permanently faulty. Injecting an already-faulty site is a
  /// no-op that returns false.
  bool inject(const FaultSite& s);

  /// Clears one site (used for transient faults that expire). Returns false
  /// when the site was not faulty.
  bool remove(const FaultSite& s);

  void clear();
  int count() const { return count_; }

  /// All distinct injectable sites for a geometry. `include_correction`
  /// adds the correction-circuitry sites (spares, bypasses, secondary path),
  /// which only exist on the protected router.
  static std::vector<FaultSite> enumerate_sites(const FaultGeometry& g,
                                                bool include_correction);

 private:
  static constexpr std::size_t kTypeCount =
      static_cast<std::size_t>(SiteType::XbPSelect) + 1;

  void check(SiteType t, int a, int b) const {
    require(a >= 0 && a < geom_.ports, "RouterFaultState: port out of range");
    require(b >= 0 && b < geom_.vcs, "RouterFaultState: vc out of range");
    require(type_uses_vc(t) || b == 0,
            "RouterFaultState: vc index on a per-port site");
  }
  /// vc_mask_ holds the Va1ArbiterSet ports, then the Va2Arbiter ports.
  std::size_t vc_slot(SiteType t, int a) const {
    return static_cast<std::size_t>(
        (t == SiteType::Va1ArbiterSet ? 0 : geom_.ports) + a);
  }

  FaultGeometry geom_;
  std::array<std::uint32_t, kTypeCount> port_mask_{};
  std::vector<std::uint32_t> vc_mask_;  ///< See vc_slot().
  int count_ = 0;
};

}  // namespace rnoc::fault
