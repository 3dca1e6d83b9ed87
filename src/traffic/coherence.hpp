// Directory-based cache-coherence traffic (the gem5/GARNET substitute).
//
// Models the NoC-visible behaviour of a MOESI_CMP_directory-style protocol
// on a mesh CMP (paper §IX): each node's L1 issues misses at a per-benchmark
// rate to the address-interleaved home directory; the home answers with a
// multi-flit data response, sometimes forwarding to a remote owner and
// sometimes invalidating sharers that acknowledge to the requester.
#pragma once

#include "traffic/patterns.hpp"

namespace rnoc::traffic {

/// NoC message classes carried in Flit::traffic_class. Numbered so that with
/// two virtual networks (noc/vnet.hpp, class mod vnets) the request-like
/// messages (Request/Forward/Invalidate, even) and the response-like ones
/// (Data/Ack, odd) land on disjoint VC pools — the standard protocol-
/// deadlock-avoidance split.
enum class CoherenceClass : std::uint8_t {
  Request = 0,    ///< L1 miss -> home directory (1 control flit).
  Data = 1,       ///< Data response (cache line, multi-flit).
  Forward = 2,    ///< Home -> remote owner (1 control flit).
  Ack = 3,        ///< Sharer -> requester (1 control flit).
  Invalidate = 4, ///< Home -> sharer (1 control flit).
};

struct CoherenceConfig {
  /// L1 miss (request) probability per node per cycle.
  double request_rate = 0.01;
  /// Probability a request is owned remotely and must be forwarded.
  double forward_prob = 0.2;
  /// Probability a request triggers invalidations.
  double invalidate_prob = 0.1;
  /// Number of sharers invalidated when it does.
  int sharers = 2;
  /// Directory/L2 service latency before the response leaves the home.
  Cycle service_delay = 20;
  /// Owner lookup latency before a forwarded data response leaves.
  Cycle forward_delay = 8;
  /// Cache-line data packet length in flits (control packets are 1 flit).
  int data_flits = 5;
};

class CoherenceTraffic : public TrafficModel {
 public:
  explicit CoherenceTraffic(const CoherenceConfig& cfg);

  const CoherenceConfig& config() const { return cfg_; }

  void generate(Cycle now, NodeId node, Rng& rng,
                std::vector<noc::PacketDesc>& out) override;

  bool supports_event_injection() const override { return true; }
  Cycle next_injection(Cycle from, Cycle horizon, NodeId node, Rng& rng,
                       std::vector<noc::PacketDesc>& out) override;

  void on_delivered(const noc::Flit& tail, NodeId at, Cycle now, Rng& rng,
                    std::vector<Response>& responses) override;

 private:
  NodeId random_other_node(NodeId self, Rng& rng) const;
  /// The L1-miss request `node` issues once its Bernoulli draw hit; draws
  /// the home directory from `rng`.
  noc::PacketDesc request(NodeId node, Rng& rng) const;

  CoherenceConfig cfg_;
};

}  // namespace rnoc::traffic
