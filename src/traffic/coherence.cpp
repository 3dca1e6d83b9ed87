#include "traffic/coherence.hpp"

#include "common/types.hpp"

namespace rnoc::traffic {

CoherenceTraffic::CoherenceTraffic(const CoherenceConfig& cfg) : cfg_(cfg) {
  require(cfg.request_rate >= 0.0 && cfg.request_rate <= 1.0,
          "CoherenceTraffic: request rate must lie in [0,1]");
  require(cfg.forward_prob >= 0.0 && cfg.forward_prob <= 1.0 &&
              cfg.invalidate_prob >= 0.0 && cfg.invalidate_prob <= 1.0,
          "CoherenceTraffic: probabilities must lie in [0,1]");
  require(cfg.sharers >= 0 && cfg.data_flits >= 1,
          "CoherenceTraffic: bad sharers/data_flits");
}

NodeId CoherenceTraffic::random_other_node(NodeId self, Rng& rng) const {
  NodeId d = static_cast<NodeId>(
      rng.next_below(static_cast<std::uint64_t>(dims_.nodes() - 1)));
  if (d >= self) ++d;
  return d;
}

noc::PacketDesc CoherenceTraffic::request(NodeId node, Rng& rng) const {
  // Address-interleaved home: uniform over the other nodes.
  noc::PacketDesc p;
  p.src = node;
  p.dst = random_other_node(node, rng);
  p.size_flits = 1;
  p.traffic_class = static_cast<std::uint8_t>(CoherenceClass::Request);
  p.payload = static_cast<std::uint64_t>(node);  // original requester
  return p;
}

void CoherenceTraffic::generate(Cycle, NodeId node, Rng& rng,
                                std::vector<noc::PacketDesc>& out) {
  if (!rng.next_bool(cfg_.request_rate)) return;
  out.push_back(request(node, rng));
}

Cycle CoherenceTraffic::next_injection(Cycle from, Cycle horizon, NodeId node,
                                       Rng& rng,
                                       std::vector<noc::PacketDesc>& out) {
  // Draw-for-draw replay of per-cycle generate() calls: one Bernoulli draw
  // per quiet cycle, the home draw on a hit — the node's RNG stream is
  // bit-identical to the cycle sweep's.
  for (Cycle c = from; c < horizon; ++c) {
    if (!rng.next_bool(cfg_.request_rate)) continue;
    out.push_back(request(node, rng));
    return c;
  }
  return kNeverCycle;
}

void CoherenceTraffic::on_delivered(const noc::Flit& tail, NodeId at,
                                    Cycle now, Rng& rng,
                                    std::vector<Response>& responses) {
  const auto cls = static_cast<CoherenceClass>(tail.traffic_class);
  const auto requester = static_cast<NodeId>(tail.payload);
  switch (cls) {
    case CoherenceClass::Request: {
      if (rng.next_bool(cfg_.forward_prob)) {
        // Line owned remotely: home forwards the request to the owner.
        NodeId owner = random_other_node(at, rng);
        if (owner == requester) {
          // Owner == requester is a silent upgrade; answer directly instead.
          owner = at;
        }
        if (owner != at) {
          Response r;
          r.node = at;
          r.desc.dst = owner;
          r.desc.size_flits = 1;
          r.desc.traffic_class =
              static_cast<std::uint8_t>(CoherenceClass::Forward);
          r.desc.payload = static_cast<std::uint64_t>(requester);
          r.ready = now + cfg_.service_delay;
          responses.push_back(r);
          break;
        }
      }
      // Home has the line: send the data response.
      if (requester != at) {
        Response r;
        r.node = at;
        r.desc.dst = requester;
        r.desc.size_flits = cfg_.data_flits;
        r.desc.traffic_class = static_cast<std::uint8_t>(CoherenceClass::Data);
        r.desc.payload = static_cast<std::uint64_t>(requester);
        r.ready = now + cfg_.service_delay;
        responses.push_back(r);
      }
      if (rng.next_bool(cfg_.invalidate_prob)) {
        for (int s = 0; s < cfg_.sharers; ++s) {
          const NodeId sharer = random_other_node(at, rng);
          if (sharer == requester) continue;
          Response r;
          r.node = at;
          r.desc.dst = sharer;
          r.desc.size_flits = 1;
          r.desc.traffic_class =
              static_cast<std::uint8_t>(CoherenceClass::Invalidate);
          r.desc.payload = static_cast<std::uint64_t>(requester);
          r.ready = now + cfg_.service_delay;
          responses.push_back(r);
        }
      }
      break;
    }
    case CoherenceClass::Forward: {
      // Remote owner supplies the line to the original requester.
      if (requester != at) {
        Response r;
        r.node = at;
        r.desc.dst = requester;
        r.desc.size_flits = cfg_.data_flits;
        r.desc.traffic_class = static_cast<std::uint8_t>(CoherenceClass::Data);
        r.desc.payload = static_cast<std::uint64_t>(requester);
        r.ready = now + cfg_.forward_delay;
        responses.push_back(r);
      }
      break;
    }
    case CoherenceClass::Invalidate: {
      // Sharer acknowledges to the requester.
      if (requester != at) {
        Response r;
        r.node = at;
        r.desc.dst = requester;
        r.desc.size_flits = 1;
        r.desc.traffic_class = static_cast<std::uint8_t>(CoherenceClass::Ack);
        r.desc.payload = static_cast<std::uint64_t>(requester);
        r.ready = now + 1;
        responses.push_back(r);
      }
      break;
    }
    case CoherenceClass::Data:
    case CoherenceClass::Ack:
      break;  // Terminal messages.
  }
}

}  // namespace rnoc::traffic
