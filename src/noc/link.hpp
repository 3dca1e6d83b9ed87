// A unidirectional router-to-router channel: flits downstream, credits back
// upstream, each with a fixed latency (default 1 cycle).
//
// The flit datapath optionally suffers bit upsets, protected by the SECDED
// codec (codec/secded.hpp) with single-retry retransmission — the
// low-overhead datapath protection Vicis applies. Error model per delivered
// flit: with probability `single_ber` one codeword bit flips (SECDED
// corrects it in place, zero cost); with probability `double_ber` two bits
// flip (SECDED detects; the flit is retransmitted and arrives one cycle
// later). The payload really is encoded, corrupted and decoded through the
// codec, so the correction path is exercised, not assumed. With both rates
// zero the datapath is a plain wire and draws nothing from its RNG.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "noc/event_ring.hpp"
#include "noc/flit.hpp"
#include "noc/net_counters.hpp"
#include "noc/ring_buffer.hpp"
#include "obs/observer.hpp"

namespace rnoc::noc {

/// Bit-upset rates of a link's flit datapath and the seed of its error
/// draws. All-zero rates (the default) make a plain link.
struct LinkEcc {
  double single_ber = 0.0;
  double double_ber = 0.0;
  std::uint64_t seed = 0;
};

/// Datapath-protection counters of one link (all zero on a plain link).
struct EccLinkStats {
  std::uint64_t flits_delivered = 0;
  std::uint64_t corrected_singles = 0;
  std::uint64_t retransmissions = 0;
};

class Link {
 public:
  explicit Link(Cycle latency = 1, const LinkEcc& ecc = {});

  Cycle latency() const { return latency_; }
  /// True when the flit datapath models bit upsets (some rate is nonzero).
  bool ecc() const { return ecc_; }

  /// Pushes a flit at cycle `now`; it becomes visible at now + latency.
  /// At most one flit may be pushed per cycle (channel width = 1 flit).
  void push_flit(const Flit& f, Cycle now) {
    require(last_flit_push_ == kNeverCycle || last_flit_push_ != now,
            "Link::push_flit: two flits pushed in one cycle");
    last_flit_push_ = now;
    flits_.push_back({f, now + latency_});
    if (counters_) ++counters_->link_flits;
    if (ring_ != nullptr) ring_->schedule(flit_rec_, now + latency_);
  }

  /// Credits ride the reverse wires with the same latency.
  void push_credit(const Credit& c, Cycle now) {
    credits_.push_back({c, now + latency_});
    if (ring_ != nullptr) ring_->schedule(credit_rec_, now + latency_);
  }

  /// Delivers the flit that has arrived by `now` through the datapath:
  /// returns it in place (valid until the next push_flit) or nullptr when
  /// none is due — including a flit the ECC datapath just caught with a
  /// double upset, which is held for its retransmission one cycle later.
  Flit* arrive(Cycle now) {
    if (ecc_) return arrive_ecc(now);
    if (flits_.empty() || flits_.front().ready > now) return nullptr;
    Flit* f = &flits_.front().flit;
    flits_.pop_front();
    if (counters_) --counters_->link_flits;
    return f;
  }

  /// Applies `apply(const Credit&)` to exactly the credits that have
  /// arrived by `now`, in push order.
  template <typename Apply>
  void drain_credits(Cycle now, Apply&& apply) {
    while (!credits_.empty() && credits_.front().ready <= now) {
      apply(credits_.front().credit);
      credits_.pop_front();
    }
  }

  bool idle() const { return flits_.empty() && credits_.empty() && !held_; }
  int flits_in_flight() const {
    return static_cast<int>(flits_.size()) + (held_ ? 1 : 0);
  }

  /// Cycle at which the next flit (resp. credit) becomes deliverable, or
  /// kNeverCycle when none is in flight; covers a held retransmission.
  Cycle next_flit_ready() const {
    const Cycle ring = flits_.empty() ? kNeverCycle : flits_.front().ready;
    return held_ && held_ready_ < ring ? held_ready_ : ring;
  }
  Cycle next_credit_ready() const {
    return credits_.empty() ? kNeverCycle : credits_.front().ready;
  }

  const EccLinkStats& stats() const { return stats_; }

  /// Restores the link to its just-constructed state (Mesh::reset_for_run).
  void reset_for_run();

  /// Invariant-checker introspection: visits every flit / credit currently
  /// in flight (a held retransmission included). Not on the hot path.
  template <typename Fn>
  void for_each_flit(Fn&& fn) const {
    for (std::size_t i = 0; i < flits_.size(); ++i) fn(flits_.at(i).flit);
    if (held_) fn(held_flit_);
  }
  template <typename Fn>
  void for_each_credit(Fn&& fn) const {
    for (std::size_t i = 0; i < credits_.size(); ++i)
      fn(credits_.at(i).credit);
  }

  /// Scheduling hook (set by the Mesh's event core): every push marks
  /// record `flit_rec` / `credit_rec` due on `ring` at the cycle the item
  /// becomes deliverable, so its consumer is woken exactly then instead of
  /// polling every cycle. Unset = standalone or FullSweep.
  void set_event_ring(EventRing* ring, std::uint32_t flit_rec,
                      std::uint32_t credit_rec) {
    ring_ = ring;
    flit_rec_ = flit_rec;
    credit_rec_ = credit_rec;
  }

  /// Shared accounting sink (set by the Mesh); nullptr = standalone use.
  void set_counters(NetCounters* c) { counters_ = c; }

#ifdef RNOC_TRACE
  /// Observability sink (set by the Mesh in traced builds). Links carry no
  /// endpoint identity of their own, so the mesh also passes the node the
  /// flits flow into; retransmit instants are charged to that node.
  void set_observer(obs::Observer* o, NodeId down_node) {
    obs_ = o;
    obs_node_ = down_node;
  }
  NodeId obs_node() const { return obs_node_; }
#endif

 private:
  struct TimedFlit {
    Flit flit;
    Cycle ready;
  };
  struct TimedCredit {
    Credit credit;
    Cycle ready;
  };

  /// arrive() through the SECDED datapath (bit-upset rates nonzero).
  Flit* arrive_ecc(Cycle now);

  RingBuffer<TimedFlit> flits_;
  RingBuffer<TimedCredit> credits_;
  Cycle latency_;
  Cycle last_flit_push_ = kNeverCycle;
  EventRing* ring_ = nullptr;
  std::uint32_t flit_rec_ = 0;
  std::uint32_t credit_rec_ = 0;
  NetCounters* counters_ = nullptr;

  // --- SECDED datapath (inert unless ecc_) ---
  bool ecc_ = false;
  bool held_ = false;  ///< A flit awaits retransmission delivery.
  double single_ber_;
  double double_ber_;
  std::uint64_t seed_;
  Rng rng_;
  Flit held_flit_{};
  Cycle held_ready_ = kNeverCycle;
  EccLinkStats stats_;
#ifdef RNOC_TRACE
  obs::Observer* obs_ = nullptr;
  NodeId obs_node_ = kInvalidNode;
#endif
};

}  // namespace rnoc::noc
