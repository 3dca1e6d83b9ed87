#include "noc/link.hpp"

#include "codec/secded.hpp"
#include "common/types.hpp"

namespace rnoc::noc {

Link::Link(Cycle latency, const LinkEcc& ecc)
    : flits_(static_cast<std::size_t>(latency) + 1),
      credits_(2 * (static_cast<std::size_t>(latency) + 1)),
      latency_(latency),
      ecc_(ecc.single_ber > 0.0 || ecc.double_ber > 0.0),
      single_ber_(ecc.single_ber),
      double_ber_(ecc.double_ber),
      seed_(ecc.seed),
      rng_(ecc.seed) {
  require(latency >= 1, "Link: latency must be at least one cycle");
  require(ecc.single_ber >= 0.0 && ecc.single_ber <= 1.0 &&
              ecc.double_ber >= 0.0 && ecc.double_ber <= 1.0 &&
              ecc.single_ber + ecc.double_ber <= 1.0,
          "Link: error probabilities must form a distribution");
}

Flit* Link::arrive_ecc(Cycle now) {
  if (held_) {
    if (held_ready_ > now) return nullptr;
    // Retransmission: the retried transfer is assumed clean (a second
    // independent double-error in the same flit is negligible).
    held_ = false;
    held_ready_ = kNeverCycle;
    if (counters_) --counters_->link_flits;
    ++stats_.flits_delivered;
    return &held_flit_;
  }
  if (flits_.empty() || flits_.front().ready > now) return nullptr;
  Flit* f = &flits_.front().flit;
  flits_.pop_front();

  const double roll = rng_.next_double();
  if (roll < double_ber_) {
    // Uncorrectable: detected by SECDED, retransmit (1 cycle penalty). The
    // flit stays in flight and its consumer is re-woken for the delayed
    // delivery.
    ++stats_.retransmissions;
    held_ = true;
    held_flit_ = *f;
    held_ready_ = now + 1;
    if (ring_ != nullptr) ring_->schedule(flit_rec_, now + 1);
#ifdef RNOC_TRACE
    if (obs_) {
      obs_->on_event(obs::EventKind::EccRetx, now, f->packet, obs_node_, -1,
                     f->vc);
      obs_->metrics().counter_add("ecc_retransmissions");
    }
#endif
    return nullptr;
  }
  if (roll < double_ber_ + single_ber_) {
    // Run the low 32 payload bits through the real codec with a random
    // single-bit upset; the decode must restore them exactly.
    const auto data = static_cast<std::uint32_t>(f->payload);
    const std::uint64_t codeword = codec::secded_encode(data);
    const int bit = static_cast<int>(rng_.next_below(codec::kCodewordBits));
    const auto decoded = codec::secded_decode(codec::flip_bit(codeword, bit));
    require(decoded.status == codec::DecodeStatus::CorrectedSingle &&
                decoded.data == data,
            "Link: SECDED failed to correct a single-bit upset");
    f->payload = (f->payload & ~0xFFFFFFFFull) | decoded.data;
    ++stats_.corrected_singles;
  }
  if (counters_) --counters_->link_flits;
  ++stats_.flits_delivered;
  return f;
}

void Link::reset_for_run() {
  flits_.clear();
  credits_.clear();
  last_flit_push_ = kNeverCycle;
  held_ = false;
  held_ready_ = kNeverCycle;
  stats_ = EccLinkStats{};
  rng_ = Rng(seed_);
}

}  // namespace rnoc::noc
