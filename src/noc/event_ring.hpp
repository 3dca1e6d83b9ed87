// The event core's schedule: a ring of per-cycle bitmaps over event records.
//
// A record is a small integer naming one thing that becomes due at a cycle
// (the Mesh encodes `router << 4 | kind`: a flit or credit delivery on a
// port, an NI wake, a router wake). Every event lies within a fixed horizon
// of the first undrained cycle, so the bitmap for cycle `at` lives in slot
// `at & mask` of a power-of-two ring: scheduling is one OR, draining is a
// sweep over the due slots, and set-bit order gives a deterministic
// dispatch order with duplicates collapsed for free. A record scheduled at
// a cycle that was already drained goes to the overdue bitmap, which the
// next collect() includes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace rnoc::noc {

class EventRing {
 public:
  /// `records`: number of distinct record values; `horizon`: events are at
  /// most horizon - 1 cycles past the first undrained cycle.
  EventRing(std::size_t records, Cycle horizon)
      : words_((records + 63) / 64),
        horizon_(horizon),
        mask_(std::bit_ceil(horizon) - 1),
        buckets_(words_ * (mask_ + 1), 0),
        overdue_(words_, 0) {}

  std::size_t words() const { return words_; }

  /// Marks record `rec` due at cycle `at`.
  void schedule(std::uint32_t rec, Cycle at) {
    const std::uint64_t bit = std::uint64_t{1} << (rec & 63u);
    if (at < next_drain_) {
      overdue_[rec >> 6] |= bit;
      return;
    }
    require(at - next_drain_ < horizon_,
            "EventRing::schedule: event beyond the link-latency horizon");
    buckets_[(at & mask_) * words_ + (rec >> 6)] |= bit;
  }

  /// Moves every record due at or before `now` (overdue ones included) into
  /// `due` (words() entries, OR-ed in) and marks cycles up to `now` drained.
  /// Slots of cycles the caller skipped are provably empty when it only
  /// skips to next_cycle(); the sweep still covers any gap up to the ring.
  void collect(Cycle now, std::vector<std::uint64_t>& due) {
    const Cycle slots = mask_ + 1;
    Cycle from = next_drain_;
    if (now >= slots && from < now + 1 - slots) from = now + 1 - slots;
    for (std::size_t w = 0; w < words_; ++w) {
      due[w] |= overdue_[w];
      overdue_[w] = 0;
    }
    for (Cycle c = from; c <= now; ++c) {
      std::uint64_t* bucket = &buckets_[(c & mask_) * words_];
      for (std::size_t w = 0; w < words_; ++w) {
        due[w] |= bucket[w];
        bucket[w] = 0;
      }
    }
    next_drain_ = now + 1;
  }

  /// Earliest cycle holding a scheduled record, or kNeverCycle. Overdue
  /// records count as due at the first undrained cycle.
  Cycle next_cycle() const {
    for (const std::uint64_t w : overdue_)
      if (w != 0) return next_drain_;
    for (Cycle c = next_drain_; c < next_drain_ + horizon_; ++c) {
      const std::uint64_t* bucket = &buckets_[(c & mask_) * words_];
      for (std::size_t w = 0; w < words_; ++w)
        if (bucket[w] != 0) return c;
    }
    return kNeverCycle;
  }

  /// First cycle not yet drained.
  Cycle next_drain() const { return next_drain_; }

  void reset() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    std::fill(overdue_.begin(), overdue_.end(), 0);
    next_drain_ = 0;
  }

 private:
  std::size_t words_;
  Cycle horizon_;
  Cycle mask_;
  std::vector<std::uint64_t> buckets_;  ///< [slot * words_ + word]
  std::vector<std::uint64_t> overdue_;  ///< Records at drained cycles.
  Cycle next_drain_ = 0;
};

}  // namespace rnoc::noc
