// A unidirectional router-to-router channel: flits downstream, credits back
// upstream, each with a fixed latency (default 1 cycle).
#pragma once

#include <functional>
#include <optional>
#include <utility>

#include "noc/flit.hpp"
#include "noc/net_counters.hpp"
#include "noc/ring_buffer.hpp"

namespace rnoc::noc {

class Link {
 public:
  explicit Link(Cycle latency = 1);
  virtual ~Link() = default;

  Cycle latency() const { return latency_; }

  /// Pushes a flit at cycle `now`; it becomes visible at now + latency.
  /// At most one flit may be pushed per cycle (channel width = 1 flit).
  virtual void push_flit(const Flit& f, Cycle now);

  /// Takes the flit that has arrived by `now`, if any.
  virtual std::optional<Flit> take_flit(Cycle now);

  /// Credits ride the reverse wires with the same latency.
  virtual void push_credit(const Credit& c, Cycle now);
  virtual std::optional<Credit> take_credit(Cycle now);

  virtual bool idle() const { return flits_.empty() && credits_.empty(); }
  virtual int flits_in_flight() const {
    return static_cast<int>(flits_.size());
  }

  /// Cycle at which the next flit (resp. credit) becomes takeable, or
  /// kNeverCycle when none is in flight. The event core consults these to
  /// skip take_flit/take_credit calls that would return nullopt; a
  /// subclass holding a flit outside the ring (EccLink retransmission)
  /// publishes it via set_held_ready. Not virtual: this runs per port per
  /// active cycle.
  Cycle next_flit_ready() const {
    const Cycle ring = flits_.empty() ? kNeverCycle : flits_.front().second;
    return held_ready_ < ring ? held_ready_ : ring;
  }
  Cycle next_credit_ready() const {
    return credits_.empty() ? kNeverCycle : credits_.front().second;
  }

  /// Restores the link to its just-constructed state (Mesh::reset_for_run).
  virtual void reset_for_run() {
    flits_.clear();
    credits_.clear();
    last_flit_push_ = kNeverCycle;
    held_ready_ = kNeverCycle;
  }

  /// Invariant-checker introspection: visits every flit / credit currently
  /// in flight (including, for subclasses, any held retransmission slot).
  /// Not on the simulation hot path.
  virtual void for_each_flit(const std::function<void(const Flit&)>& fn) const {
    for (std::size_t i = 0; i < flits_.size(); ++i) fn(flits_.at(i).first);
  }
  void for_each_credit(const std::function<void(const Credit&)>& fn) const {
    for (std::size_t i = 0; i < credits_.size(); ++i) fn(credits_.at(i).first);
  }

  /// Scheduling hook (set by the Mesh): a plain function pointer plus two
  /// precomputed event records (one per direction), invoked with the cycle
  /// at which a pushed flit / credit becomes takeable, so the consumer is
  /// woken exactly then instead of polling every cycle. Unset = standalone.
  using EventHook = void (*)(void* ctx, std::uint32_t rec, Cycle ready);
  void set_event_hook(EventHook fn, void* ctx, std::uint32_t flit_rec,
                      std::uint32_t credit_rec) {
    hook_ = fn;
    hook_ctx_ = ctx;
    hook_flit_rec_ = flit_rec;
    hook_credit_rec_ = credit_rec;
  }

  /// Shared accounting sink (set by the Mesh); nullptr = standalone use.
  void set_counters(NetCounters* c) { counters_ = c; }

 protected:
  NetCounters* counters() const { return counters_; }
  void notify_flit_ready(Cycle ready) {
    if (hook_ != nullptr) hook_(hook_ctx_, hook_flit_rec_, ready);
  }
  void notify_credit_ready(Cycle ready) {
    if (hook_ != nullptr) hook_(hook_ctx_, hook_credit_rec_, ready);
  }
  /// Subclass hook backing next_flit_ready for flits held outside the ring.
  void set_held_ready(Cycle ready) { held_ready_ = ready; }

 private:
  RingBuffer<std::pair<Flit, Cycle>> flits_;      ///< (flit, ready_cycle)
  RingBuffer<std::pair<Credit, Cycle>> credits_;  ///< (credit, ready_cycle)
  Cycle latency_;
  Cycle last_flit_push_ = kNeverCycle;
  Cycle held_ready_ = kNeverCycle;
  EventHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
  std::uint32_t hook_flit_rec_ = 0;
  std::uint32_t hook_credit_rec_ = 0;
  NetCounters* counters_ = nullptr;
};

}  // namespace rnoc::noc
