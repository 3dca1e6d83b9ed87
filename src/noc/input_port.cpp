#include "noc/input_port.hpp"

#include <algorithm>
#include <bit>

#include "common/types.hpp"

namespace rnoc::noc {

const char* vc_state_name(VcState s) {
  switch (s) {
    case VcState::Idle: return "Idle";
    case VcState::Routing: return "Routing";
    case VcState::VcAlloc: return "VcAlloc";
    case VcState::Active: return "Active";
  }
  unreachable("vc_state_name: unhandled VcState");
}

void VirtualChannel::reset_to_idle() {
  state = VcState::Idle;
  route = -1;
  out_vc = -1;
  sp = -1;
  fsp = false;
  excluded_out_vc = -1;
  escape_route = false;
  unroutable = false;
  packet = 0;
  dst = kInvalidNode;
  clear_borrow_fields();
}

VcStore::VcStore(int ports, int vcs, int depth)
    : ports_(ports), vcs_(vcs), depth_(depth) {
  require_router_geometry(ports, vcs);
  require_vc_depth(depth);
  window_ = static_cast<int>(std::bit_ceil(static_cast<unsigned>(depth)));
  const auto n = static_cast<std::size_t>(ports * vcs);
  vc_.resize(n);
  slab_.resize(n * static_cast<std::size_t>(window_));
  poison_.assign(n, PoisonSlot{});
  reset_for_run();
}

void VcStore::bind_window(int flat) {
  VcBuffer& b = vc_[static_cast<std::size_t>(flat)].buffer;
  b.slots_ = &slab_[static_cast<std::size_t>(flat * window_)];
  b.mask_ = static_cast<std::uint16_t>(window_ - 1);
  b.clear();
}

int VcStore::logical_of(int port, int phys) const {
  check(phys);
  for (int l = 0; l < vcs_; ++l)
    if (l2p_[static_cast<std::size_t>(port * vcs_ + l)] == phys) return l;
  require(false, "InputPort::logical_of: map is not a permutation");
  return -1;
}

void VcStore::transfer(int port, int from, int to) {
  VirtualChannel& src = vc(port, from);
  VirtualChannel& dst = vc(port, to);
  require(from != to, "InputPort::transfer: source == destination");
  require(dst.state == VcState::Idle && dst.buffer.empty(),
          "InputPort::transfer: destination VC not idle/empty");
  require(!src.buffer.empty(), "InputPort::transfer: source VC empty");

  // The packet moves with its state fields; the two VCs swap slab windows
  // (the flits stay where they are), so each keeps a full window.
  std::swap(src, dst);
  src.reset_to_idle();

  // Swap the logical ids of the two physical VCs so that in-flight flits of
  // the moved packet (addressed to its original logical id) land in `to`,
  // and a new packet the upstream allocates to the freed id lands in `from`.
  const int l_from = logical_of(port, from);
  const int l_to = logical_of(port, to);
  std::swap(l2p_[static_cast<std::size_t>(port * vcs_ + l_from)],
            l2p_[static_cast<std::size_t>(port * vcs_ + l_to)]);
  refresh(port, from);
  refresh(port, to);
}

bool VcStore::poison_filter(int port, const Flit& f) {
  PoisonSlot& slot = poison_[static_cast<std::size_t>(port * vcs_ + f.vc)];
  const bool swallow = slot.packet == f.packet && f.injected <= slot.armed_at;
  // Disarm on the fragment's final possible flit or any other arrival.
  if (!swallow || f.is_tail()) {
    slot = PoisonSlot{};
    poisoned_[port] &= ~(1u << static_cast<unsigned>(f.vc));
  }
  return swallow;
}

void VcStore::reset_for_run() {
  for (int i = 0; i < ports_ * vcs_; ++i) {
    vc_[static_cast<std::size_t>(i)] = VirtualChannel{};
    bind_window(i);
    l2p_[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i % vcs_);
  }
  std::fill(std::begin(dropping_), std::end(dropping_), 0);
  std::fill(std::begin(poisoned_), std::end(poisoned_), 0);
  std::fill(std::begin(buffered_), std::end(buffered_), 0);
  std::fill(poison_.begin(), poison_.end(), PoisonSlot{});
  masks_ = RouterVcMasks{};
}

RouterVcMasks VcStore::compute_masks() const {
  RouterVcMasks m;
  for (int p = 0; p < ports_; ++p) {
    for (int v = 0; v < vcs_; ++v) {
      const VirtualChannel& c = vc(p, v);
      const std::uint32_t bit = 1u << static_cast<unsigned>(v);
      if (c.state == VcState::Routing) m.routing[p] |= bit;
      if (c.state == VcState::VcAlloc) m.vcalloc[p] |= bit;
      if (c.state == VcState::Active && !c.buffer.empty()) m.ready[p] |= bit;
    }
    const std::uint32_t port_bit = 1u << static_cast<unsigned>(p);
    if (m.routing[p] != 0) m.routing_ports |= port_bit;
    if (m.vcalloc[p] != 0) m.vcalloc_ports |= port_bit;
    if (m.ready[p] != 0) m.ready_ports |= port_bit;
  }
  return m;
}

InputPort::InputPort(int vcs, int depth)
    : own_(std::make_unique<VcStore>(1, vcs, depth)), s_(own_.get()) {}

}  // namespace rnoc::noc
