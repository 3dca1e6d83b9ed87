#include "noc/input_port.hpp"

#include <algorithm>

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

void VirtualChannel::clear_borrow_fields() {
  r2 = -1;
  vf = false;
  id = -1;
}

InputPort::InputPort(int vcs, int depth) : depth_(depth) {
  require(vcs >= 1, "InputPort: need at least one VC");
  require(depth >= 1, "InputPort: VC depth must be positive");
  vcs_.resize(static_cast<std::size_t>(vcs));
  for (auto& v : vcs_) v.buffer.reserve(static_cast<std::size_t>(depth));
  l2p_.resize(static_cast<std::size_t>(vcs));
  for (int i = 0; i < vcs; ++i) l2p_[static_cast<std::size_t>(i)] = i;
  drop_until_tail_.assign(static_cast<std::size_t>(vcs), 0);
  poison_.assign(static_cast<std::size_t>(vcs), PoisonSlot{});
}

void InputPort::set_mask_sink(RouterVcMasks* m, int port) {
  if (m != nullptr) {
    require(vcs() <= 32, "InputPort::set_mask_sink: masks need vcs <= 32");
    require(port >= 0 && port < RouterVcMasks::kMaxPorts,
            "InputPort::set_mask_sink: port index out of range");
  }
  masks_ = m;
  port_ = port;
  port_bit_ = m == nullptr ? 0 : 1u << static_cast<unsigned>(port);
  if (m != nullptr)
    for (int v = 0; v < vcs(); ++v) refresh_vc(v);
}

int InputPort::logical_of(int phys) const {
  check(phys);
  for (int l = 0; l < vcs(); ++l)
    if (l2p_[static_cast<std::size_t>(l)] == phys) return l;
  require(false, "InputPort::logical_of: map is not a permutation");
  return -1;
}

bool InputPort::can_accept(const Flit& f) const {
  const VirtualChannel& v = vcs_[static_cast<std::size_t>(physical_of(f.vc))];
  return static_cast<int>(v.buffer.size()) < depth_;
}

void InputPort::write(const Flit& f) {
  const int phys = physical_of(f.vc);
  VirtualChannel& v = vcs_[static_cast<std::size_t>(phys)];
  require(static_cast<int>(v.buffer.size()) < depth_,
          "InputPort::write: buffer overflow (credit protocol violated)");
  if (f.is_head()) {
    require(v.state == VcState::Idle && v.buffer.empty(),
            "InputPort::write: head flit into a busy VC");
    v.state = VcState::Routing;
    v.packet = f.packet;
    v.dst = f.dst;
  } else {
    require(v.state != VcState::Idle,
            "InputPort::write: body/tail flit into an Idle VC");
  }
  v.buffer.push_back(f);
  ++buffered_;
  if (counters_) ++counters_->router_flits;
  refresh_vc(phys);
}

Flit InputPort::pop_front(int phys) {
  VirtualChannel& v = vcs_[static_cast<std::size_t>(check(phys))];
  require(!v.buffer.empty(), "InputPort::pop_front: empty VC");
  Flit f = v.buffer.front();
  v.buffer.pop_front();
  --buffered_;
  if (counters_) --counters_->router_flits;
  refresh_vc(phys);
  return f;
}

void InputPort::transfer(int from, int to) {
  VirtualChannel& src = vcs_[static_cast<std::size_t>(check(from))];
  VirtualChannel& dst = vcs_[static_cast<std::size_t>(check(to))];
  require(from != to, "InputPort::transfer: source == destination");
  require(dst.state == VcState::Idle && dst.buffer.empty(),
          "InputPort::transfer: destination VC not idle/empty");
  require(!src.buffer.empty(), "InputPort::transfer: source VC empty");

  dst.state = src.state;
  dst.route = src.route;
  dst.out_vc = src.out_vc;
  dst.sp = src.sp;
  dst.fsp = src.fsp;
  dst.excluded_out_vc = src.excluded_out_vc;
  dst.escape_route = src.escape_route;
  dst.unroutable = src.unroutable;
  dst.packet = src.packet;
  dst.dst = src.dst;
#ifdef RNOC_TRACE
  dst.obs_arrived = src.obs_arrived;
#endif
  // Swap (not move) so both VCs keep their preallocated ring storage.
  std::swap(dst.buffer, src.buffer);
  src.reset_to_idle();

  // Swap the logical ids of the two physical VCs so that in-flight flits of
  // the moved packet (addressed to its original logical id) land in `to`,
  // and a new packet the upstream allocates to the freed id lands in `from`.
  const int l_from = logical_of(from);
  const int l_to = logical_of(to);
  std::swap(l2p_[static_cast<std::size_t>(l_from)],
            l2p_[static_cast<std::size_t>(l_to)]);
  refresh_vc(from);
  refresh_vc(to);
}

void InputPort::reset_for_run() {
  for (auto& v : vcs_) {
    v.buffer.clear();
    v.reset_to_idle();
#ifdef RNOC_TRACE
    v.obs_arrived = 0;
#endif
  }
  for (int i = 0; i < static_cast<int>(l2p_.size()); ++i)
    l2p_[static_cast<std::size_t>(i)] = i;
  drop_until_tail_.assign(drop_until_tail_.size(), 0);
  poison_.assign(poison_.size(), PoisonSlot{});
  buffered_ = 0;
  if (masks_ != nullptr)
    for (int v = 0; v < vcs(); ++v) refresh_vc(v);
}

RouterVcMasks compute_vc_masks(const std::vector<InputPort>& inputs) {
  require(inputs.size() <= static_cast<std::size_t>(RouterVcMasks::kMaxPorts),
          "compute_vc_masks: too many ports");
  RouterVcMasks m;
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    const InputPort& ip = inputs[p];
    require(ip.vcs() <= 32, "compute_vc_masks: masks need vcs <= 32");
    for (int v = 0; v < ip.vcs(); ++v) {
      const VirtualChannel& vc = ip.vc(v);
      const std::uint32_t bit = 1u << static_cast<unsigned>(v);
      if (vc.state == VcState::Routing) m.routing[p] |= bit;
      if (vc.state == VcState::VcAlloc) m.vcalloc[p] |= bit;
      if (vc.state == VcState::Active && !vc.buffer.empty()) m.ready[p] |= bit;
    }
    const std::uint32_t port_bit = 1u << static_cast<unsigned>(p);
    if (m.routing[p] != 0) m.routing_ports |= port_bit;
    if (m.vcalloc[p] != 0) m.vcalloc_ports |= port_bit;
    if (m.ready[p] != 0) m.ready_ports |= port_bit;
  }
  return m;
}

}  // namespace rnoc::noc
