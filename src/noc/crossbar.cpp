#include "noc/crossbar.hpp"

namespace rnoc::noc {

Crossbar::Crossbar(int ports, core::RouterMode mode)
    : ports_(ports), mode_(mode) {
  require(ports >= 1, "Crossbar: need at least one port");
}

}  // namespace rnoc::noc
