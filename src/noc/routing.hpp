// Route computation: XY dimension-order and minimal adaptive routing.
//
// Adaptive routing is made deadlock-free with an escape virtual channel
// (Duato): VC 0 of every port is the escape lane and only ever follows the
// XY route; VCs 1..V-1 may take any minimal direction. Whole-packet
// forwarding (WPF, Ma et al. HPCA'12) is applied at VC allocation so the
// adaptive lanes can be reallocated non-atomically without deadlock.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "common/config.hpp"
#include "topo/fabric.hpp"

namespace arinoc {

/// A short list of output ports held inline: every input VC keeps one, and
/// route computation runs once per packet per hop, so it never allocates.
class PortList {
 public:
  /// Every direction port plus the local (ejection) port.
  static constexpr std::size_t kCapacity = topo::kMaxPorts + 1;

  void push_back(int port) {
    assert(n_ < kCapacity);
    ports_[n_++] = static_cast<std::int8_t>(port);
  }
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  int operator[](std::size_t i) const { return ports_[i]; }
  const std::int8_t* begin() const { return ports_.data(); }
  const std::int8_t* end() const { return ports_.data() + n_; }

 private:
  std::array<std::int8_t, kCapacity> ports_{};
  std::uint8_t n_ = 0;
};

struct RouteCandidates {
  /// Minimal productive output ports, or the local (ejection) port when the
  /// packet has arrived. On meshes this is the 1-2 productive directions,
  /// X before Y; on table-routed fabrics it is every minimal
  /// up*/down*-legal port, in ascending port order. VC allocation keeps
  /// this order among ports with equal free space.
  PortList minimal;
  /// The escape port (always a member of `minimal`): the XY dimension-order
  /// direction on meshes, the lowest-numbered minimal legal port on
  /// table-routed fabrics.
  int xy = -1;
};

/// Computes the candidate output ports for a packet at `here` going to
/// `dest`. `algo` selects whether the full minimal set or only the escape
/// port is productive for adaptive VCs. Meshes route by dimension order
/// (X first); every other fabric consults its up*/down* routing table.
/// `in_port` is the input port the packet occupies at `here` (injection
/// ports or -1 mean "freshly injected") — it determines the up*/down*
/// routing phase and is ignored on meshes.
RouteCandidates compute_route(const topo::Fabric& fabric, NodeId here,
                              int in_port, NodeId dest, RoutingAlgo algo);

}  // namespace arinoc
