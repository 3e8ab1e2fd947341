#include "noc/router.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "obs/sink.hpp"

namespace arinoc {

namespace {

constexpr std::uint64_t bit(std::uint32_t i) { return std::uint64_t{1} << i; }
/// The bits of `m` at or above position `from` (< 64).
constexpr std::uint64_t bits_from(std::uint64_t m, std::uint32_t from) {
  return m & (~std::uint64_t{0} << from);
}
/// The bits of `m` below position `below` (< 64).
constexpr std::uint64_t bits_below(std::uint64_t m, std::uint32_t below) {
  return m & ~(~std::uint64_t{0} << below);
}
/// Clears the lowest set bit of `m` (non-zero) and returns its position.
inline std::uint32_t pop_lowest(std::uint64_t& m) {
  const auto i = static_cast<std::uint32_t>(std::countr_zero(m));
  m &= m - 1;
  return i;
}
constexpr std::uint64_t all_vcs(std::uint32_t num_vcs) {
  return num_vcs >= 64 ? ~std::uint64_t{0} : bit(num_vcs) - 1;
}

}  // namespace

Router::Router(const RouterParams& params, const topo::Fabric* fabric,
               PacketArena* arena)
    : params_(params),
      fabric_(fabric),
      num_dirs_(fabric->max_ports()),
      arena_(arena),
      input_vcs_(num_inputs() * params.num_vcs),
      output_vcs_(num_outputs() * params.num_vcs),
      ejection_buf_(params.ejection_capacity_flits),
      in_ports_(num_inputs()),
      out_ports_(num_outputs()),
      sw_req_(static_cast<std::size_t>(num_outputs()) * num_inputs()),
      va_order_(input_vcs_.size()),
      out_flit_count_(num_outputs(), 0) {
  assert(params.num_vcs >= 1 && params.num_vcs <= 64);
  assert(num_outputs() <= 64);
  // Ejection "credits" stay 0: the shared ejection buffer stands in.
  for (auto& v : input_vcs_) v.buf.set_capacity(params.vc_depth_flits);
  for (OutputPort& o : out_ports_) {
    o.free_vcs = all_vcs(params.num_vcs);
    o.arb.resize(input_vcs_.size());
  }
}

void Router::connect_output(int dir, std::uint32_t downstream_depth_flits) {
  assert(dir >= 0 && dir < num_dirs_);
  connected_out_ |= bit(static_cast<std::uint32_t>(dir));
  for (std::uint32_t vc = 0; vc < params_.num_vcs; ++vc) {
    ovc(dir, static_cast<int>(vc)).credits = downstream_depth_flits;
  }
}

void Router::receive_flit(int dir, int vc, const Flit& flit) {
  InputVC& v = ivc(dir, vc);
  assert(!v.buf.full() && "credit protocol violated");
  if (v.buf.empty()) v.wait_since = 0;  // refreshed at route_stage
  v.buf.push(flit);
  in_ports_[static_cast<std::size_t>(dir)].occupied |=
      bit(static_cast<std::uint32_t>(vc));
  ++buffered_total_;
  if (act_set_) act_set_->wake(act_idx_);
}

void Router::receive_credit(int dir, int vc) {
  OutputVC& o = ovc(dir, vc);
  ++o.credits;
  if (o.owner == kInvalidPacket) {
    ++out_ports_[static_cast<std::size_t>(dir)].opened;
  }
  // A credit can unblock a VC or a switch request, and it arrives before
  // this cycle's drain, so the router steps when always-on would.
  if (act_set_ && buffered_total_ > 0) act_set_->wake(act_idx_);
}

std::uint32_t Router::injection_free(std::uint32_t ip, std::uint32_t vc) const {
  return static_cast<std::uint32_t>(
      ivc(num_dirs_ + static_cast<int>(ip), static_cast<int>(vc))
          .buf.free_space());
}

bool Router::injection_vc_ready(std::uint32_t ip, std::uint32_t vc,
                                std::uint32_t flits) const {
  const InputVC& v = ivc(num_dirs_ + static_cast<int>(ip), static_cast<int>(vc));
  const std::uint32_t need =
      std::min<std::uint32_t>(flits, params_.vc_depth_flits);
  if (params_.non_atomic_vc) {
    return v.buf.free_space() >= need;
  }
  return v.buf.empty() && v.state == InputVC::State::kIdle;
}

void Router::inject_flit(std::uint32_t ip, std::uint32_t vc, const Flit& flit,
                         Cycle now) {
  const int port = num_dirs_ + static_cast<int>(ip);
  InputVC& v = ivc(port, static_cast<int>(vc));
  assert(!v.buf.full() && "injection overflow");
  v.buf.push(flit);
  in_ports_[static_cast<std::size_t>(port)].occupied |= bit(vc);
  ++buffered_total_;
  if (act_set_) act_set_->wake(act_idx_);
  if (flit.head) {
    arena_->at(flit.pkt).injected = now;
    if (sink_) {
      sink_->inject(flit.pkt, arena_->at(flit.pkt).type, params_.node,
                    static_cast<int>(vc), now);
    }
  }
  ++injected_flit_count_;
}

Flit Router::pop_ejected_flit() {
  ++out_ports_[static_cast<std::size_t>(num_dirs_)].opened;
  // The pop follows the network step, so the wake lands next cycle: the
  // first step that sees the freed slot in always-on mode too.
  if (act_set_ && buffered_total_ > 0) act_set_->wake(act_idx_);
  return ejection_buf_.pop();
}

void Router::reset_stats() {
  out_flit_count_.assign(num_outputs(), 0);
  injected_flit_count_ = 0;
  ejected_flit_count_ = 0;
  crossbar_count_ = 0;
}

std::uint64_t Router::opened_sum(const RouteCandidates& route) const {
  std::uint64_t sum = 0;
  for (const int out : route.minimal) {
    sum += out_ports_[static_cast<std::size_t>(out)].opened;
  }
  return sum;
}

std::uint32_t Router::port_free_space(int out_port) const {
  if (out_port == num_dirs_) {
    return static_cast<std::uint32_t>(ejection_buf_.free_space()) *
           params_.num_vcs;
  }
  std::uint32_t sum = 0;
  for (std::uint32_t vc = 0; vc < params_.num_vcs; ++vc) {
    sum += output_vcs_[static_cast<std::size_t>(out_port) * params_.num_vcs +
                       vc]
               .credits;
  }
  return sum;
}

int Router::first_admitting_vc(int out_port, std::uint64_t free,
                               std::uint32_t flits) const {
  if (free == 0) return -1;
  if (out_port == num_dirs_) {
    // Every ejection VC shares the ejection buffer's free space.
    const std::uint32_t need = std::min<std::uint32_t>(
        flits, params_.ejection_capacity_flits);
    return ejection_buf_.free_space() >= need ? std::countr_zero(free) : -1;
  }
  if (!output_is_connected(out_port) || output_is_blocked(out_port)) return -1;
  // Whole-packet forwarding: admit a new packet whenever the full packet
  // fits in the downstream free space, even if the VC is still draining.
  // Atomic allocation needs the downstream VC empty.
  const std::uint32_t need =
      params_.non_atomic_vc
          ? std::min<std::uint32_t>(flits, params_.vc_depth_flits)
          : params_.vc_depth_flits;
  const OutputVC* port =
      &output_vcs_[static_cast<std::size_t>(out_port) * params_.num_vcs];
  while (free != 0) {
    const std::uint32_t vc = pop_lowest(free);
    assert(port[vc].owner == kInvalidPacket && "VA offered an owned VC");
    if (port[vc].credits >= need) return static_cast<int>(vc);
  }
  return -1;
}

bool Router::output_ready_for_flit(int out_port, int out_vc) const {
  if (out_port == num_dirs_) return !ejection_buf_.full();
  if (output_is_blocked(out_port)) return false;
  return output_vcs_[static_cast<std::size_t>(out_port) * params_.num_vcs +
                     static_cast<std::size_t>(out_vc)]
             .credits >= 1;
}

std::uint32_t Router::effective_priority(const InputVC& v, Cycle now) const {
  if (params_.priority_levels <= 1) return 0;
  if (params_.starvation_threshold > 0 && v.wait_since > 0 &&
      now - v.wait_since > params_.starvation_threshold) {
    // §5: grant starving traffic the top level so injection packets cannot
    // monopolize the switch indefinitely.
    return params_.priority_levels - 1;
  }
  // The priority latched at route computation (see InputVC).
  return v.latched_priority;
}

void Router::route_stage(Cycle now) {
  for (std::uint32_t p = 0; p < num_inputs(); ++p) {
    InputPort& in = in_ports_[p];
    // Idle VCs holding a flit, in ascending VC order.
    std::uint64_t idle = in.occupied & ~(in.waiting | in.active);
    while (idle != 0) {
      const std::uint32_t vc = pop_lowest(idle);
      InputVC& v = ivc(static_cast<int>(p), static_cast<int>(vc));
      const Flit& f = v.buf.front();
      assert(f.head && "non-head flit at idle VC front");
      Packet& pkt = arena_->at(f.pkt);
      v.route = compute_route(*fabric_, params_.node, static_cast<int>(p),
                              pkt.dest, params_.routing);
      v.state = InputVC::State::kWaitVC;
      in.waiting |= bit(vc);
      ++num_waiting_;
      v.wait_since = now;
      v.va_failed_at = 0;
      // §5: the RC unit decrements the priority field of every packet it
      // routes, except at the packet's own injection router where the
      // injection boost must still apply during switch allocation.
      if (!is_injection_port(static_cast<int>(p)) && pkt.priority > 0) {
        --pkt.priority;
      }
      v.latched_priority = pkt.priority;
      v.latched_flits = pkt.num_flits;
    }
  }
}

void Router::vc_alloc_stage(Cycle now) {
  if (num_waiting_ == 0) return;
  // Waiting VCs in round-robin order: flat index port * num_vcs + vc,
  // starting at va_rr_ and wrapping once around every input VC. VCs whose
  // last attempt failed with nothing opened since are left out: they would
  // fail again, and a failed attempt has no effect.
  const std::uint32_t nv = params_.num_vcs;
  const std::uint32_t ports = num_inputs();
  const auto p0 = static_cast<std::uint32_t>(va_rr_ / nv);
  const auto v0 = static_cast<std::uint32_t>(va_rr_ % nv);
  std::size_t n = 0;
  for (std::uint32_t k = 0; k <= ports; ++k) {
    const std::uint32_t p = p0 + k < ports ? p0 + k : p0 + k - ports;
    std::uint64_t m = in_ports_[p].waiting;
    if (k == 0) {
      m = bits_from(m, v0);
    } else if (k == ports) {
      m = bits_below(m, v0);  // Back at p0: the VCs before the pointer.
    }
    while (m != 0) {
      const std::uint32_t idx = p * nv + pop_lowest(m);
      const InputVC& v = input_vcs_[idx];
      if (v.va_failed_at != 0 && v.va_failed_at == opened_sum(v.route) + 1) {
        continue;
      }
      va_order_[n++] = {idx, 0};
    }
  }
  // With prioritization enabled, high-priority (injecting) packets get the
  // first pass at output-VC allocation — part of transferring them out of
  // the "hot region" quickly (§5). Nothing in this stage changes a waiting
  // VC's effective priority, so each is read once; a VC whose priority
  // matches no pass waits, as it would under a per-pass filter.
  const std::uint32_t passes = params_.priority_levels;
  const std::span<VaEntry> order(va_order_.data(), n);
  for (VaEntry& e : order) e.key = effective_priority(input_vcs_[e.idx], now);
  for (std::uint32_t pass = 0; pass < passes; ++pass) {
    const std::uint32_t wanted = passes - 1 - pass;
    for (const VaEntry& e : order) {
      if (e.key == wanted) vc_alloc_one(e.idx, now);
    }
  }
}

void Router::vc_alloc_one(std::size_t idx, Cycle now) {
  InputVC& v = input_vcs_[idx];
  const std::uint32_t flits = v.latched_flits;
  const bool adaptive = params_.routing == RoutingAlgo::kMinAdaptive;
  // The fabric's local-port sentinel doubles as the ejection output index
  // (both are num_dirs_), so a candidate port is the output index either
  // way.
  const int eject = num_dirs_;
  // VC 0 is the escape lane: adaptive routing takes it only via the
  // fallback below.
  const auto first_vc = [&](int out) -> std::uint32_t {
    return (adaptive && out != eject) ? 1 : 0;
  };

  // Candidate ports with a free VC the packet may take, most summed free
  // space first. The insertion sort is stable, so ties keep `minimal`
  // order (X before Y on meshes). Ports without a free VC could never be
  // granted; dropping them first leaves the others in the order a sort of
  // the full list would.
  struct Candidate {
    int port;
    std::uint32_t space;
    std::uint64_t free;  ///< Free VCs the packet may take.
  };
  std::array<Candidate, PortList::kCapacity> cand;  // [0, n) written first.
  std::size_t n = 0;
  const bool rank = v.route.minimal.size() > 1;
  for (const int out : v.route.minimal) {
    const std::uint64_t free = bits_from(
        out_ports_[static_cast<std::size_t>(out)].free_vcs, first_vc(out));
    if (free == 0) continue;
    const Candidate c{out, rank ? port_free_space(out) : 0, free};
    std::size_t j = n++;
    for (; j > 0 && cand[j - 1].space < c.space; --j) cand[j] = cand[j - 1];
    cand[j] = c;
  }

  int got_port = -1, got_vc = -1;
  for (const Candidate& c : std::span(cand.data(), n)) {
    got_vc = first_admitting_vc(c.port, c.free, flits);
    if (got_vc != -1) {
      got_port = c.port;
      break;
    }
  }
  if (got_port == -1 && adaptive && v.route.xy != eject) {
    // Escape fallback: VC0 along the deadlock-free escape port (the XY
    // direction on meshes; any table port is deadlock-free on any VC).
    got_vc = first_admitting_vc(
        v.route.xy,
        out_ports_[static_cast<std::size_t>(v.route.xy)].free_vcs & 1u, flits);
    if (got_vc != -1) got_port = v.route.xy;
  }
  if (got_port == -1) {
    v.va_failed_at = opened_sum(v.route) + 1;
    return;
  }

  const PacketId id = v.buf.front().pkt;
  ovc(got_port, got_vc).owner = id;
  out_ports_[static_cast<std::size_t>(got_port)].free_vcs &=
      ~bit(static_cast<std::uint32_t>(got_vc));
  v.out_port = got_port;
  v.out_vc = got_vc;
  v.state = InputVC::State::kActive;
  InputPort& in = in_ports_[idx / params_.num_vcs];
  const std::uint64_t b = bit(static_cast<std::uint32_t>(idx % params_.num_vcs));
  in.waiting &= ~b;
  in.active |= b;
  --num_waiting_;
  if (sink_) {
    sink_->vc_alloc(id, arena_->at(id).type, params_.node, got_port, got_vc,
                    now);
  }
}

void Router::switch_stage(Cycle now, std::vector<OutboundFlit>* out_flits,
                          std::vector<OutboundCredit>* out_credits) {
  // ---- Input arbitration: each port nominates active VCs holding a flit,
  // in round-robin order from input_rr_, at most one per output port.
  // Normal input ports hold one switch port; injection ports hold S of them
  // (§4.2). ----
  const std::uint32_t nv = params_.num_vcs;
  const std::uint32_t ni = num_inputs();
  std::uint64_t requested = 0;  // Output ports with at least one request.
  for (std::uint32_t p = 0; p < ni; ++p) {
    const std::uint64_t ready = in_ports_[p].active & in_ports_[p].occupied;
    if (ready == 0) continue;
    const std::uint32_t budget =
        is_injection_port(static_cast<int>(p)) ? params_.injection_speedup : 1;
    std::uint32_t used = 0;
    std::uint64_t port_taken = 0;
    for (std::uint64_t m :
         {bits_from(ready, input_rr_), bits_below(ready, input_rr_)}) {
      while (m != 0 && used < budget) {
        const std::uint32_t vc = pop_lowest(m);
        InputVC& v = ivc(static_cast<int>(p), static_cast<int>(vc));
        if (!output_ready_for_flit(v.out_port, v.out_vc)) continue;
        const auto o = static_cast<std::uint32_t>(v.out_port);
        if ((port_taken >> o) & 1u) continue;
        port_taken |= bit(o);
        ++used;
        sw_req_[static_cast<std::size_t>(o) * ni +
                out_ports_[o].num_requests++] = {p * nv + vc,
                                                 effective_priority(v, now)};
        requested |= bit(o);
      }
    }
  }

  // ---- Output arbitration + switch traversal, in ascending output order.
  while (requested != 0) {
    const std::uint32_t o = pop_lowest(requested);
    OutputPort& out_port = out_ports_[o];
    const int winner = out_port.arb.pick(std::span<const ArbRequest>(
        &sw_req_[static_cast<std::size_t>(o) * ni], out_port.num_requests));
    out_port.num_requests = 0;
    const auto p = static_cast<std::uint32_t>(winner) / nv;
    const auto vc = static_cast<std::uint32_t>(winner) % nv;
    InputVC& v = ivc(static_cast<int>(p), static_cast<int>(vc));
    Flit f = v.buf.pop();
    InputPort& in = in_ports_[p];
    if (v.buf.empty()) in.occupied &= ~bit(vc);
    --buffered_total_;
    ++crossbar_count_;
    v.wait_since = now;

    if (static_cast<int>(o) == num_dirs_) {
      assert(!ejection_buf_.full());
      ejection_buf_.push(f);
      if (sink_ && f.head) sink_->eject_start(f.pkt, params_.node, now);
      ++ejected_flit_count_;
      ++out_flit_count_[static_cast<std::size_t>(num_dirs_)];
    } else {
      OutputVC& out = ovc(static_cast<int>(o), v.out_vc);
      assert(out.credits >= 1);
      --out.credits;
      out_flits->push_back({static_cast<int>(o), v.out_vc, f});
      ++out_flit_count_[o];
    }
    // Return a credit upstream for direction inputs; injection buffers are
    // observed directly by the same-tile NI, which may be waiting for one.
    if (!is_injection_port(static_cast<int>(p))) {
      out_credits->push_back({static_cast<int>(p), static_cast<int>(vc)});
    } else if (ni_waiting_) {
      ni_waiting_ = false;
      if (ni_set_) ni_set_->wake(ni_idx_);
    }
    if (f.tail) {
      ovc(static_cast<int>(o), v.out_vc).owner = kInvalidPacket;
      out_port.free_vcs |= bit(static_cast<std::uint32_t>(v.out_vc));
      ++out_port.opened;
      v.state = InputVC::State::kIdle;
      in.active &= ~bit(vc);
      v.out_port = -1;
      v.out_vc = -1;
    }
  }
}

bool Router::step(Cycle now, std::vector<OutboundFlit>* out_flits,
                  std::vector<OutboundCredit>* out_credits) {
  // Activity catch-up: a step of an empty or blocked router (one whose last
  // step made no progress, with no wake edge since) mutates exactly one
  // thing — the fairness pointers rotate once (va_rr_ and input_rr_; the
  // priority arbiters are not consulted without a request, and VC
  // allocation skips every waiting VC because `opened` has not moved).
  // Replaying those rotations for the slept span makes sleeping
  // bit-identical to always-on stepping. In always-on mode the gap is
  // always zero.
  ++steps_;
  if (now > next_cycle_) {
    const Cycle gap = now - next_cycle_;
    va_rr_ = static_cast<std::size_t>((va_rr_ + gap) % input_vcs_.size());
    input_rr_ = static_cast<std::uint32_t>((input_rr_ + gap) % params_.num_vcs);
  }
  next_cycle_ = now + 1;
  // Without a buffered flit no VC can route, wait or request the switch.
  // A grant lowers num_waiting_ and a switch traversal bumps
  // crossbar_count_; neither changes otherwise within a step.
  bool progressed = false;
  if (buffered_total_ > 0) {
    route_stage(now);
    const std::size_t waiting = num_waiting_;
    const std::uint64_t crossed = crossbar_count_;
    vc_alloc_stage(now);
    switch_stage(now, out_flits, out_credits);
    progressed = num_waiting_ != waiting || crossbar_count_ != crossed;
  }
  if (++va_rr_ == input_vcs_.size()) va_rr_ = 0;
  if (++input_rr_ == params_.num_vcs) input_rr_ = 0;
  return progressed;
}

}  // namespace arinoc
