#include "noc/router.hpp"

#include <algorithm>
#include <cassert>

#include "obs/sink.hpp"

namespace arinoc {

Router::Router(const RouterParams& params, const topo::Fabric* fabric,
               PacketArena* arena)
    : params_(params),
      fabric_(fabric),
      num_dirs_(fabric->max_ports()),
      arena_(arena),
      input_vcs_(num_inputs() * params.num_vcs),
      output_vcs_(num_outputs() * params.num_vcs),
      output_connected_(static_cast<std::size_t>(num_dirs_), false),
      output_blocked_(static_cast<std::size_t>(num_dirs_), false),
      input_connected_(static_cast<std::size_t>(num_dirs_), false),
      ejection_buf_(params.ejection_capacity_flits),
      input_rr_(num_inputs(), 0),
      output_arb_(num_outputs()),
      out_flit_count_(num_outputs(), 0) {
  for (auto& v : input_vcs_) v.buf.set_capacity(params.vc_depth_flits);
  for (std::uint32_t o = 0; o < num_outputs(); ++o) {
    output_arb_[o].resize(num_inputs() * params.num_vcs);
    for (std::uint32_t vc = 0; vc < params.num_vcs; ++vc) {
      // Ejection "credits" are handled through the shared ejection buffer.
      ovc(static_cast<int>(o), static_cast<int>(vc)).credits = 0;
    }
  }
}

void Router::connect_output(int dir, std::uint32_t downstream_depth_flits) {
  assert(dir >= 0 && dir < num_dirs_);
  output_connected_[static_cast<std::size_t>(dir)] = true;
  for (std::uint32_t vc = 0; vc < params_.num_vcs; ++vc) {
    ovc(dir, static_cast<int>(vc)).credits = downstream_depth_flits;
  }
}

void Router::connect_input(int dir) {
  assert(dir >= 0 && dir < num_dirs_);
  input_connected_[static_cast<std::size_t>(dir)] = true;
}

void Router::receive_flit(int dir, int vc, const Flit& flit) {
  InputVC& v = ivc(dir, vc);
  assert(!v.buf.full() && "credit protocol violated");
  if (v.buf.empty()) v.wait_since = 0;  // refreshed at route_stage
  v.buf.push(flit);
  ++buffered_total_;
  if (act_set_) act_set_->wake(act_idx_);
}

void Router::receive_credit(int dir, int vc) {
  OutputVC& o = ovc(dir, vc);
  ++o.credits;
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
  InputVC& v = ivc(num_dirs_ + static_cast<int>(ip), static_cast<int>(vc));
  assert(!v.buf.full() && "injection overflow");
  v.buf.push(flit);
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

Flit Router::pop_ejected_flit() { return ejection_buf_.pop(); }

void Router::reset_stats() {
  out_flit_count_.assign(num_outputs(), 0);
  injected_flit_count_ = 0;
  ejected_flit_count_ = 0;
  crossbar_count_ = 0;
}

std::uint32_t Router::output_free_space(int out_port, int out_vc) const {
  if (out_port == num_dirs_) {
    return static_cast<std::uint32_t>(ejection_buf_.free_space());
  }
  return output_vcs_[static_cast<std::size_t>(out_port) * params_.num_vcs +
                     static_cast<std::size_t>(out_vc)]
      .credits;
}

bool Router::output_vc_admits(int out_port, int vc,
                              std::uint32_t flits) const {
  const OutputVC& o =
      output_vcs_[static_cast<std::size_t>(out_port) * params_.num_vcs +
                  static_cast<std::size_t>(vc)];
  if (o.owner != kInvalidPacket) return false;
  if (out_port == num_dirs_) {
    const std::uint32_t need = std::min<std::uint32_t>(
        flits, params_.ejection_capacity_flits);
    return ejection_buf_.free_space() >= need;
  }
  if (!output_connected_[static_cast<std::size_t>(out_port)]) return false;
  if (output_blocked_[static_cast<std::size_t>(out_port)]) return false;
  if (params_.non_atomic_vc) {
    // Whole-packet forwarding: admit a new packet whenever the full packet
    // fits in the downstream free space, even if the VC is still draining.
    const std::uint32_t need =
        std::min<std::uint32_t>(flits, params_.vc_depth_flits);
    return o.credits >= need;
  }
  return o.credits == params_.vc_depth_flits;  // Atomic: must be empty.
}

bool Router::output_ready_for_flit(int out_port, int out_vc) const {
  if (out_port == num_dirs_) return !ejection_buf_.full();
  if (output_blocked_[static_cast<std::size_t>(out_port)]) return false;
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
  // Active VCs arbitrate with the priority latched at VC allocation. The
  // live arena field may already have been decremented by a downstream
  // router (the head flit runs ahead of the body); hardware would not see
  // that — priority rides in the head flit — and not reading the arena here
  // keeps switch arbitration domain-local under parallel stepping.
  if (v.state == InputVC::State::kActive) return v.latched_priority;
  return arena_->at(v.buf.front().pkt).priority;
}

void Router::route_stage(Cycle now) {
  for (std::uint32_t p = 0; p < num_inputs(); ++p) {
    for (std::uint32_t vc = 0; vc < params_.num_vcs; ++vc) {
      InputVC& v = ivc(static_cast<int>(p), static_cast<int>(vc));
      if (v.state != InputVC::State::kIdle || v.buf.empty()) continue;
      const Flit& f = v.buf.front();
      assert(f.head && "non-head flit at idle VC front");
      Packet& pkt = arena_->at(f.pkt);
      v.route = compute_route(*fabric_, params_.node, static_cast<int>(p),
                              pkt.dest, params_.routing);
      v.route_valid = true;
      v.state = InputVC::State::kWaitVC;
      v.wait_since = now;
      // §5: the RC unit decrements the priority field of every packet it
      // routes, except at the packet's own injection router where the
      // injection boost must still apply during switch allocation.
      if (!is_injection_port(static_cast<int>(p)) && pkt.priority > 0) {
        --pkt.priority;
      }
    }
  }
}

void Router::vc_alloc_stage(Cycle now) {
  // With prioritization enabled, high-priority (injecting) packets get the
  // first pass at output-VC allocation — part of transferring them out of
  // the "hot region" quickly (§5).
  const std::uint32_t passes = params_.priority_levels;
  for (std::uint32_t pass = 0; pass < passes; ++pass) {
    const std::uint32_t wanted = passes - 1 - pass;
    vc_alloc_pass(now, wanted, passes > 1);
  }
  va_rr_ = (va_rr_ + 1) % input_vcs_.size();
}

void Router::vc_alloc_pass(Cycle now, std::uint32_t wanted_priority,
                           bool filter) {
  const std::size_t total = input_vcs_.size();
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t idx = (va_rr_ + i) % total;
    InputVC& v = input_vcs_[idx];
    if (v.state != InputVC::State::kWaitVC) continue;
    if (filter && effective_priority(v, now) != wanted_priority) continue;
    const Packet& pkt = arena_->at(v.buf.front().pkt);
    const std::uint32_t flits = pkt.num_flits;

    // Candidate output ports, best-credit first for adaptive routing.
    std::vector<int> ports = v.route.minimal;
    if (ports.size() > 1) {
      std::stable_sort(ports.begin(), ports.end(), [&](int a, int b) {
        std::uint32_t ca = 0, cb = 0;
        for (std::uint32_t vc = 0; vc < params_.num_vcs; ++vc) {
          ca += output_free_space(a, static_cast<int>(vc));
          cb += output_free_space(b, static_cast<int>(vc));
        }
        return ca > cb;
      });
    }

    int got_port = -1, got_vc = -1;
    const bool adaptive = params_.routing == RoutingAlgo::kMinAdaptive;
    // The fabric's local-port sentinel doubles as the ejection output index
    // (both are num_dirs_), so `out` is the sentinel value either way.
    const int eject = num_dirs_;
    for (int port_dir : ports) {
      const int out = port_dir;
      const std::uint32_t first_vc =
          (adaptive && out != eject) ? 1 : 0;  // VC0 = escape lane.
      for (std::uint32_t vc = first_vc; vc < params_.num_vcs; ++vc) {
        if (output_vc_admits(out, static_cast<int>(vc), flits)) {
          got_port = out;
          got_vc = static_cast<int>(vc);
          break;
        }
      }
      if (got_port != -1) break;
    }
    if (got_port == -1 && adaptive && v.route.xy != eject) {
      // Escape fallback: VC0 along the deadlock-free escape port (the XY
      // direction on meshes; any table port is deadlock-free on any VC).
      if (output_vc_admits(v.route.xy, 0, flits)) {
        got_port = v.route.xy;
        got_vc = 0;
      }
    }
    if (got_port != -1) {
      ovc(got_port, got_vc).owner = v.buf.front().pkt;
      v.out_port = got_port;
      v.out_vc = got_vc;
      v.latched_priority = pkt.priority;
      v.state = InputVC::State::kActive;
      if (sink_) {
        sink_->vc_alloc(v.buf.front().pkt, pkt.type, params_.node, got_port,
                        got_vc, now);
      }
    }
  }
}

void Router::switch_stage(Cycle now, std::vector<OutboundFlit>* out_flits,
                          std::vector<OutboundCredit>* out_credits) {
  // ---- Input arbitration: each port nominates candidates. Normal input
  // ports hold one switch port; injection ports hold S of them (§4.2). ----
  struct OutputRequest {
    std::vector<bool> req;
    std::vector<std::uint32_t> key;
  };
  std::vector<OutputRequest> requests(num_outputs());
  const std::size_t slots = num_inputs() * params_.num_vcs;
  for (auto& r : requests) {
    r.req.assign(slots, false);
    r.key.assign(slots, 0);
  }

  for (std::uint32_t p = 0; p < num_inputs(); ++p) {
    const std::uint32_t budget =
        is_injection_port(static_cast<int>(p)) ? params_.injection_speedup : 1;
    std::uint32_t used = 0;
    // One bit per output port; topo::kMaxPorts (32) + ejection fits u64.
    std::uint64_t port_taken = 0;
    for (std::uint32_t k = 0; k < params_.num_vcs && used < budget; ++k) {
      const std::uint32_t vc =
          static_cast<std::uint32_t>((input_rr_[p] + k) % params_.num_vcs);
      InputVC& v = ivc(static_cast<int>(p), static_cast<int>(vc));
      if (v.state != InputVC::State::kActive || v.buf.empty()) continue;
      if (!output_ready_for_flit(v.out_port, v.out_vc)) continue;
      if ((port_taken >> v.out_port) & 1u) continue;
      port_taken |= 1ull << v.out_port;
      ++used;
      const std::size_t slot =
          static_cast<std::size_t>(p) * params_.num_vcs + vc;
      requests[static_cast<std::size_t>(v.out_port)].req[slot] = true;
      requests[static_cast<std::size_t>(v.out_port)].key[slot] =
          effective_priority(v, now);
    }
    input_rr_[p] = (input_rr_[p] + 1) % params_.num_vcs;
  }

  // ---- Output arbitration + switch traversal. ----
  for (std::uint32_t o = 0; o < num_outputs(); ++o) {
    const int winner = output_arb_[o].pick(requests[o].req, requests[o].key);
    if (winner < 0) continue;
    const int p = winner / static_cast<int>(params_.num_vcs);
    const int vc = winner % static_cast<int>(params_.num_vcs);
    InputVC& v = ivc(p, vc);
    Flit f = v.buf.pop();
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
      out_flits->push_back(
          {static_cast<int>(o), v.out_vc, f});
      ++out_flit_count_[o];
    }
    // Return a credit upstream for direction inputs; injection buffers are
    // observed directly by the same-tile NI.
    if (!is_injection_port(p)) {
      out_credits->push_back({p, vc});
    }
    if (f.tail) {
      ovc(static_cast<int>(o), v.out_vc).owner = kInvalidPacket;
      v.state = InputVC::State::kIdle;
      v.out_port = -1;
      v.out_vc = -1;
      v.route_valid = false;
    }
  }
}

void Router::step(Cycle now, std::vector<OutboundFlit>* out_flits,
                  std::vector<OutboundCredit>* out_credits) {
  // Activity catch-up: a step of an empty router mutates exactly one thing —
  // the fairness pointers rotate once (vc_alloc_stage advances va_rr_,
  // switch_stage advances every input_rr_[p]; the priority arbiters do not
  // move on an empty request vector). Replaying those rotations for the
  // slept span makes sleeping bit-identical to always-on stepping. In
  // always-on mode the gap is always zero.
  if (now > next_cycle_) {
    const Cycle gap = now - next_cycle_;
    va_rr_ = (va_rr_ + gap) % input_vcs_.size();
    for (std::size_t& rr : input_rr_) rr = (rr + gap) % params_.num_vcs;
  }
  next_cycle_ = now + 1;
  route_stage(now);
  vc_alloc_stage(now);
  switch_stage(now, out_flits, out_credits);
}

}  // namespace arinoc
