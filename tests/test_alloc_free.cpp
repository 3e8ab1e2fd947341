// Router::step never allocates (docs/noc.md, "No allocation in step").
//
// This file replaces the global operator new/delete of the test binary with
// malloc/free plus a per-thread allocation counter, then drives one router
// on its own: packets enter through both injection ports and all four
// direction inputs (credit-checked like an upstream router would), flits
// leave to instantly-draining neighbours, and only the step() calls are
// counted. Sanitizer builds keep their own allocator and skip the check.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <new>
#include <vector>

#include "noc/packet.hpp"
#include "noc/router.hpp"
#include "topo/generators.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ARINOC_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ARINOC_COUNT_ALLOCATIONS 0
#endif
#endif
#ifndef ARINOC_COUNT_ALLOCATIONS
#define ARINOC_COUNT_ALLOCATIONS 1
#endif

namespace {
thread_local std::size_t g_allocations = 0;
}  // namespace

#if ARINOC_COUNT_ALLOCATIONS
void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace arinoc {
namespace {

/// Steps the centre router of a 3x3 mesh under load for `cycles` cycles
/// and returns the heap allocations made inside Router::step.
std::size_t allocations_in_step(const RouterParams& base, Cycle cycles) {
  const topo::Fabric mesh(topo::make_mesh_graph(3, 3, 1));
  PacketArena arena;
  RouterParams rp = base;
  rp.node = mesh.node_at(1, 1);
  Router r(rp, &mesh, &arena);
  // Upstream credits per (direction, VC), as a neighbour would hold them.
  std::array<std::array<std::uint32_t, 8>, topo::kNumDirections> credit{};
  for (int d = 0; d < topo::kNumDirections; ++d) {
    r.connect_output(d, rp.vc_depth_flits);
    credit[static_cast<std::size_t>(d)].fill(rp.vc_depth_flits);
  }
  std::vector<OutboundFlit> flits;
  std::vector<OutboundCredit> credits;
  flits.reserve(64);
  credits.reserve(64);

  std::size_t counted = 0;
  std::uint32_t next_dest = 0;
  auto make = [&](Cycle now) {
    const NodeId dest = static_cast<NodeId>(next_dest++ % 9);
    const PacketType type =
        next_dest % 3 == 0 ? PacketType::kWriteReply : PacketType::kReadReply;
    const std::uint16_t n = type == PacketType::kReadReply ? 5 : 1;
    const std::uint8_t prio = static_cast<std::uint8_t>(next_dest % 2);
    return arena.create(type, rp.node, dest, n, prio, 0, now);
  };
  for (Cycle now = 0; now < cycles; ++now) {
    // Whole packets into every injection port and direction input VC with
    // room (a direction input takes a packet only when its credits cover
    // it, the WPF rule an upstream router applies).
    for (std::uint32_t ip = 0; ip < r.num_injection_ports(); ++ip) {
      for (std::uint32_t vc = 0; vc < r.num_vcs(); ++vc) {
        if (!r.injection_vc_ready(ip, vc, 5)) continue;
        const PacketId id = make(now);
        const std::uint16_t n = arena.at(id).num_flits;
        for (std::uint16_t s = 0; s < n; ++s) {
          r.inject_flit(ip, vc, PacketArena::flit_of(id, s, n), now);
        }
      }
    }
    for (int d = 0; d < topo::kNumDirections; ++d) {
      for (std::uint32_t vc = 0; vc < r.num_vcs(); ++vc) {
        std::uint32_t& c = credit[static_cast<std::size_t>(d)][vc];
        if (c < 5 || now % 7 != static_cast<Cycle>(d)) continue;
        const PacketId id = make(now);
        const std::uint16_t n = arena.at(id).num_flits;
        for (std::uint16_t s = 0; s < n; ++s) {
          r.receive_flit(d, static_cast<int>(vc),
                         PacketArena::flit_of(id, s, n));
        }
        c -= n;
      }
    }

    flits.clear();
    credits.clear();
    const std::size_t before = g_allocations;
    r.step(now, &flits, &credits);
    counted += g_allocations - before;

    // Neighbours drain at once; the NI drains the ejection buffer.
    for (const OutboundFlit& f : flits) {
      r.receive_credit(f.out_dir, f.out_vc);
      if (f.flit.tail) arena.retire(f.flit.pkt);
    }
    for (const OutboundCredit& c : credits) {
      ++credit[static_cast<std::size_t>(c.in_dir)]
              [static_cast<std::size_t>(c.vc)];
    }
    while (r.has_ejected_flit()) {
      const Flit f = r.pop_ejected_flit();
      if (f.tail) arena.retire(f.pkt);
    }
  }
  EXPECT_GT(r.crossbar_traversals(), cycles) << "router barely moved";
  return counted;
}

TEST(RouterAllocation, StepDoesNotAllocate) {
  if (!ARINOC_COUNT_ALLOCATIONS) {
    GTEST_SKIP() << "sanitizer build: allocations are not counted";
  }
  RouterParams adaptive;
  adaptive.num_vcs = 4;
  adaptive.vc_depth_flits = 5;
  adaptive.routing = RoutingAlgo::kMinAdaptive;
  adaptive.num_injection_ports = 2;  // MultiPort
  adaptive.injection_speedup = 2;    // S > 1
  adaptive.priority_levels = 3;      // multi-pass VA + starvation override
  adaptive.starvation_threshold = 20;
  EXPECT_EQ(allocations_in_step(adaptive, 2000), 0u);

  RouterParams atomic_xy;
  atomic_xy.num_vcs = 2;
  atomic_xy.vc_depth_flits = 5;
  atomic_xy.routing = RoutingAlgo::kXY;
  atomic_xy.non_atomic_vc = false;
  EXPECT_EQ(allocations_in_step(atomic_xy, 2000), 0u);
}

TEST(RouterAllocation, CounterSeesAllocations) {
  if (!ARINOC_COUNT_ALLOCATIONS) {
    GTEST_SKIP() << "sanitizer build: allocations are not counted";
  }
  const std::size_t before = g_allocations;
  auto* v = new std::vector<int>(100);
  const std::size_t after = g_allocations;
  delete v;
  EXPECT_GE(after - before, 2u);  // The vector object and its storage.
}

}  // namespace
}  // namespace arinoc
