// Arbitrary-fabric subsystem (src/topo): topology-file parser error paths,
// the mesh-as-topology-file bit-identity guard, end-to-end completion of
// the generated fabrics under every scheme, up*/down* routing-table
// properties, generator shape invariants, the `geometry mesh` cross-check
// rejection paths, and the file-fabric cache-key contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "core/gpgpu_sim.hpp"
#include "exec/result_cache.hpp"
#include "exec/runner.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
#include "topo/fabric.hpp"
#include "topo/file.hpp"
#include "topo/generators.hpp"
#include "topo/graph.hpp"
#include "topo/table.hpp"
#include "workloads/benchmark.hpp"

namespace arinoc {
namespace {

// ---------------------------------------------------------------------------
// Parser error paths: every malformed file fails fast with a message that
// names the problem, before any simulation state exists.
// ---------------------------------------------------------------------------

std::string parse_error(const std::string& text) {
  std::istringstream in(text);
  try {
    topo::parse_topology(in, "test.topo");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(TopologyParser, AcceptsMinimalValidGraph) {
  std::istringstream in(
      "topology custom\n"
      "node 0 cc\n"
      "node 1 mc\n"
      "link 0.0 1.0\n"
      "link 1.0 0.0\n");
  const topo::FabricGraph g = topo::parse_topology(in, "ok.topo");
  EXPECT_EQ(g.kind, "custom");
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.links.size(), 2u);
  EXPECT_EQ(g.count_role(topo::NodeRole::kMC), 1u);
}

TEST(TopologyParser, RejectsUnknownRole) {
  const std::string err = parse_error(
      "topology t\n"
      "node 0 cc\n"
      "node 1 dram\n"
      "link 0.0 1.0\n"
      "link 1.0 0.0\n");
  EXPECT_TRUE(contains(err, "unknown node role 'dram'")) << err;
  EXPECT_TRUE(contains(err, "test.topo:3:")) << err;  // Line-anchored.
}

TEST(TopologyParser, RejectsDanglingLinkEndpoint) {
  const std::string err = parse_error(
      "topology t\n"
      "node 0 cc\n"
      "node 1 mc\n"
      "link 0.0 1.0\n"
      "link 1.0 0.0\n"
      "link 0.1 7.0\n"
      "link 7.0 0.1\n");
  EXPECT_TRUE(contains(err, "dangling link endpoint")) << err;
  EXPECT_TRUE(contains(err, "7")) << err;
}

TEST(TopologyParser, RejectsAsymmetricLink) {
  const std::string err = parse_error(
      "topology t\n"
      "node 0 cc\n"
      "node 1 mc\n"
      "link 0.0 1.0\n");  // No mirror 1.0 -> 0.0.
  EXPECT_TRUE(contains(err, "asymmetric link")) << err;
  EXPECT_TRUE(contains(err, "no mirror link")) << err;
}

TEST(TopologyParser, RejectsAsymmetricLinkAttributes) {
  const std::string err = parse_error(
      "topology t\n"
      "node 0 cc\n"
      "node 1 mc\n"
      "link 0.0 1.0 extra=3\n"
      "link 1.0 0.0 extra=5\n");
  EXPECT_TRUE(contains(err, "asymmetric link")) << err;
  EXPECT_TRUE(contains(err, "attributes differ")) << err;
}

TEST(TopologyParser, RejectsZeroWidthLink) {
  const std::string err = parse_error(
      "topology t\n"
      "node 0 cc\n"
      "node 1 mc\n"
      "link 0.0 1.0 width=0\n"
      "link 1.0 0.0 width=0\n");
  EXPECT_TRUE(contains(err, "zero-width link")) << err;
}

TEST(TopologyParser, RejectsDuplicateNodeId) {
  const std::string err = parse_error(
      "topology t\n"
      "node 0 cc\n"
      "node 0 mc\n");
  EXPECT_TRUE(contains(err, "duplicate node id 0")) << err;
}

TEST(TopologyParser, RejectsSparseNodeIds) {
  const std::string err = parse_error(
      "topology t\n"
      "node 0 cc\n"
      "node 2 mc\n"
      "link 0.0 2.0\n"
      "link 2.0 0.0\n");
  EXPECT_TRUE(contains(err, "dense 0..N-1")) << err;
}

TEST(TopologyParser, RejectsUnknownDirective) {
  const std::string err = parse_error("wormhole yes\n");
  EXPECT_TRUE(contains(err, "unknown directive 'wormhole'")) << err;
}

TEST(TopologyParser, RejectsDisconnectedGraph) {
  const std::string err = parse_error(
      "topology t\n"
      "node 0 cc\n"
      "node 1 mc\n"
      "node 2 cc\n"
      "node 3 mc\n"
      "link 0.0 1.0\n"
      "link 1.0 0.0\n"
      "link 2.0 3.0\n"
      "link 3.0 2.0\n");
  EXPECT_TRUE(contains(err, "invalid topology")) << err;
}

TEST(TopologyParser, UnreadableFileFailsFast) {
  try {
    topo::parse_topology_file(::testing::TempDir() + "nope-does-not-exist");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(contains(e.what(), "cannot read topology file"));
  }
}

TEST(TopologyParser, EmitParseRoundTripPreservesGraph) {
  const topo::FabricGraph g =
      topo::make_torus_graph(4, 4, 4, McPlacement::kDiamond);
  std::istringstream in(topo::emit_topology(g));
  const topo::FabricGraph back = topo::parse_topology(in, "rt.topo");
  EXPECT_EQ(back.kind, g.kind);
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.links.size(), g.links.size());
  EXPECT_EQ(back.count_role(topo::NodeRole::kMC),
            g.count_role(topo::NodeRole::kMC));
  // The round-tripped graph must compile into a working fabric.
  topo::Fabric f(back);
  EXPECT_EQ(f.nodes(), g.num_nodes());
}

// ---------------------------------------------------------------------------
// A mesh written out as a topology file and reloaded must be bit-identical
// to the generated mesh fabric — metrics, packet trace, and telemetry
// series are byte-compared across all four headline schemes.
// ---------------------------------------------------------------------------

struct RunArtifacts {
  std::string metrics;
  std::string trace;
  std::string telemetry;
};

Config identity_config() {
  Config cfg;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_mcs = 4;
  cfg.warmup_cycles = 300;
  cfg.run_cycles = 2000;
  return cfg;
}

RunArtifacts run_artifacts(const Config& cfg) {
  GpgpuSim sim(cfg, *find_benchmark("bfs"));
  obs::PacketTracer tracer(4096);
  sim.attach_tracer(&tracer);
  sim.enable_sampling(250);
  sim.run_with_warmup();
  sim.flush_sampler();
  return {exec::serialize_metrics(sim.collect()), tracer.to_chrome_json(),
          sim.sampler()->to_jsonl()};
}

class MeshFileIdentity : public ::testing::TestWithParam<Scheme> {};

TEST_P(MeshFileIdentity, FileDrivenMeshIsBitIdenticalToNative) {
  const Config native = apply_scheme(identity_config(), GetParam());

  const std::string path = ::testing::TempDir() + "identity_mesh.topo";
  topo::write_topology_file(topo::make_fabric(native).graph(), path);

  Config from_file = native;
  from_file.fabric = "file";
  from_file.topology_file = path;

  const RunArtifacts a = run_artifacts(native);
  const RunArtifacts b = run_artifacts(from_file);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.telemetry, b.telemetry);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MeshFileIdentity,
    ::testing::Values(Scheme::kXYBaseline, Scheme::kXYARI,
                      Scheme::kAdaBaseline, Scheme::kAdaARI),
    [](const auto& info) {
      std::string n = scheme_name(info.param);
      for (char& c : n) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

// ---------------------------------------------------------------------------
// Generated fabrics complete real workloads under every headline scheme
// with the watchdog armed: no deadlock/livelock trips, replies delivered.
// ---------------------------------------------------------------------------

Config fabric_config(const std::string& fabric) {
  Config cfg;
  cfg.fabric = fabric;
  cfg.mesh_width = 4;
  cfg.mesh_height = 4;
  cfg.num_mcs = 4;
  if (fabric == "chiplet") {
    // 2x2 dies of 2x2 routers: same 16-node count, serdes on boundaries.
    cfg.mesh_width = 2;
    cfg.mesh_height = 2;
    cfg.chiplets_x = 2;
    cfg.chiplets_y = 2;
  }
  cfg.warmup_cycles = 300;
  cfg.run_cycles = 2500;
  return cfg;
}

class GeneratedFabrics
    : public ::testing::TestWithParam<std::tuple<const char*, Scheme>> {};

TEST_P(GeneratedFabrics, CompletesWorkloadWithWatchdogArmed) {
  const auto& [fabric, scheme] = GetParam();
  const Config cfg = apply_scheme(fabric_config(fabric), scheme);
  ASSERT_TRUE(cfg.watchdog_enabled);
  GpgpuSim sim(cfg, *find_benchmark("hotspot"));
  // A watchdog trip (deadlock/livelock/credit-leak) throws out of here.
  ASSERT_NO_THROW(sim.run_with_warmup());
  const Metrics m = sim.collect();
  EXPECT_GT(m.ipc, 0.0);
  EXPECT_GT(m.packets_by_type[2] + m.packets_by_type[3], 0u)
      << "no read/write replies delivered on " << fabric;
}

INSTANTIATE_TEST_SUITE_P(
    FabricBySchemes, GeneratedFabrics,
    ::testing::Combine(::testing::Values("torus", "cmesh", "chiplet"),
                       ::testing::Values(Scheme::kXYBaseline, Scheme::kXYARI,
                                         Scheme::kAdaBaseline,
                                         Scheme::kAdaARI)),
    [](const auto& info) {
      std::string n = std::string(std::get<0>(info.param)) + "_" +
                      scheme_name(std::get<1>(info.param));
      for (char& c : n) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n;
    });

// ---------------------------------------------------------------------------
// Up*/down* routing-table properties. For each generated graph:
//  * every (source, dest) pair is reachable from the injection (up) phase;
//  * the escape port is always a member of the minimal port mask;
//  * distance strictly decreases along the escape walk until delivery;
//  * no entry in the down phase ever routes over an up link (the forbidden
//    turn that makes the channel dependency graph acyclic).
// ---------------------------------------------------------------------------

void check_updown_properties(const topo::FabricGraph& g) {
  const topo::RoutingTable t(g);
  const int n = g.num_nodes();

  // (node, out port) -> (next node, arrival port) adjacency.
  std::map<std::pair<NodeId, int>, std::pair<NodeId, int>> out;
  for (const topo::GraphLink& l : g.links) {
    out[{l.src, l.src_port}] = {l.dst, l.dst_port};
  }
  const auto is_down_link = [&](NodeId src, NodeId dst) {
    return std::make_pair(t.level(dst), dst) > std::make_pair(t.level(src),
                                                              src);
  };

  for (NodeId dest = 0; dest < n; ++dest) {
    for (NodeId src = 0; src < n; ++src) {
      if (src == dest) continue;

      // Reachability from injection.
      const topo::RouteEntry& first =
          t.entry(dest, src, topo::kPhaseUp);
      ASSERT_NE(first.dist, topo::RouteEntry::kUnreachable)
          << src << " -> " << dest;
      ASSERT_NE(first.port_mask, 0u);

      // Walk the escape path; dist must strictly decrease each hop.
      NodeId at = src;
      int phase = topo::kPhaseUp;
      int steps = 0;
      while (at != dest) {
        const topo::RouteEntry& e = t.entry(dest, at, phase);
        ASSERT_GE(e.escape, 0);
        ASSERT_TRUE(e.port_mask & (1u << e.escape))
            << "escape port outside the minimal mask";
        const auto it = out.find({at, e.escape});
        ASSERT_TRUE(it != out.end()) << "escape port is unwired";
        const auto [next, in_port] = it->second;
        const int next_phase = t.phase_of(next, in_port);
        if (next != dest) {
          ASSERT_LT(t.entry(dest, next, next_phase).dist, e.dist)
              << "escape hop does not make progress";
        }
        at = next;
        phase = next_phase;
        ASSERT_LT(++steps, 4 * n) << "escape walk did not terminate";
      }
    }

    // Forbidden turn: a down-phase entry may only use down links.
    for (NodeId node = 0; node < n; ++node) {
      if (node == dest) continue;
      const topo::RouteEntry& e = t.entry(dest, node, topo::kPhaseDown);
      for (int p = 0; p < 32; ++p) {
        if (!(e.port_mask & (1u << p))) continue;
        const auto it = out.find({node, p});
        ASSERT_TRUE(it != out.end());
        EXPECT_TRUE(is_down_link(node, it->second.first))
            << "down-phase route over an up link at node " << node;
      }
    }
  }
}

TEST(RoutingTable, TorusUpDownProperties) {
  check_updown_properties(topo::make_torus_graph(4, 4, 4,
                                                 McPlacement::kDiamond));
}

TEST(RoutingTable, CmeshUpDownProperties) {
  check_updown_properties(
      topo::make_cmesh_graph(2, 2, 4, 2, McPlacement::kDiamond));
}

TEST(RoutingTable, ChipletUpDownProperties) {
  check_updown_properties(
      topo::make_chiplet_graph(2, 2, 2, 2, 4, McPlacement::kDiamond, 4));
}

// ---------------------------------------------------------------------------
// Generator shape invariants.
// ---------------------------------------------------------------------------

TEST(Generators, TorusHasDegreeFourEverywhere) {
  const topo::Fabric f(topo::make_torus_graph(4, 4, 4,
                                              McPlacement::kDiamond));
  for (NodeId n = 0; n < f.nodes(); ++n) {
    for (int p = 0; p < 4; ++p) {
      EXPECT_NE(f.neighbor(n, p), kInvalidNode)
          << "torus node " << n << " port " << p << " unwired";
    }
  }
}

TEST(Generators, CmeshLeavesHangOffPortZeroOnly) {
  const topo::Fabric f(
      topo::make_cmesh_graph(2, 2, 4, 2, McPlacement::kDiamond));
  int leaves = 0;
  for (NodeId n = 0; n < f.nodes(); ++n) {
    if (!f.is_endpoint(n)) continue;  // Hubs are pure routers.
    ++leaves;
    EXPECT_NE(f.neighbor(n, 0), kInvalidNode);
    for (int p = 1; p < f.max_ports(); ++p) {
      EXPECT_EQ(f.neighbor(n, p), kInvalidNode)
          << "cmesh leaf " << n << " has a second link on port " << p;
    }
  }
  EXPECT_EQ(leaves, 2 * 2 * 4);
}

TEST(Generators, ChipletBoundaryLinksCarrySerdesLatency) {
  const std::uint32_t serdes = 7;
  const topo::FabricGraph g =
      topo::make_chiplet_graph(2, 2, 2, 2, 4, McPlacement::kDiamond, serdes);
  int boundary = 0;
  for (const topo::GraphLink& l : g.links) {
    if (l.extra_latency != 0) {
      EXPECT_EQ(l.extra_latency, serdes);
      ++boundary;
    }
  }
  // 2x2 dies of 2x2 routers = a 4x4 global mesh; each of the two cut lines
  // severs 4 row/column pairs, each wired in both directions.
  EXPECT_EQ(boundary, 16);
  EXPECT_EQ(topo::Fabric(g).max_extra_latency(), serdes);
}

TEST(Generators, MakeFabricRejectsMcCountMismatch) {
  Config cfg = identity_config();
  const std::string path = ::testing::TempDir() + "mismatch_mesh.topo";
  topo::write_topology_file(topo::make_fabric(cfg).graph(), path);
  cfg.fabric = "file";
  cfg.topology_file = path;
  cfg.num_mcs = 5;  // File declares 4 MC nodes.
  try {
    topo::make_fabric(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(contains(e.what(), "num_mcs=5")) << e.what();
  }
}

// ---------------------------------------------------------------------------
// `geometry mesh` cross-check: a kind-mesh graph must be exactly the mesh
// its geometry line declares. One case per rejection path, each starting
// from the valid 4x4/4-MC diamond mesh (MCs at 1, 6, 8, 11; 48 directed
// links) and breaking one thing.
// ---------------------------------------------------------------------------

struct MeshMutation {
  const char* name;
  void (*mutate)(topo::FabricGraph&);
  const char* message;
};

topo::GraphLink& link_from(topo::FabricGraph& g, NodeId src, int port) {
  for (topo::GraphLink& l : g.links) {
    if (l.src == src && l.src_port == port) return l;
  }
  throw std::logic_error("no such link");
}

void add_channel(topo::FabricGraph& g, NodeId a, int ap, NodeId b, int bp) {
  g.links.push_back(topo::GraphLink{a, ap, b, bp, 0, 0});
  g.links.push_back(topo::GraphLink{b, bp, a, ap, 0, 0});
}

const MeshMutation kMeshMutations[] = {
    {"McRoleMismatch",
     [](topo::FabricGraph& g) {
       std::swap(g.roles[0], g.roles[1]);  // Same MC count, wrong node.
     },
     "MC placement mismatch at node 0: the declared geometry places an cc "
     "there but the file says mc"},
    {"RouterNode",
     [](topo::FabricGraph& g) { g.roles[0] = topo::NodeRole::kRouter; },
     "mesh geometry cannot contain rtr nodes (node 0)"},
    {"MissingLink",
     [](topo::FabricGraph& g) {
       std::erase_if(g.links, [](const topo::GraphLink& l) {
         return (l.src == 0 && l.src_port == 1) ||
                (l.src == 1 && l.src_port == 3);
       });
     },
     "missing mesh link 0.1 -> 1.3"},
    {"LinkOffMeshEdge",
     [](topo::FabricGraph& g) { add_channel(g, 0, 0, 12, 2); },
     "link 0.0 points off the mesh edge declared by the geometry"},
    {"WrongPeerPort",
     [](topo::FabricGraph& g) { link_from(g, 0, 1).dst_port = 2; },
     "link 0.1 -> 1.2 does not match the declared mesh geometry (expected "
     "1.3)"},
    {"ExtraLatency",
     [](topo::FabricGraph& g) {
       link_from(g, 0, 1).extra_latency = 3;
       link_from(g, 1, 3).extra_latency = 3;
     },
     "mesh geometry links cannot carry extra latency (link 0.1)"},
    {"ExtraLink", [](topo::FabricGraph& g) { add_channel(g, 0, 4, 5, 4); },
     "topology declares 50 directed links but the mesh geometry has 48"},
    {"NodeCount",
     [](topo::FabricGraph& g) { g.roles.push_back(topo::NodeRole::kCC); },
     "topology declares 17 nodes but geometry mesh 4x4 has 16"},
    {"MissingGeometry", [](topo::FabricGraph& g) { g.mesh_width = 0; },
     "mesh topology requires a 'geometry mesh <W> <H> <placement>' line"},
};

// Names the case in test listings (the default printer dumps raw bytes,
// pointers included).
void PrintTo(const MeshMutation& m, std::ostream* os) { *os << m.name; }

class MeshCrossCheck : public ::testing::TestWithParam<MeshMutation> {};

TEST_P(MeshCrossCheck, RejectsWithLocatedMessage) {
  topo::FabricGraph g = topo::make_mesh_graph(4, 4, 4, McPlacement::kDiamond);
  GetParam().mutate(g);
  try {
    topo::Fabric f(std::move(g));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_TRUE(contains(e.what(), GetParam().message)) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(RejectionPaths, MeshCrossCheck,
                         ::testing::ValuesIn(kMeshMutations),
                         [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Satellite 2: the result cache keys file-driven fabrics by topology-file
// *contents*, so editing the file invalidates cached results in place.
// ---------------------------------------------------------------------------

TEST(FabricCacheTag, GeneratedFabricsUseTheirKind) {
  Config cfg;
  EXPECT_EQ(exec::fabric_cache_tag(cfg), "mesh");
  cfg.fabric = "torus";
  EXPECT_EQ(exec::fabric_cache_tag(cfg), "torus");
}

TEST(FabricCacheTag, HashesTopologyFileContents) {
  const std::string path = ::testing::TempDir() + "cache_tag.topo";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "topology t\nnode 0 cc\nnode 1 mc\nlink 0.0 1.0\nlink 1.0 0.0\n";
  }
  Config cfg;
  cfg.fabric = "file";
  cfg.topology_file = path;
  const std::string tag1 = exec::fabric_cache_tag(cfg);
  EXPECT_EQ(tag1.rfind("file:", 0), 0u);

  {
    std::ofstream out(path, std::ios::app);
    out << "link 0.1 1.1\nlink 1.1 0.1\n";
  }
  const std::string tag2 = exec::fabric_cache_tag(cfg);
  EXPECT_NE(tag1, tag2) << "editing the file must change the cache tag";

  // The tag flows into distinct cache keys for otherwise-identical cells.
  EXPECT_NE(exec::cache_key_string(cfg, "s", "b", tag1),
            exec::cache_key_string(cfg, "s", "b", tag2));

  cfg.topology_file = ::testing::TempDir() + "missing_cache_tag.topo";
  EXPECT_EQ(exec::fabric_cache_tag(cfg), "file:unreadable");
}

// ---------------------------------------------------------------------------
// Satellite 3 (library half of the CLI contract): a bad topology file is a
// config error with exit status 2 — the same status arinoc_sim exits with.
// ---------------------------------------------------------------------------

TEST(FabricExec, UnreadableTopologyFileIsConfigErrorExitTwo) {
  Config base;
  base.fabric = "file";
  base.topology_file = ::testing::TempDir() + "missing_exec.topo";
  base.warmup_cycles = 10;
  base.run_cycles = 100;
  exec::ExperimentRunner runner(base);
  const auto res =
      runner.run({{"p", Scheme::kXYBaseline, "bfs", nullptr, false}});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_FALSE(res[0].ok());
  EXPECT_EQ(res[0].error_kind, "config");
  EXPECT_EQ(res[0].exit_status, 2);
  EXPECT_EQ(res[0].fabric, "file:unreadable");
  EXPECT_TRUE(contains(res[0].error, "cannot read topology file"))
      << res[0].error;
}

TEST(FabricExec, MalformedTopologyFileIsConfigErrorExitTwo) {
  const std::string path = ::testing::TempDir() + "malformed_exec.topo";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "topology t\nnode 0 cc\nnode 0 mc\n";  // Duplicate node id.
  }
  Config base;
  base.fabric = "file";
  base.topology_file = path;
  base.warmup_cycles = 10;
  base.run_cycles = 100;
  exec::ExperimentRunner runner(base);
  const auto res =
      runner.run({{"p", Scheme::kXYBaseline, "bfs", nullptr, false}});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].error_kind, "config");
  EXPECT_EQ(res[0].exit_status, 2);
  EXPECT_TRUE(contains(res[0].error, "duplicate node id")) << res[0].error;
}

TEST(FabricExec, UnsatisfiablePlacementIsConfigErrorExitTwo) {
  Config base;
  base.mesh_width = 4;
  base.mesh_height = 4;
  base.num_mcs = 10;  // Top-bottom holds at most 2 rows x 4 = 8.
  base.mc_placement = McPlacement::kTopBottom;
  base.warmup_cycles = 10;
  base.run_cycles = 100;
  exec::ExperimentRunner runner(base);
  const auto res =
      runner.run({{"p", Scheme::kXYBaseline, "bfs", nullptr, false}});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].error_kind, "config");
  EXPECT_EQ(res[0].exit_status, 2);
  EXPECT_TRUE(contains(res[0].error, "top-bottom MC placement of 10 MCs"))
      << res[0].error;
}

}  // namespace
}  // namespace arinoc
