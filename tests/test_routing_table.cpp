#include "routing/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/network.hpp"

namespace flexnet {
namespace {

SimConfig graph_cfg(TopoKind kind, RoutingKind routing) {
  SimConfig cfg;
  cfg.topo_kind = kind;
  cfg.topo_nodes = 24;
  cfg.topo_degree = 3;
  cfg.topo_seed = 11;
  cfg.routing = routing;
  return cfg;
}

Network make_net(const SimConfig& cfg) {
  return Network(cfg, NetworkDeps{nullptr, make_routing(cfg),
                                 make_selection(cfg.selection)});
}

const TableRouting& tables_of(const Network& net) {
  const auto* table =
      dynamic_cast<const TableRouting*>(&net.routing_algorithm());
  EXPECT_NE(table, nullptr);
  return *table;
}

// Parsed view of a flexnet-rtable-v1 dump, for walking routes in the test
// without reaching into TableRouting internals.
struct ParsedTables {
  int nodes = 0;
  int states = 1;
  std::set<ChannelId> down;
  std::map<std::tuple<int, int, int>, std::vector<ChannelId>> route;
};

ParsedTables parse_tables(const std::string& text) {
  ParsedTables t;
  std::istringstream in(text);
  std::string word;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    if (!(ls >> word)) continue;
    if (word == "nodes") {
      ls >> t.nodes;
    } else if (word == "states") {
      ls >> t.states;
    } else if (word == "down") {
      ChannelId ch;
      ls >> ch;
      t.down.insert(ch);
    } else if (word == "route") {
      int v = 0, s = 0, dst = 0;
      ls >> v >> s >> dst;
      std::vector<ChannelId> entries;
      ChannelId ch;
      while (ls >> ch) entries.push_back(ch);
      t.route[{v, s, dst}] = std::move(entries);
    }
  }
  return t;
}

std::string dump_text(const TableRouting& table) {
  std::ostringstream out;
  table.dump(out);
  return out.str();
}

TEST(TableRouting, MinimalTablesDecreaseDistanceEverywhere) {
  const Network net(
      make_net(graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableMin)));
  const ParsedTables t = parse_tables(dump_text(tables_of(net)));
  const Topology& topo = net.topology();
  int entries = 0;
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (v == dst) continue;
      const auto it = t.route.find({v, 0, dst});
      ASSERT_NE(it, t.route.end()) << v << " -> " << dst << " has no entry";
      ASSERT_FALSE(it->second.empty());
      for (const ChannelId id : it->second) {
        const ChannelDesc& ch = topo.channel(id);
        EXPECT_EQ(ch.src, v);
        EXPECT_EQ(topo.min_distance(ch.dst, dst), topo.min_distance(v, dst) - 1);
        ++entries;
      }
    }
  }
  EXPECT_GT(entries, 0);
}

TEST(TableRouting, FullMeshRoutesAreSingleHop) {
  SimConfig cfg = graph_cfg(TopoKind::FullMesh, RoutingKind::TableMin);
  cfg.topo_nodes = 8;
  const Network net(make_net(cfg));
  const ParsedTables t = parse_tables(dump_text(tables_of(net)));
  for (NodeId v = 0; v < 8; ++v) {
    for (NodeId dst = 0; dst < 8; ++dst) {
      if (v == dst) continue;
      const auto& entries = t.route.at({v, 0, dst});
      ASSERT_EQ(entries.size(), 1u);
      EXPECT_EQ(net.topology().channel(entries[0]).dst, dst);
    }
  }
}

// Walk the tables like a header flit would: at each hop take a candidate,
// update the up/down state, and require arrival within a generous hop bound.
void expect_all_pairs_reachable(const Network& net, const ParsedTables& t) {
  const Topology& topo = net.topology();
  for (NodeId src = 0; src < topo.num_nodes(); ++src) {
    for (NodeId dst = 0; dst < topo.num_nodes(); ++dst) {
      if (src == dst) continue;
      NodeId cur = src;
      int state = 0;
      int hops = 0;
      while (cur != dst) {
        ASSERT_LE(++hops, 2 * topo.num_nodes())
            << src << " -> " << dst << " did not terminate";
        const auto it = t.route.find({cur, state, dst});
        ASSERT_NE(it, t.route.end());
        ASSERT_FALSE(it->second.empty());
        const ChannelDesc& ch = topo.channel(it->second.front());
        ASSERT_EQ(ch.src, cur);
        if (t.states > 1) state = t.down.count(ch.id) ? 1 : 0;
        cur = ch.dst;
      }
    }
  }
}

TEST(TableRouting, MinimalTablesReachAllPairs) {
  const Network net(
      make_net(graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableMin)));
  expect_all_pairs_reachable(net, parse_tables(dump_text(tables_of(net))));
}

TEST(TableRouting, UpDownTablesReachAllPairs) {
  const Network net(make_net(
      graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableUpDown)));
  const ParsedTables t = parse_tables(dump_text(tables_of(net)));
  EXPECT_EQ(t.states, 2);
  expect_all_pairs_reachable(net, t);
}

TEST(TableRouting, UpDownNeverClimbsAfterDescending) {
  const Network net(make_net(
      graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableUpDown)));
  const ParsedTables t = parse_tables(dump_text(tables_of(net)));
  // State 1 = "has taken a down channel": every candidate must be down.
  for (const auto& [key, entries] : t.route) {
    if (std::get<1>(key) != 1) continue;
    for (const ChannelId ch : entries) {
      EXPECT_TRUE(t.down.count(ch))
          << "up channel " << ch << " offered in down-only state";
    }
  }
}

TEST(TableRouting, UpDownChannelDependencyGraphIsAcyclic) {
  // The deadlock-freedom argument made executable: build the channel
  // dependency graph induced by the tables (ch1 -> ch2 iff some destination
  // routes a message arriving over ch1 onto ch2) and verify it has no cycle.
  const Network net(make_net(
      graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableUpDown)));
  const ParsedTables t = parse_tables(dump_text(tables_of(net)));
  const Topology& topo = net.topology();
  const std::size_t n = topo.channels().size();
  std::vector<std::set<ChannelId>> deps(n);
  for (const auto& [key, entries] : t.route) {
    const auto [v, s, dst] = key;
    for (const ChannelId out : entries) {
      // Which incoming channels can a message be on at (v, s)? Any channel
      // into v whose post-traversal state is s.
      for (const ChannelDesc& in : topo.channels()) {
        if (in.dst != v) continue;
        const int in_state = t.down.count(in.id) ? 1 : 0;
        if (in_state == s) deps[static_cast<std::size_t>(in.id)].insert(out);
      }
    }
  }
  // Iterative three-color DFS.
  std::vector<int> color(n, 0);  // 0 white, 1 gray, 2 black
  for (std::size_t root = 0; root < n; ++root) {
    if (color[root] != 0) continue;
    std::vector<std::pair<std::size_t, bool>> stack{{root, false}};
    while (!stack.empty()) {
      auto [v, done] = stack.back();
      stack.pop_back();
      if (done) {
        color[v] = 2;
        continue;
      }
      if (color[v] != 0) continue;  // reached earlier via a sibling
      color[v] = 1;
      stack.push_back({v, true});
      for (const ChannelId w : deps[v]) {
        const auto wi = static_cast<std::size_t>(w);
        ASSERT_NE(color[wi], 1) << "cycle through channel " << w;
        if (color[wi] == 0) stack.push_back({wi, false});
      }
    }
  }
}

TEST(TableRouting, DumpLoadRoundTripIsByteIdentical) {
  const std::string path = ::testing::TempDir() + "flexnet_tables.rt";
  SimConfig cfg = graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableUpDown);
  {
    const Network net(make_net(cfg));
    std::ofstream out(path);
    tables_of(net).dump(out);
  }
  cfg.route_table_file = path;
  const Network loaded(make_net(cfg));
  {
    const Network built(make_net(graph_cfg(TopoKind::RandomIrregular,
                                           RoutingKind::TableUpDown)));
    EXPECT_EQ(dump_text(tables_of(loaded)), dump_text(tables_of(built)));
  }
  std::filesystem::remove(path);
}

TEST(TableRouting, LoadRejectsTopologyMismatch) {
  const std::string path = ::testing::TempDir() + "flexnet_tables_mismatch.rt";
  {
    const Network net(
        make_net(graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableMin)));
    std::ofstream out(path);
    tables_of(net).dump(out);
  }
  SimConfig other = graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableMin);
  other.topo_seed = 12;  // different graph, different content hash
  other.route_table_file = path;
  EXPECT_THROW((void)make_net(other), std::runtime_error);

  SimConfig wrong_mode =
      graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableUpDown);
  wrong_mode.route_table_file = path;
  EXPECT_THROW((void)make_net(wrong_mode), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TableRouting, LoadRejectsMalformedChannelTokens) {
  // A bad token on a route line used to end the channel list silently, so
  // "route 0 0 1 2 zzz" and "route 0 0 1 2x" loaded and ran, and
  // "route 0 0 1.7 2" reported a misleading "lists no channels".
  const std::string path = ::testing::TempDir() + "flexnet_tables_bad.rt";
  SimConfig cfg = graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableMin);
  const std::string full = dump_text(tables_of(make_net(cfg)));
  const std::size_t at = full.find("\nroute ") + 1;
  const std::size_t end = full.find('\n', at);
  const std::string line = full.substr(at, end - at);
  const auto line_no =
      std::to_string(std::count(full.begin(), full.begin() + at, '\n') + 1);
  std::size_t dst_end = 5;  // "route <node> <state> <dst>": skip 3 fields
  for (int i = 0; i < 3; ++i) dst_end = line.find(' ', dst_end + 1);
  for (const std::string& bad :
       {line + " zzz", line + "x", line.substr(0, dst_end) + ".7" +
                                       line.substr(dst_end)}) {
    std::ofstream(path) << full.substr(0, at) << bad << full.substr(end);
    cfg.route_table_file = path;
    try {
      (void)make_net(cfg);
      ADD_FAILURE() << "loaded: " << bad;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(path + ":" + line_no + ": route field ", 0), 0u)
          << what;
      EXPECT_EQ(what.find("no channels"), std::string::npos) << what;
    }
  }
  std::filesystem::remove(path);
}

TEST(TableRouting, LoadRejectsTruncatedFile) {
  const std::string path = ::testing::TempDir() + "flexnet_tables_trunc.rt";
  SimConfig cfg = graph_cfg(TopoKind::RandomIrregular, RoutingKind::TableMin);
  {
    const Network net(make_net(cfg));
    const std::string full = dump_text(tables_of(net));
    std::ofstream out(path);
    out << full.substr(0, full.size() / 2);  // drop the tail route lines
  }
  cfg.route_table_file = path;
  EXPECT_THROW((void)make_net(cfg), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace flexnet
