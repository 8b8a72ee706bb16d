#include "routing/table.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "sim/network.hpp"
#include "topo/topology.hpp"
#include "util/parse.hpp"

namespace flexnet {
namespace {

constexpr std::string_view kTableMagic = "flexnet-rtable-v1";
constexpr int kInf = std::numeric_limits<int>::max() / 2;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("TableRouting: " + what);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

TableRouting::TableRouting(Mode mode, std::string table_file)
    : mode_(mode), table_file_(std::move(table_file)) {}

std::string_view TableRouting::name() const noexcept {
  return mode_ == Mode::MinimalAdaptive ? "TableMin" : "TableUpDown";
}

void TableRouting::attach(const Network& net) {
  const Topology& topo = net.topology();
  if (topo.num_nodes() > kMaxTableNodes) {
    fail("topology " + topo.name() + " has " +
         std::to_string(topo.num_nodes()) + " nodes; table routing caps at " +
         std::to_string(kMaxTableNodes));
  }
  if (table_file_.empty()) {
    build(topo);
    if (const std::string hole = missing_route(); !hole.empty()) fail(hole);
  } else {
    load(net);
  }
}

void TableRouting::build(const Topology& topo) {
  nodes_ = topo.num_nodes();
  states_ = mode_ == Mode::UpDown ? 2 : 1;
  topo_hash_ = topo.content_hash();
  down_.assign(topo.channels().size(), 0);
  std::vector<std::vector<ChannelId>> slots(
      static_cast<std::size_t>(nodes_) * static_cast<std::size_t>(states_) *
      static_cast<std::size_t>(nodes_));
  if (mode_ == Mode::MinimalAdaptive) {
    build_minimal(topo, slots);
  } else {
    build_updown(topo, slots);
  }
  pack(slots);
}

void TableRouting::build_minimal(
    const Topology& topo, std::vector<std::vector<ChannelId>>& slots) const {
  // out_channels are ascending, so each slot lists channels in id order —
  // the same canonical order the torus algorithms produce.
  for (NodeId v = 0; v < nodes_; ++v) {
    for (const ChannelId ch_id : topo.out_channels(v)) {
      const ChannelDesc& ch = topo.channel(ch_id);
      for (NodeId dst = 0; dst < nodes_; ++dst) {
        if (dst == v) continue;
        if (topo.hop_is_minimal(ch, dst)) {
          slots[slot(v, 0, dst)].push_back(ch_id);
        }
      }
    }
  }
}

void TableRouting::build_updown(const Topology& topo,
                                std::vector<std::vector<ChannelId>>& slots) {
  const auto n = static_cast<std::size_t>(nodes_);

  // BFS levels from root 0 over the undirected view of the links.
  std::vector<std::vector<NodeId>> und(n);
  for (const ChannelDesc& ch : topo.channels()) {
    und[static_cast<std::size_t>(ch.src)].push_back(ch.dst);
    und[static_cast<std::size_t>(ch.dst)].push_back(ch.src);
  }
  std::vector<int> level(n, kInf);
  std::vector<NodeId> bfs{0};
  level[0] = 0;
  for (std::size_t head = 0; head < bfs.size(); ++head) {
    const NodeId v = bfs[head];
    for (const NodeId w : und[static_cast<std::size_t>(v)]) {
      if (level[static_cast<std::size_t>(w)] != kInf) continue;
      level[static_cast<std::size_t>(w)] = level[static_cast<std::size_t>(v)] + 1;
      bfs.push_back(w);
    }
  }
  if (bfs.size() != n) fail("topology is not connected");  // defense in depth

  // Orient every channel: "up" moves to the lexicographically smaller
  // (level, id) endpoint, i.e. strictly toward the root.
  auto is_up = [&](const ChannelDesc& ch) {
    const int ls = level[static_cast<std::size_t>(ch.src)];
    const int ld = level[static_cast<std::size_t>(ch.dst)];
    return ld < ls || (ld == ls && ch.dst < ch.src);
  };
  std::vector<std::vector<ChannelId>> in_down(n);  // down channels, by head
  for (const ChannelDesc& ch : topo.channels()) {
    if (is_up(ch)) continue;
    down_[static_cast<std::size_t>(ch.id)] = 1;
    in_down[static_cast<std::size_t>(ch.dst)].push_back(ch.id);
  }

  // Nodes ascending by (level, id): an up channel's head strictly precedes
  // its tail, so a single pass in this order resolves the d0 recurrence.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const int la = level[static_cast<std::size_t>(a)];
    const int lb = level[static_cast<std::size_t>(b)];
    return la < lb || (la == lb && a < b);
  });

  std::vector<int> d1(n), d0(n);
  for (NodeId dst = 0; dst < nodes_; ++dst) {
    // d1[v]: shortest down-only path v -> dst (backward BFS over down links).
    std::fill(d1.begin(), d1.end(), kInf);
    d1[static_cast<std::size_t>(dst)] = 0;
    std::vector<NodeId> queue{dst};
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      for (const ChannelId ch_id : in_down[static_cast<std::size_t>(v)]) {
        const NodeId u = topo.channel(ch_id).src;
        if (d1[static_cast<std::size_t>(u)] != kInf) continue;
        d1[static_cast<std::size_t>(u)] = d1[static_cast<std::size_t>(v)] + 1;
        queue.push_back(u);
      }
    }
    // d0[v]: shortest legal up*/down* path v -> dst.
    for (const NodeId v : order) {
      int best = d1[static_cast<std::size_t>(v)];
      for (const ChannelId ch_id : topo.out_channels(v)) {
        if (down_[static_cast<std::size_t>(ch_id)] != 0) continue;
        const int via = d0[static_cast<std::size_t>(topo.channel(ch_id).dst)];
        if (via + 1 < best) best = via + 1;
      }
      d0[static_cast<std::size_t>(v)] = best;
    }

    for (NodeId v = 0; v < nodes_; ++v) {
      if (v == dst) continue;
      if (d0[static_cast<std::size_t>(v)] >= kInf) {
        fail("up*/down* cannot route from node " + std::to_string(v) +
             " to node " + std::to_string(dst) +
             " (needs an up path toward node 0; check link directions)");
      }
      for (const ChannelId ch_id : topo.out_channels(v)) {
        const ChannelDesc& ch = topo.channel(ch_id);
        if (down_[static_cast<std::size_t>(ch_id)] == 0) {
          if (d0[static_cast<std::size_t>(ch.dst)] + 1 ==
              d0[static_cast<std::size_t>(v)]) {
            slots[slot(v, 0, dst)].push_back(ch_id);
          }
        } else {
          if (d1[static_cast<std::size_t>(ch.dst)] + 1 ==
              d0[static_cast<std::size_t>(v)]) {
            slots[slot(v, 0, dst)].push_back(ch_id);
          }
          if (d1[static_cast<std::size_t>(v)] < kInf &&
              d1[static_cast<std::size_t>(ch.dst)] + 1 ==
                  d1[static_cast<std::size_t>(v)]) {
            slots[slot(v, 1, dst)].push_back(ch_id);
          }
        }
      }
    }
  }
}

void TableRouting::pack(const std::vector<std::vector<ChannelId>>& slots) {
  offsets_.assign(slots.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    offsets_[i] = static_cast<std::uint32_t>(total);
    total += slots[i].size();
  }
  offsets_[slots.size()] = static_cast<std::uint32_t>(total);
  entries_.clear();
  entries_.reserve(total);
  for (const auto& s : slots) entries_.insert(entries_.end(), s.begin(), s.end());
}

std::string TableRouting::missing_route() const {
  for (NodeId v = 0; v < nodes_; ++v) {
    for (NodeId dst = 0; dst < nodes_; ++dst) {
      if (v == dst) continue;
      const std::size_t s = slot(v, 0, dst);
      if (offsets_[s] == offsets_[s + 1]) {
        return "no route from node " + std::to_string(v) + " to node " +
               std::to_string(dst);
      }
    }
  }
  return {};
}

void TableRouting::candidate_channels(const Network& net, const Message& msg,
                                      NodeId here, VcId in_vc,
                                      std::vector<ChannelId>& out) const {
  // A header's routing state is carried by the channel it arrived on:
  // injection VCs (and every hop before the first down hop) keep state 0;
  // arriving on a down channel commits the message to down-only (state 1).
  int state = 0;
  if (states_ > 1) {
    const ChannelId in_ch = net.vc(in_vc).channel;
    if (static_cast<std::size_t>(in_ch) < net.num_network_channels() &&
        down_[static_cast<std::size_t>(in_ch)] != 0) {
      state = 1;
    }
  }
  const std::size_t s = slot(here, state, msg.dst);
  for (std::uint32_t i = offsets_[s]; i < offsets_[s + 1]; ++i) {
    out.push_back(entries_[i]);
  }
}

void TableRouting::dump(std::ostream& out) const {
  out << kTableMagic << '\n';
  out << "mode " << name() << '\n';
  out << "topology " << hex64(topo_hash_) << '\n';
  out << "nodes " << nodes_ << '\n';
  out << "states " << states_ << '\n';
  for (std::size_t ch = 0; ch < down_.size(); ++ch) {
    if (down_[ch] != 0) out << "down " << ch << '\n';
  }
  for (NodeId v = 0; v < nodes_; ++v) {
    for (int st = 0; st < states_; ++st) {
      for (NodeId dst = 0; dst < nodes_; ++dst) {
        const std::size_t s = slot(v, st, dst);
        if (offsets_[s] == offsets_[s + 1]) continue;
        out << "route " << v << ' ' << st << ' ' << dst;
        for (std::uint32_t i = offsets_[s]; i < offsets_[s + 1]; ++i) {
          out << ' ' << entries_[i];
        }
        out << '\n';
      }
    }
  }
}

void TableRouting::load(const Network& net) {
  std::ifstream in(table_file_);
  if (!in) fail("cannot open route table file: " + table_file_);

  const Topology& topo = net.topology();
  const auto max_channel = static_cast<long long>(topo.channels().size()) - 1;
  nodes_ = topo.num_nodes();
  states_ = mode_ == Mode::UpDown ? 2 : 1;
  topo_hash_ = topo.content_hash();
  down_.assign(topo.channels().size(), 0);
  std::vector<std::vector<ChannelId>> slots(
      static_cast<std::size_t>(nodes_) * static_cast<std::size_t>(states_) *
      static_cast<std::size_t>(nodes_));

  bool seen_mode = false, seen_hash = false, seen_nodes = false,
       seen_states = false;
  LineReader r(in, table_file_, kTableMagic);
  while (r.next()) {
    const std::string key(r.field(0));
    if (key == "mode") {
      r.expect(2, "mode <name>");
      if (r.field(1) != name()) {
        r.fail("table mode " + std::string(r.field(1)) +
               " does not match routing " + std::string(name()));
      }
      seen_mode = true;
    } else if (key == "topology") {
      r.expect(2, "topology <hex hash>");
      if (r.field(1) != hex64(topo_hash_)) {
        r.fail("table was built for a different topology (hash " +
               std::string(r.field(1)) + ", network has " + hex64(topo_hash_) +
               ")");
      }
      seen_hash = true;
    } else if (key == "nodes") {
      r.expect(2, "nodes <count>");
      const long long n = r.integer(1, 0, kMaxTableNodes);
      if (n != nodes_) {
        r.fail("table covers " + std::to_string(n) + " nodes, network has " +
               std::to_string(nodes_));
      }
      seen_nodes = true;
    } else if (key == "states") {
      r.expect(2, "states <count>");
      if (r.integer(1, 1, 2) != states_) {
        r.fail("state count does not match the routing mode");
      }
      seen_states = true;
    } else if (key == "down") {
      if (states_ < 2) r.fail("down lines are only valid for TableUpDown");
      r.expect(2, "down <channel>");
      down_[static_cast<std::size_t>(r.integer(1, 0, max_channel))] = 1;
    } else if (key == "route") {
      if (r.size() < 5) {
        r.fail("expected: route <node> <state> <dst> <channel>...");
      }
      const auto v = static_cast<NodeId>(r.integer(1, 0, nodes_ - 1));
      const auto st = static_cast<int>(r.integer(2, 0, states_ - 1));
      const auto dst = static_cast<NodeId>(r.integer(3, 0, nodes_ - 1));
      if (v == dst) r.fail("route to self");
      auto& entry = slots[slot(v, st, dst)];
      if (!entry.empty()) r.fail("duplicate route entry");
      for (std::size_t i = 4; i < r.size(); ++i) {
        const auto ch = static_cast<ChannelId>(r.integer(i, 0, max_channel));
        if (topo.channel(ch).src != v) {
          r.fail("channel " + std::to_string(ch) + " does not leave node " +
                 std::to_string(v));
        }
        entry.push_back(ch);
      }
    } else {
      r.fail("unknown directive '" + key + "'");
    }
  }
  if (!seen_mode || !seen_hash || !seen_nodes || !seen_states) {
    r.fail("missing mode/topology/nodes/states header");
  }
  pack(slots);
  if (const std::string hole = missing_route(); !hole.empty()) r.fail(hole);
}

}  // namespace flexnet
