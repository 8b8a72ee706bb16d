#include "core/incremental.hpp"

#include <algorithm>
#include <cassert>

#include "core/cwg.hpp"
#include "sim/network.hpp"

namespace flexnet {
namespace {

/// The blocked messages and VC owners of a live network.
struct NetworkView {
  const Network& net;

  template <typename F>
  void for_each_seed(F&& f) const {
    for (const MessageId id : net.active_messages()) {
      const Message& msg = net.message(id);
      if (msg.blocked && !msg.request_set.empty()) {
        f(id, std::span<const VcId>(msg.held),
          std::span<const VcId>(msg.request_set));
      }
    }
  }
  [[nodiscard]] MessageId owner(VcId vc) const { return net.vc(vc).owner; }
  [[nodiscard]] std::span<const VcId> held(MessageId id) const {
    return net.message(id).held;
  }
};

/// The same reads over a built CWG.
struct CwgView {
  const Cwg& cwg;

  template <typename F>
  void for_each_seed(F&& f) const {
    for (const CwgMessage& msg : cwg.messages()) {
      if (!msg.requests.empty()) {
        f(msg.id, std::span<const VcId>(msg.held),
          std::span<const VcId>(msg.requests));
      }
    }
  }
  [[nodiscard]] MessageId owner(VcId vc) const { return cwg.owner_of(vc); }
  [[nodiscard]] std::span<const VcId> held(MessageId id) const {
    return cwg.find_message(id)->held;
  }
};

}  // namespace

std::vector<Knot> KnotSearch::run(const Network& net) {
  return search(NetworkView{net});
}

std::vector<Knot> KnotSearch::run(const Cwg& cwg) {
  return search(CwgView{cwg});
}

template <typename View>
int KnotSearch::node_of(const View& view, MessageId id) {
  const auto at = static_cast<std::size_t>(id);
  if (at >= slot_.size()) slot_.resize(at + 1);
  Slot& slot = slot_[at];
  if (slot.stamp != stamp_) {
    slot.stamp = stamp_;
    slot.node = static_cast<int>(nodes_.size());
    Node node;
    node.id = id;
    node.held = view.held(id);
    node.lowest = static_cast<int>(node.held.size());  // none reached yet
    nodes_.push_back(node);
  }
  return slot.node;
}

template <typename View>
std::vector<Knot> KnotSearch::search(const View& view) {
  if (++stamp_ == 0) {  // wrapped: forget every stamp
    std::fill(slot_.begin(), slot_.end(), Slot{});
    stamp_ = 1;
  }
  nodes_.clear();
  arcs_.clear();
  free_requests_.clear();
  stats_ = KnotSearchStats{};

  // Seeds: the messages the CWG gives dashed arcs, with their tips seeded.
  view.for_each_seed([&](MessageId id, std::span<const VcId> held,
                         std::span<const VcId> requests) {
    const int node = node_of(view, id);
    nodes_[static_cast<std::size_t>(node)].requests = requests;
    nodes_[static_cast<std::size_t>(node)].lowest =
        static_cast<int>(held.size()) - 1;
  });
  const std::size_t seeds = nodes_.size();
  if (seeds == 0) return {};

  // Follow every request to its owner, recording how far down the owner's
  // chain the closure reaches. A free VC is a sink.
  for (std::size_t i = 0; i < seeds; ++i) {
    const std::span<const VcId> requests = nodes_[i].requests;
    for (const VcId want : requests) {
      const MessageId owner = view.owner(want);
      if (owner == kInvalidMessage) {
        free_requests_.push_back(want);
        nodes_[i].escapes = true;
        continue;
      }
      const int j = node_of(view, owner);
      Node& target = nodes_[static_cast<std::size_t>(j)];
      const auto pos = static_cast<int>(
          std::find(target.held.begin(), target.held.end(), want) -
          target.held.begin());
      assert(pos < static_cast<int>(target.held.size()));
      target.lowest = std::min(target.lowest, pos);
      arcs_.push_back(Arc{static_cast<int>(i), j, pos});
    }
  }

  std::sort(free_requests_.begin(), free_requests_.end());
  stats_.closure_size = static_cast<std::int64_t>(
      std::unique(free_requests_.begin(), free_requests_.end()) -
      free_requests_.begin());
  for (const Node& node : nodes_) {
    stats_.closure_size +=
        static_cast<std::int64_t>(node.held.size()) - node.lowest;
  }

  const auto n = static_cast<int>(nodes_.size());
  graph_.reset(n);
  for (const Arc& arc : arcs_) graph_.add_edge(arc.from, arc.to);
  strongly_connected_components(graph_, scc_, scc_scratch_);
  const auto components = static_cast<std::size_t>(scc_.num_components);
  const auto comp = [&](int v) {
    return static_cast<std::size_t>(scc_.component[static_cast<std::size_t>(v)]);
  };

  // A component is terminal when no member requests a free VC or a VC owned
  // outside it; in-component requests set each member's cycle entry point.
  terminal_.assign(components, 1);
  self_loop_.assign(components, 0);
  for (int v = 0; v < n; ++v) {
    Node& node = nodes_[static_cast<std::size_t>(v)];
    node.lowest_in_scc = static_cast<int>(node.held.size());
    if (node.escapes) terminal_[comp(v)] = 0;
  }
  for (const Arc& arc : arcs_) {
    if (comp(arc.from) != comp(arc.to)) {
      terminal_[comp(arc.from)] = 0;
      continue;
    }
    if (arc.from == arc.to) self_loop_[comp(arc.from)] = 1;
    Node& target = nodes_[static_cast<std::size_t>(arc.to)];
    target.lowest_in_scc = std::min(target.lowest_in_scc, arc.pos);
  }
  const auto nontrivial = [&](std::size_t c) {
    return scc_.size[c] >= 2 || self_loop_[c] != 0;
  };
  scc_vcs_.assign(components, 0);
  for (int v = 0; v < n; ++v) {
    if (!nontrivial(comp(v))) continue;
    const Node& node = nodes_[static_cast<std::size_t>(v)];
    scc_vcs_[comp(v)] +=
        static_cast<std::int64_t>(node.held.size()) - node.lowest_in_scc;
  }
  stats_.largest_scc = 1;  // every other closure VC is its own SCC
  for (const std::int64_t vcs : scc_vcs_) {
    stats_.largest_scc = std::max(stats_.largest_scc, vcs);
  }

  std::vector<Knot> knots;
  knot_of_.assign(components, -1);
  for (std::size_t c = 0; c < components; ++c) {
    if (terminal_[c] != 0 && nontrivial(c)) {
      knot_of_[c] = static_cast<int>(knots.size());
      knots.emplace_back();
    }
  }
  if (knots.empty()) return knots;

  for (int v = 0; v < n; ++v) {
    const int k = knot_of_[comp(v)];
    if (k < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(v)];
    Knot& knot = knots[static_cast<std::size_t>(k)];
    knot.knot_vcs.insert(knot.knot_vcs.end(),
                         node.held.begin() + node.lowest_in_scc,
                         node.held.end());
    knot.deadlock_set.push_back(node.id);
    knot.resource_set.insert(knot.resource_set.end(), node.held.begin(),
                             node.held.end());
  }
  for (Knot& knot : knots) {
    std::sort(knot.knot_vcs.begin(), knot.knot_vcs.end());
    std::sort(knot.deadlock_set.begin(), knot.deadlock_set.end());
    std::sort(knot.resource_set.begin(), knot.resource_set.end());
  }
  // Knots are disjoint, so their smallest VCs order them canonically.
  std::sort(knots.begin(), knots.end(), [](const Knot& a, const Knot& b) {
    return a.knot_vcs.front() < b.knot_vcs.front();
  });

  // Dependents: seeds outside a knot requesting a VC its deadlock set holds
  // (the resource set), each listed once per knot, in seed order.
  knot_of_.assign(nodes_.size(), -1);
  for (std::size_t k = 0; k < knots.size(); ++k) {
    for (const MessageId id : knots[k].deadlock_set) {
      knot_of_[static_cast<std::size_t>(
          slot_[static_cast<std::size_t>(id)].node)] = static_cast<int>(k);
    }
  }
  last_dependent_.assign(knots.size(), -1);
  for (const Arc& arc : arcs_) {
    const int k = knot_of_[static_cast<std::size_t>(arc.to)];
    if (k < 0 || knot_of_[static_cast<std::size_t>(arc.from)] == k ||
        last_dependent_[static_cast<std::size_t>(k)] == arc.from) {
      continue;
    }
    last_dependent_[static_cast<std::size_t>(k)] = arc.from;
    knots[static_cast<std::size_t>(k)].dependent_messages.push_back(
        nodes_[static_cast<std::size_t>(arc.from)].id);
  }
  stats_.knots = static_cast<std::int64_t>(knots.size());
  return knots;
}

}  // namespace flexnet
