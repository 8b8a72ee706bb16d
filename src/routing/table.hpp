// Table-based routing: per-(router, state, destination) next-channel tables
// precomputed from any Topology, so irregular and file-defined networks route
// without topology-specific code.
//
// Two table builders share the machinery:
//   MinimalAdaptive ("TableMin") — every distance-decreasing output channel
//     is a candidate. Fully adaptive and minimal, with unrestricted VC use:
//     the general-topology analogue of the paper's deadlock-prone subjects.
//   UpDown ("TableUpDown") — up*/down* routing on a BFS spanning tree rooted
//     at node 0. Channels are oriented up (toward the root, lexicographically
//     smaller (level, id)) or down; a legal path is zero or more up hops
//     followed by zero or more down hops. Since every up→up dependency moves
//     strictly toward the root and down→up transitions are forbidden, the
//     channel dependency graph is acyclic, so the relation is deadlock-free
//     on any topology regardless of adaptivity (see DESIGN.md §3f).
//
// Tables are built eagerly in attach() (end of Network construction) or
// loaded from a flexnet-rtable-v1 text file whose topology hash must match.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "routing/routing.hpp"

namespace flexnet {

class Topology;

/// Table routing materializes O(nodes^2) entries; beyond this it would stop
/// being "a few MB of tables" and a different representation is needed.
inline constexpr NodeId kMaxTableNodes = 1024;

class TableRouting final : public RoutingAlgorithm {
 public:
  enum class Mode : std::uint8_t {
    MinimalAdaptive,  ///< All minimal channels; deadlock-prone (subject).
    UpDown,           ///< up*/down* over a BFS tree; deadlock-free.
  };

  /// `table_file` empty = build tables from the network's topology in
  /// attach(); otherwise load (and validate) that flexnet-rtable-v1 file.
  explicit TableRouting(Mode mode, std::string table_file = {});

  [[nodiscard]] std::string_view name() const noexcept override;
  void attach(const Network& net) override;
  void candidate_channels(const Network& net, const Message& msg, NodeId here,
                          VcId in_vc,
                          std::vector<ChannelId>& out) const override;
  [[nodiscard]] bool deadlock_free() const noexcept override {
    return mode_ == Mode::UpDown;
  }

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] bool attached() const noexcept { return nodes_ > 0; }

  /// Writes the tables as flexnet-rtable-v1 text (the format attach() loads).
  void dump(std::ostream& out) const;

 private:
  [[nodiscard]] std::size_t slot(NodeId node, int state, NodeId dst) const {
    return (static_cast<std::size_t>(node) * static_cast<std::size_t>(states_) +
            static_cast<std::size_t>(state)) *
               static_cast<std::size_t>(nodes_) +
           static_cast<std::size_t>(dst);
  }
  void build(const Topology& topo);
  void build_minimal(const Topology& topo,
                     std::vector<std::vector<ChannelId>>& slots) const;
  void build_updown(const Topology& topo,
                    std::vector<std::vector<ChannelId>>& slots);
  void load(const Network& net);
  void pack(const std::vector<std::vector<ChannelId>>& slots);
  /// Every (node, state 0, dst != node) slot must be non-empty, or routing
  /// would strand a header; returns the first hole, or "" when there is none.
  [[nodiscard]] std::string missing_route() const;

  Mode mode_;
  std::string table_file_;

  NodeId nodes_ = 0;
  int states_ = 1;  ///< 1 (MinimalAdaptive) or 2 (UpDown: 0 = may climb, 1 = down-only).
  std::uint64_t topo_hash_ = 0;
  std::vector<std::uint32_t> offsets_;  ///< CSR over slots; size slots+1.
  std::vector<ChannelId> entries_;
  std::vector<std::uint8_t> down_;  ///< Per network channel: 1 = down (UpDown).
};

}  // namespace flexnet
