// The incremental detection pipeline's knot search, at message granularity.
//
// KnotSearch finds the knots of the channel wait-for graph without building
// it: it reads the blocked messages straight from the live network and runs
// Tarjan over the messages' wait-for graph, a few thousand vertices where the
// CWG has one per VC.
//
// Why that is exact. Solid (ownership) arcs alone form vertex-disjoint simple
// paths — each VC has at most one owner and each message's held chain is a
// path ending at its tip (newest held VC) — so every CWG cycle contains a
// dashed arc, whose source is the tip of a blocked message with a non-empty
// request set (a "seed"). The forward closure of the seeds' tips is therefore
// out-closed and contains every knot, and it has a simple shape: a requested
// VC r is either free (no out-arcs: a sink) or owned by a message o at
// position p of o's held chain, and then the closure continues along o's
// chain from p to o's tip, and on through o's own requests when o is a seed.
// So the closure is, per reached message, the suffix of its chain from the
// lowest position any request reaches (the tip, for a seed), plus each free
// requested VC once.
//
// Collapse each reached message to one vertex, with an arc m -> o for every
// request of m owned by o. A VC cycle maps to a message cycle and back, so
// the nontrivial VC SCCs are exactly the nontrivial message SCCs S (two or
// more messages, or a message requesting its own chain), each holding, per
// member, the chain suffix from the lowest position reached by a request
// from *inside* S (positions reached only from outside are not on a cycle).
// Such a VC SCC is terminal — a knot — iff no member requests a free VC or a
// VC owned outside S; the lowest in-S position covers every in-S request, so
// no arc leaves it. Every other VC is a trivial SCC. Hence:
//   knot_vcs       = the members' in-S chain suffixes;
//   deadlock set   = S;  resource set = every VC S holds;
//   dependents     = seeds outside S requesting a VC S owns, in seed order
//                    (seeds are visited in active_messages() order);
//   closure_size   = sum of the closure suffixes + distinct free requests;
//   largest_scc    = the VC count of the largest nontrivial S, else 1.
// All of this matches the VC-level search (find_knots over the CWG, Tarjan
// over the closure) bit for bit; test_detector_equivalence checks it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/knot.hpp"
#include "core/scc.hpp"
#include "sim/types.hpp"

namespace flexnet {

class Cwg;
class Network;

/// Byproduct statistics of one knot search — the observability layer's "CWG
/// pressure" source. Pure functions of the CWG the search ran on, so two
/// searches over identical graphs (e.g. before a checkpoint and after its
/// resume) report identical values.
struct KnotSearchStats {
  std::int64_t closure_size = 0;  ///< VCs in the blocked tips' forward closure.
  std::int64_t largest_scc = 0;   ///< VC count of the closure's largest SCC.
  std::int64_t knots = 0;         ///< Knots (terminal SCCs with an edge) found.
};

class KnotSearch {
 public:
  /// Equivalent to find_knots(Cwg::from_network(net)) — same knots, same
  /// canonical order, same characterization — read from the live network.
  [[nodiscard]] std::vector<Knot> run(const Network& net);
  /// The same search over a built (e.g. hand-made) CWG.
  [[nodiscard]] std::vector<Knot> run(const Cwg& cwg);

  /// Stats recorded by the most recent run().
  [[nodiscard]] const KnotSearchStats& stats() const noexcept { return stats_; }

 private:
  /// One reached message. Seeds come first, in active-message order; owners
  /// reached only through requests follow. The spans view the searched
  /// network's (or CWG's) own vectors and are read only while run() runs.
  struct Node {
    MessageId id = kInvalidMessage;
    std::span<const VcId> held;
    std::span<const VcId> requests;  ///< Empty for non-seeds.
    int lowest = 0;         ///< Lowest held position in the closure.
    int lowest_in_scc = 0;  ///< Lowest position reached from its own SCC.
    bool escapes = false;   ///< Requests a free VC (a sink).
  };
  /// A request of nodes_[from] for the VC at held position `pos` of nodes_[to].
  struct Arc {
    int from = 0;
    int to = 0;
    int pos = 0;
  };

  template <typename View>
  std::vector<Knot> search(const View& view);
  template <typename View>
  int node_of(const View& view, MessageId id);

  std::vector<Node> nodes_;
  std::vector<Arc> arcs_;
  std::vector<VcId> free_requests_;
  /// MessageId -> node index, valid when the stamp matches this search.
  struct Slot {
    std::uint32_t stamp = 0;
    int node = 0;
  };
  std::vector<Slot> slot_;
  std::uint32_t stamp_ = 0;

  Digraph graph_;  ///< The message wait-for graph over nodes_.
  SccResult scc_;
  SccScratch scc_scratch_;
  std::vector<std::uint8_t> terminal_;    ///< Per component.
  std::vector<std::uint8_t> self_loop_;   ///< Per component.
  std::vector<std::int64_t> scc_vcs_;     ///< Per component: in-SCC VC count.
  std::vector<int> knot_of_;              ///< Per component, then per node.
  std::vector<int> last_dependent_;       ///< Per knot: last seed pushed.
  KnotSearchStats stats_;
};

}  // namespace flexnet
