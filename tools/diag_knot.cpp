#include <cstdio>
#include "flexnet.hpp"
using namespace flexnet;
int main(int argc, char** argv) {
  ExperimentConfig cfg;
  cfg.sim.routing = argc > 1 && std::string(argv[1]) == "TFAR" ? RoutingKind::TFAR : RoutingKind::DOR;
  const auto vcs = argc > 2 ? parse_int(argv[2], 1, 64) : 3;
  const auto load = argc > 3 ? parse_finite(argv[3]) : 0.9;
  if (!vcs || !load) {
    std::fprintf(stderr, "usage: diag_knot [DOR|TFAR] [vcs] [load]\n");
    return 1;
  }
  cfg.sim.vcs = static_cast<int>(*vcs);
  cfg.traffic.load = *load;
  cfg.detector.recovery = RecoveryKind::None;  // leave the knot in place
  Simulation sim(cfg);
  Network& net = sim.network();
  // run until a quiescent knot exists
  for (int c = 0; c < 40000; ++c) {
    sim.injection().tick(net);
    net.step();
    if (net.now() % 50 != 0) continue;
    Cwg cwg = Cwg::from_network(net);
    auto knots = find_knots(cwg);
    for (auto& k : knots) {
      bool q = true;
      for (auto id : k.deadlock_set) q = q && net.message_immobile(id);
      if (!q) continue;
      std::printf("cycle %lld: knot vcs=%zu dset=%zu rset=%zu dep=%zu\n",
        (long long)net.now(), k.knot_vcs.size(), k.deadlock_set.size(),
        k.resource_set.size(), k.dependent_messages.size());
      for (VcId v : k.knot_vcs) {
        const auto& vc = net.vc(v);
        const auto& pc = net.phys(vc.channel);
        std::printf("  vc %d ch %d kind %d dim %d dir %+d src %d dst %d idx %d owner %lld buf %d/%d\n",
          v, vc.channel, (int)pc.kind, pc.dim, pc.dir, pc.src, pc.dst, vc.index,
          (long long)vc.owner, vc.buffer.size(), vc.buffer.capacity());
      }
      for (MessageId id : k.deadlock_set) {
        const auto& m = net.message(id);
        std::printf("  msg %lld src %d dst %d len %d sent %d hops %d held %zu req %zu blocked_since %lld\n",
          (long long)id, m.src, m.dst, m.length, m.flits_sent, m.hops, m.held.size(),
          m.request_set.size(), (long long)m.blocked_since);
      }
      // independent verification: freeze injection, run 5000 cycles, check no flit of dset moved
      std::vector<std::pair<MessageId,int>> before;
      for (auto id : k.deadlock_set) before.push_back({id, net.message(id).flits_delivered + net.message(id).flits_sent});
      std::vector<std::vector<VcId>> heldBefore;
      for (auto id : k.deadlock_set) heldBefore.push_back(net.message(id).held);
      for (int i = 0; i < 5000; ++i) net.step();  // no injection, no recovery
      bool moved = false;
      for (size_t i = 0; i < k.deadlock_set.size(); ++i) {
        const auto& m = net.message(k.deadlock_set[i]);
        if (m.held != heldBefore[i] || m.status != MessageStatus::InFlight) { moved = true;
          std::printf("  MOVED: msg %lld status %d held %zu->%zu\n", (long long)k.deadlock_set[i], (int)m.status, heldBefore[i].size(), m.held.size()); }
      }
      std::printf("verification: %s\n", moved ? "FALSE POSITIVE (moved)" : "TRUE DEADLOCK (frozen 5000 cycles)");
      return 0;
    }
  }
  std::printf("no quiescent knot found\n");
  return 0;
}
