#include "traffic/injection.hpp"

#include <stdexcept>

#include "util/binio.hpp"

namespace flexnet {

InjectionProcess::InjectionProcess(const Network& net,
                                   const TrafficConfig& traffic,
                                   std::uint64_t seed)
    : pattern_(make_traffic(traffic.pattern, net.topology(), traffic)),
      rng_(splitmix64(seed), 0x696e6a65 /* "inje" */),
      length_(net.config().message_length),
      short_length_(net.config().short_message_length),
      short_fraction_(net.config().short_message_fraction) {
  if (traffic.load < 0.0) throw std::invalid_argument("load must be >= 0");
  avg_distance_ = average_pattern_distance(net.topology(), *pattern_, seed);
  capacity_ = net.capacity_flits_per_node(avg_distance_);
  offered_ = traffic.load * capacity_;
  mean_length_ = short_fraction_ * short_length_ +
                 (1.0 - short_fraction_) * length_;
  probability_ = offered_ / mean_length_;
  if (probability_ > 1.0) {
    throw std::invalid_argument(
        "offered load exceeds one message per node per cycle");
  }
}

std::int32_t InjectionProcess::draw_length(Pcg32& rng) const {
  if (short_fraction_ > 0.0 && rng.chance(short_fraction_)) {
    return short_length_;
  }
  return length_;
}

MessageId InjectionProcess::emit(Network& net, NodeId src, NodeId dst,
                                 std::int32_t length, MessageClass cls) {
  if (capture_ != nullptr) capture_->record(net.now(), src, dst, length, cls);
  return net.enqueue_message(src, dst, length, cls);
}

void InjectionProcess::save_state(BinWriter& out) const {
  const Pcg32::State s = rng_.save();
  out.u64(s.state);
  out.u64(s.inc);
  out.u64(s.draws);
  out.i64(stalled_);
}

void InjectionProcess::restore_state(BinReader& in, std::uint32_t version) {
  (void)version;  // the base layout is unchanged across snapshot versions
  Pcg32::State s;
  s.state = in.u64();
  s.inc = in.u64();
  s.draws = in.u64();
  rng_.restore(s);
  stalled_ = in.i64();
}

void InjectionProcess::tick(Network& net) {
  const NodeId nodes = net.topology().num_nodes();
  const int limit = net.config().source_queue_limit;
  for (NodeId src = 0; src < nodes; ++src) {
    // Skip straight to the next node whose Bernoulli trial succeeds.
    src += static_cast<NodeId>(rng_.first_success(
        probability_, static_cast<std::uint64_t>(nodes - src)));
    if (src == nodes) break;
    if (limit > 0 &&
        net.source_queue_length(src) >= static_cast<std::size_t>(limit)) {
      ++stalled_;  // source busy: offered load beyond what the node can queue
      continue;
    }
    const NodeId dst = pattern_->destination(src, rng_);
    if (dst == kInvalidNode) continue;
    emit(net, src, dst, draw_length(rng_), MessageClass::Bulk);
  }
}

}  // namespace flexnet
