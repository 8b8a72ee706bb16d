// Runtime state of physical channels and their virtual channels.
#pragma once

#include "sim/buffer.hpp"
#include "sim/types.hpp"

namespace flexnet {

/// One virtual channel. The buffer models the edge buffer at the channel's
/// downstream end; a VC is exclusively owned by one message from header
/// allocation until the tail flit leaves the buffer (free <=> buffer empty).
/// A VcState owns no heap memory (its buffer is a view into the Network's
/// flit arena) and fills exactly one cache line, so a flit hop touches one
/// line per VC it reads.
struct alignas(64) VcState {
  VcId id = kInvalidVc;
  ChannelId channel = kInvalidChannel;
  int index = 0;  ///< Position within the owning physical channel.
  /// Channel of route_out (kInvalidChannel while unrouted): cached so a hop
  /// wakes the downstream channel without reading the downstream VC. Set
  /// with route_out, cleared by release(), derived on snapshot restore.
  ChannelId out_channel = kInvalidChannel;

  MessageId owner = kInvalidMessage;
  VcId route_out = kInvalidVc;  ///< Downstream VC the owner forwards into.
  VcId route_in = kInvalidVc;   ///< Upstream VC feeding this one (kInvalidVc
                                ///< when fed directly by the source queue).
  FlitFifo buffer;

  VcState(Flit* slots, int buffer_capacity) : buffer(slots, buffer_capacity) {}

  [[nodiscard]] bool is_free() const noexcept { return owner == kInvalidMessage; }

  void release() noexcept {
    owner = kInvalidMessage;
    route_out = kInvalidVc;
    out_channel = kInvalidChannel;
    route_in = kInvalidVc;
  }
};

static_assert(sizeof(VcState) == 64, "a VcState is one cache line");

/// One physical channel with its contiguous block of VCs and the round-robin
/// pointer used to arbitrate the single flit it can transmit per cycle.
struct PhysChannel {
  ChannelId id = kInvalidChannel;
  ChannelKind kind = ChannelKind::Network;
  NodeId src = kInvalidNode;  ///< Upstream router (or node, for injection).
  NodeId dst = kInvalidNode;  ///< Downstream router (or node, for ejection).
  int dim = -1;               ///< -1 for injection/ejection channels.
  int dir = 0;
  bool is_wrap = false;

  bool faulted = false;  ///< Disabled link; never a routing candidate.

  VcId first_vc = kInvalidVc;
  int num_vcs = 0;
  int rr_cursor = 0;
};

}  // namespace flexnet
