// A flit: the unit of flow control. Flits carry their message id, sequence
// number and a cached tail bit (seq == length - 1, stored in what would be
// padding), so a hop decides wormhole release without reading the Message.
// MessageId and Cycle are 64-bit, so a Flit is 24 bytes.
#pragma once

#include "sim/types.hpp"

namespace flexnet {

struct Flit {
  MessageId message = kInvalidMessage;
  std::int32_t seq = 0;  ///< 0-based position within the message.
  bool tail = false;     ///< Last flit of its message (set at injection,
                         ///< derived on snapshot restore; never serialized).
  Cycle arrived = -1;    ///< Cycle the flit entered its current buffer
                         ///< (always < now() between steps).

  [[nodiscard]] constexpr bool is_head() const noexcept { return seq == 0; }
  [[nodiscard]] constexpr bool is_tail_of(std::int32_t message_length) const noexcept {
    return seq == message_length - 1;
  }
  friend constexpr bool operator==(const Flit&, const Flit&) noexcept = default;
};

static_assert(sizeof(Flit) == 24, "the tail bit must fit Flit's padding");

}  // namespace flexnet
