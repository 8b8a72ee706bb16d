// Fixed-capacity flit FIFO backing each virtual channel's edge buffer.
//
// A FlitFifo owns no memory: it is a head/count ring over `capacity`
// contiguous slots of storage someone else owns (the Network's flit arena,
// one block of buffer_depth slots per VC; DESIGN.md §3h), so a VC's buffer
// costs no allocation and its slots sit beside its neighbours'.
#pragma once

#include <cassert>

#include "sim/flit.hpp"

namespace flexnet {

class BinReader;
class BinWriter;

class FlitFifo {
 public:
  /// An empty FIFO over `slots[0, capacity)`; throws std::invalid_argument
  /// when capacity < 1. The slots must outlive the FIFO.
  FlitFifo(Flit* slots, int capacity);

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] int size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool full() const noexcept { return count_ == capacity_; }

  // The step engine's per-flit operations, inline and wrapping by compare
  // (head_ < capacity and count_ <= capacity, so one subtraction suffices).
  /// Precondition: !full().
  void push(Flit flit) noexcept {
    assert(!full());
    int tail = head_ + count_;
    if (tail >= capacity_) tail -= capacity_;
    slots_[tail] = flit;
    ++count_;
  }
  /// Precondition: !empty().
  Flit pop() noexcept {
    assert(!empty());
    const Flit flit = slots_[head_];
    if (++head_ == capacity_) head_ = 0;
    --count_;
    return flit;
  }
  /// Precondition: !empty().
  [[nodiscard]] const Flit& front() const noexcept {
    assert(!empty());
    return slots_[head_];
  }
  /// Flit at offset `i` from the front; precondition i < size().
  [[nodiscard]] const Flit& at(int i) const;
  [[nodiscard]] Flit& at(int i);

  void clear() noexcept { head_ = count_ = 0; }

  /// Snapshot hooks: the logical front-to-back flit sequence (head position
  /// is an internal detail, so a round trip is canonicalizing; the tail bit
  /// is not stored — the Network derives it from message lengths).
  /// restore() throws std::runtime_error when the stored count exceeds
  /// capacity.
  void save_state(BinWriter& out) const;
  void restore_state(BinReader& in);

 private:
  Flit* slots_;
  int capacity_;
  int head_ = 0;
  int count_ = 0;
};

}  // namespace flexnet
