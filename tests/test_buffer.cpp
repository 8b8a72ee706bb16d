#include "sim/buffer.hpp"

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <vector>

namespace flexnet {
namespace {

Flit flit(MessageId m, std::int32_t seq) {
  Flit f;
  f.message = m;
  f.seq = seq;
  return f;
}

/// A FlitFifo views slots it does not own (the Network's flit arena); each
/// test owns its slots here, the way the arena owns every VC's block.
struct OwnedFifo {
  std::vector<Flit> slots;
  FlitFifo fifo;
  explicit OwnedFifo(int capacity)
      : slots(static_cast<std::size_t>(capacity)),
        fifo(slots.data(), capacity) {}
};

TEST(FlitFifo, StartsEmpty) {
  OwnedFifo owned(4);
  FlitFifo& fifo = owned.fifo;
  EXPECT_TRUE(fifo.empty());
  EXPECT_FALSE(fifo.full());
  EXPECT_EQ(fifo.size(), 0);
  EXPECT_EQ(fifo.capacity(), 4);
}

TEST(FlitFifo, FifoOrder) {
  OwnedFifo owned(3);
  FlitFifo& fifo = owned.fifo;
  fifo.push(flit(7, 0));
  fifo.push(flit(7, 1));
  fifo.push(flit(7, 2));
  EXPECT_TRUE(fifo.full());
  EXPECT_EQ(fifo.pop().seq, 0);
  EXPECT_EQ(fifo.pop().seq, 1);
  EXPECT_EQ(fifo.pop().seq, 2);
  EXPECT_TRUE(fifo.empty());
}

TEST(FlitFifo, RingWrapsCorrectly) {
  OwnedFifo owned(2);
  FlitFifo& fifo = owned.fifo;
  for (std::int32_t i = 0; i < 10; ++i) {
    fifo.push(flit(1, i));
    EXPECT_EQ(fifo.front().seq, i);
    EXPECT_EQ(fifo.pop().seq, i);
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(FlitFifo, InterleavedPushPopKeepsOrder) {
  OwnedFifo owned(4);
  FlitFifo& fifo = owned.fifo;
  fifo.push(flit(1, 0));
  fifo.push(flit(1, 1));
  EXPECT_EQ(fifo.pop().seq, 0);
  fifo.push(flit(1, 2));
  fifo.push(flit(1, 3));
  fifo.push(flit(1, 4));
  EXPECT_TRUE(fifo.full());
  EXPECT_EQ(fifo.pop().seq, 1);
  EXPECT_EQ(fifo.pop().seq, 2);
  EXPECT_EQ(fifo.pop().seq, 3);
  EXPECT_EQ(fifo.pop().seq, 4);
}

TEST(FlitFifo, RandomAccessAt) {
  OwnedFifo owned(3);
  FlitFifo& fifo = owned.fifo;
  fifo.push(flit(1, 5));
  fifo.push(flit(1, 6));
  EXPECT_EQ(fifo.at(0).seq, 5);
  EXPECT_EQ(fifo.at(1).seq, 6);
}

TEST(FlitFifo, ClearEmpties) {
  OwnedFifo owned(3);
  FlitFifo& fifo = owned.fifo;
  fifo.push(flit(1, 0));
  fifo.push(flit(1, 1));
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  fifo.push(flit(2, 0));
  EXPECT_EQ(fifo.front().message, 2);
}

TEST(FlitFifo, RejectsNonPositiveCapacity) {
  Flit slot;
  EXPECT_THROW(FlitFifo(&slot, 0), std::invalid_argument);
  EXPECT_THROW(FlitFifo(&slot, -1), std::invalid_argument);
}

TEST(FlitFifo, AdjacentBlocksOfOneArenaStayApart) {
  // Two FIFOs over neighbouring blocks of one array, as the Network lays out
  // consecutive VCs: wrapping one never writes into the other's slots.
  std::array<Flit, 4> arena{};
  FlitFifo a(arena.data(), 2);
  FlitFifo b(arena.data() + 2, 2);
  b.push(flit(9, 0));
  b.push(flit(9, 1));
  for (std::int32_t i = 0; i < 7; ++i) {
    a.push(flit(1, i));
    if (i > 0) {
      EXPECT_EQ(a.pop().seq, i - 1);
    }
  }
  EXPECT_TRUE(b.full());
  EXPECT_EQ(b.at(0), flit(9, 0));
  EXPECT_EQ(b.at(1), flit(9, 1));
  EXPECT_EQ(a.front().seq, 6);
}

TEST(FlitFifo, MutableAtEditsInPlace) {
  OwnedFifo owned(3);
  FlitFifo& fifo = owned.fifo;
  fifo.push(flit(4, 0));
  fifo.push(flit(4, 1));
  fifo.at(1).tail = true;
  EXPECT_FALSE(fifo.pop().tail);
  EXPECT_TRUE(fifo.front().tail);
}

TEST(Flit, LayoutIs24Bytes) {
  // The tail bit lives in the padding after seq.
  EXPECT_EQ(sizeof(Flit), 24u);
  EXPECT_FALSE(Flit{}.tail);
}

TEST(Flit, HeadTailClassification) {
  EXPECT_TRUE(flit(1, 0).is_head());
  EXPECT_FALSE(flit(1, 1).is_head());
  EXPECT_TRUE(flit(1, 31).is_tail_of(32));
  EXPECT_FALSE(flit(1, 30).is_tail_of(32));
  // A single-flit message is both head and tail.
  EXPECT_TRUE(flit(1, 0).is_head());
  EXPECT_TRUE(flit(1, 0).is_tail_of(1));
}

}  // namespace
}  // namespace flexnet
