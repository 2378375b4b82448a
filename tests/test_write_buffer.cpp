// Unit tests for the 4-entry write buffer.
#include "mem/write_buffer.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccsim;
using namespace ccsim::mem;

TEST(WriteBuffer, CapacityAndFifo) {
  WriteBuffer wb(4);
  EXPECT_TRUE(wb.empty());
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(wb.full());
    wb.push({kSharedBase + i * 8, 8, i});
  }
  EXPECT_TRUE(wb.full());
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(wb.front(0).value, i);
    wb.pop(0);
  }
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, ForwardsNewestExactMatch) {
  WriteBuffer wb(4);
  const Addr a = kSharedBase;
  wb.push({a, 8, 1});
  wb.push({a + 8, 8, 2});
  wb.push({a, 8, 3});  // newer write to the same word
  auto f = wb.forward(a, 8);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, 3u);
  EXPECT_FALSE(wb.forward(a + 16, 8).has_value());
}

TEST(WriteBuffer, ForwardRequiresExactSize) {
  WriteBuffer wb(4);
  wb.push({kSharedBase, 8, 42});
  EXPECT_FALSE(wb.forward(kSharedBase, 4).has_value());
  EXPECT_TRUE(wb.partially_overlaps(kSharedBase, 4));
}

TEST(WriteBuffer, PartialOverlapDetection) {
  WriteBuffer wb(4);
  wb.push({kSharedBase + 4, 4, 7});
  EXPECT_TRUE(wb.partially_overlaps(kSharedBase, 8));   // covers bytes 4..7
  EXPECT_FALSE(wb.partially_overlaps(kSharedBase, 4));  // disjoint bytes 0..3
  EXPECT_FALSE(wb.partially_overlaps(kSharedBase + 4, 4));  // exact match
}

TEST(WriteBuffer, LanesRetireInOrderIndependentlyAndShareCapacity) {
  WriteBuffer wb(4);
  wb.push({kSharedBase, 8, 1, 0});
  wb.push({kSharedBase + 64, 8, 2, 1});
  wb.push({kSharedBase + 8, 8, 3, 0});
  wb.push({kSharedBase + 72, 8, 4, 1});
  EXPECT_TRUE(wb.full());  // one capacity across lanes
  EXPECT_EQ(wb.front(1).value, 2u);  // lane 1 retires ahead of lane 0
  wb.pop(1);
  EXPECT_EQ(wb.front(1).value, 4u);
  wb.pop(1);
  EXPECT_FALSE(wb.has_lane(1));
  EXPECT_EQ(wb.front(0).value, 1u);  // lane 0 kept its program order
  wb.pop(0);
  EXPECT_EQ(wb.front(0).value, 3u);
  wb.pop(0);
  EXPECT_TRUE(wb.empty());
}

TEST(WriteBuffer, ContainsBlock) {
  WriteBuffer wb(4);
  wb.push({kSharedBase + 24, 8, 1});
  EXPECT_TRUE(wb.contains_block(block_of(kSharedBase)));
  EXPECT_FALSE(wb.contains_block(block_of(kSharedBase) + 1));
}

} // namespace
