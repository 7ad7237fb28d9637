// Unit + property tests: paged allocator, block tables, index builders.
#include <gtest/gtest.h>

#include <numeric>

#include "common/thread_pool.h"
#include "kvcache/allocator.h"
#include "kvcache/block_table.h"
#include "kvcache/index_builder.h"

namespace hetis::kvcache {
namespace {

// --- BlockAllocator ---

TEST(Allocator, CapacityMath) {
  BlockAllocator a(1000, 100);
  EXPECT_EQ(a.total_blocks(), 10u);
  EXPECT_EQ(a.free_blocks_count(), 10u);
  EXPECT_EQ(a.capacity(), 1000);
  EXPECT_EQ(a.block_bytes(), 100);
}

TEST(Allocator, AllocateFreeRoundTrip) {
  BlockAllocator a(1000, 100);
  auto b = a.allocate();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a.used_blocks(), 1u);
  a.free_block(*b);
  EXPECT_EQ(a.used_blocks(), 0u);
}

TEST(Allocator, AscendingIdOrder) {
  BlockAllocator a(400, 100);
  EXPECT_EQ(*a.allocate(), 0);
  EXPECT_EQ(*a.allocate(), 1);
  EXPECT_EQ(*a.allocate(), 2);
}

TEST(Allocator, ExhaustionReturnsNullopt) {
  BlockAllocator a(200, 100);
  EXPECT_TRUE(a.allocate().has_value());
  EXPECT_TRUE(a.allocate().has_value());
  EXPECT_FALSE(a.allocate().has_value());
}

TEST(Allocator, AllocateNAllOrNothing) {
  BlockAllocator a(300, 100);
  auto blocks = a.allocate_n(4);  // more than capacity
  EXPECT_TRUE(blocks.empty());
  EXPECT_EQ(a.used_blocks(), 0u);  // nothing leaked
  blocks = a.allocate_n(3);
  EXPECT_EQ(blocks.size(), 3u);
}

TEST(Allocator, DoubleFreeDetected) {
  BlockAllocator a(200, 100);
  BlockId b = *a.allocate();
  a.free_block(b);
  EXPECT_THROW(a.free_block(b), std::logic_error);
}

TEST(Allocator, ForeignFreeDetected) {
  BlockAllocator a(200, 100);
  EXPECT_THROW(a.free_block(99), std::out_of_range);
  EXPECT_THROW(a.free_block(-1), std::out_of_range);
}

TEST(Allocator, BadConstruction) {
  EXPECT_THROW(BlockAllocator(100, 0), std::invalid_argument);
  EXPECT_THROW(BlockAllocator(-5, 10), std::invalid_argument);
}

TEST(Allocator, UtilizationFraction) {
  BlockAllocator a(1000, 100);
  a.allocate_n(5);
  EXPECT_DOUBLE_EQ(a.utilization(), 0.5);
}

// --- TokenBlockTable ---

TEST(TokenTable, AddAndSlotLookup) {
  BlockAllocator a(16 * 1024, 16);  // 1024 blocks of 16 "token slots"
  TokenBlockTable t(a, 16);
  ASSERT_TRUE(t.add_sequence(7, 40));
  EXPECT_EQ(t.length(7), 40);
  EXPECT_EQ(t.blocks(7).size(), 3u);  // ceil(40/16)
  // Slot = block_id * 16 + offset.
  EXPECT_EQ(t.slot(7, 0), static_cast<std::int64_t>(t.blocks(7)[0]) * 16);
  EXPECT_EQ(t.slot(7, 17), static_cast<std::int64_t>(t.blocks(7)[1]) * 16 + 1);
}

TEST(TokenTable, AppendCrossesBlockBoundary) {
  BlockAllocator a(16 * 64, 16);
  TokenBlockTable t(a, 16);
  ASSERT_TRUE(t.add_sequence(1, 16));
  EXPECT_EQ(t.blocks(1).size(), 1u);
  ASSERT_TRUE(t.append_token(1));
  EXPECT_EQ(t.blocks(1).size(), 2u);
  EXPECT_EQ(t.length(1), 17);
}

TEST(TokenTable, RemoveFreesBlocks) {
  BlockAllocator a(16 * 8, 16);
  TokenBlockTable t(a, 16);
  ASSERT_TRUE(t.add_sequence(1, 100));
  std::size_t used = a.used_blocks();
  EXPECT_GT(used, 0u);
  t.remove_sequence(1);
  EXPECT_EQ(a.used_blocks(), 0u);
  EXPECT_FALSE(t.contains(1));
}

TEST(TokenTable, OutOfMemoryAddFails) {
  BlockAllocator a(16 * 2, 16);  // 2 blocks = 32 tokens
  TokenBlockTable t(a, 16);
  EXPECT_FALSE(t.add_sequence(1, 100));
  EXPECT_EQ(a.used_blocks(), 0u);
}

TEST(TokenTable, Errors) {
  BlockAllocator a(16 * 8, 16);
  TokenBlockTable t(a, 16);
  ASSERT_TRUE(t.add_sequence(1, 10));
  EXPECT_THROW(t.add_sequence(1, 5), std::logic_error);  // duplicate
  EXPECT_THROW(t.length(2), std::out_of_range);
  EXPECT_THROW(t.slot(1, 10), std::out_of_range);  // past end
  EXPECT_THROW(t.slot(1, -1), std::out_of_range);
}

// --- HeadBlockTable ---

TEST(HeadTable, GroupsAreIndependent) {
  BlockAllocator a(16 * 1024, 16);
  HeadBlockTable t(a, 16);
  ASSERT_TRUE(t.add_groups(1, {0, 2, 5}, 20));
  EXPECT_EQ(t.groups_of(1), (std::vector<int>{0, 2, 5}));
  EXPECT_TRUE(t.has_group(1, 2));
  EXPECT_FALSE(t.has_group(1, 1));
  EXPECT_EQ(t.length(1), 20);
  // Each group has its own blocks.
  EXPECT_NE(t.slot(1, 0, 3), t.slot(1, 2, 3));
}

TEST(HeadTable, AppendGrowsEveryGroup) {
  BlockAllocator a(16 * 1024, 16);
  HeadBlockTable t(a, 16);
  ASSERT_TRUE(t.add_groups(1, {0, 1}, 16));
  std::size_t before = a.used_blocks();
  ASSERT_TRUE(t.append_token(1));  // crosses boundary for both groups
  EXPECT_EQ(a.used_blocks(), before + 2);
  EXPECT_EQ(t.length(1), 17);
}

TEST(HeadTable, AppendAllOrNothing) {
  BlockAllocator a(16 * 3, 16);  // 3 blocks only
  HeadBlockTable t(a, 16);
  ASSERT_TRUE(t.add_groups(1, {0, 1}, 16));  // uses 2 blocks
  // Appending needs 2 new blocks but only 1 is free.
  EXPECT_FALSE(t.append_token(1));
  EXPECT_EQ(t.length(1), 16);          // unchanged
  EXPECT_EQ(a.used_blocks(), 2u);      // no partial allocation
}

TEST(HeadTable, AddGroupsRollsBackOnOom) {
  BlockAllocator a(16 * 3, 16);
  HeadBlockTable t(a, 16);
  // 4 groups x 1 block each needed, only 3 available.
  EXPECT_FALSE(t.add_groups(1, {0, 1, 2, 3}, 10));
  EXPECT_EQ(a.used_blocks(), 0u);
  EXPECT_FALSE(t.contains(1));
}

TEST(HeadTable, RemoveGroupFreesOnlyThatShare) {
  BlockAllocator a(16 * 64, 16);
  HeadBlockTable t(a, 16);
  ASSERT_TRUE(t.add_groups(1, {0, 1, 2}, 32));  // 2 blocks each
  t.remove_group(1, 1);
  EXPECT_EQ(t.groups_of(1), (std::vector<int>{0, 2}));
  EXPECT_EQ(a.used_blocks(), 4u);
  t.remove_sequence(1);
  EXPECT_EQ(a.used_blocks(), 0u);
}

TEST(HeadTable, LengthMismatchThrows) {
  BlockAllocator a(16 * 64, 16);
  HeadBlockTable t(a, 16);
  ASSERT_TRUE(t.add_groups(1, {0}, 10));
  EXPECT_THROW(t.add_groups(1, {1}, 12), std::logic_error);
  EXPECT_THROW(t.add_groups(1, {0}, 10), std::logic_error);  // already hosted
}

TEST(HeadTable, StorageOpsCountBlocks) {
  BlockAllocator a(16 * 1024, 16);
  HeadBlockTable t(a, 16);
  ASSERT_TRUE(t.add_groups(1, {0, 1, 2, 3}, 16));  // 4 allocations
  EXPECT_EQ(t.storage_ops(), 4u);
  ASSERT_TRUE(t.append_token(1));  // 4 more
  EXPECT_EQ(t.storage_ops(), 8u);
}

// --- Index builders ---

TEST(IndexBuilder, TokenIndexMatchesSlotLookups) {
  BlockAllocator a(16 * 1024, 16);
  TokenBlockTable t(a, 16);
  ASSERT_TRUE(t.add_sequence(1, 37));
  ASSERT_TRUE(t.add_sequence(2, 5));
  std::vector<GatherItem> items{{1, 0, 37}, {2, 0, 5}};
  GatherPlan plan = build_token_index(t, items);
  ASSERT_EQ(plan.num_items(), 2u);
  ASSERT_EQ(plan.slots.size(), 42u);
  for (std::int64_t pos = 0; pos < 37; ++pos) {
    EXPECT_EQ(plan.slots[static_cast<std::size_t>(pos)], t.slot(1, pos));
  }
  for (std::int64_t pos = 0; pos < 5; ++pos) {
    EXPECT_EQ(plan.slots[plan.item_offsets[1] + static_cast<std::size_t>(pos)], t.slot(2, pos));
  }
}

class IndexParallelism : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IndexParallelism, SerialAndParallelAgree) {
  auto [n_seqs, threads] = GetParam();
  BlockAllocator a(64ll * MiB, 16);
  HeadBlockTable t(a, 16);
  std::vector<GatherItem> items;
  for (int s = 0; s < n_seqs; ++s) {
    std::int64_t len = 7 + 13 * s % 200;
    std::vector<int> groups{0, 1, 2};
    ASSERT_TRUE(t.add_groups(s, groups, len));
    for (int g : groups) items.push_back(GatherItem{s, g, len});
  }
  GatherPlan serial = build_head_index_serial(t, items);
  ThreadPool pool(static_cast<std::size_t>(threads));
  GatherPlan parallel = build_head_index_parallel(t, items, pool);
  EXPECT_EQ(serial.item_offsets, parallel.item_offsets);
  EXPECT_EQ(serial.slots, parallel.slots);
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexParallelism,
                         ::testing::Combine(::testing::Values(1, 4, 32, 200),
                                            ::testing::Values(1, 2, 8)));

TEST(IndexBuilder, EmptyItems) {
  BlockAllocator a(16 * 64, 16);
  HeadBlockTable t(a, 16);
  GatherPlan plan = build_head_index_serial(t, {});
  EXPECT_EQ(plan.num_items(), 0u);
  EXPECT_TRUE(plan.slots.empty());
}

}  // namespace
}  // namespace hetis::kvcache
