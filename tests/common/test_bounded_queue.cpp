// The bounded circular queue is the buffer between a node's switch and
// its links, both on one reactor worker; these tests pin down FIFO order,
// capacity, wrap-around and the batch operations, plus a randomized run
// against std::deque as the model.
#include "common/bounded_queue.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <random>
#include <vector>

namespace iov {
namespace {

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  for (int i = 0; i < 8; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueue, CapacityEnforced) {
  BoundedQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.try_push(4));
  EXPECT_EQ(q.size(), 3u);
  q.try_pop();
  EXPECT_TRUE(q.try_push(4));
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(7));
  EXPECT_FALSE(q.try_push(8));
}

TEST(BoundedQueue, WrapAroundKeepsOrder) {
  BoundedQueue<int> q(4);
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 10; ++round) {
    while (q.try_push(next_in)) ++next_in;
    for (int i = 0; i < 2; ++i) {
      auto v = q.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, next_out++);
    }
  }
}

TEST(BoundedQueue, MoveOnlyElements) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(9)));
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 9);
}

TEST(BoundedQueue, RandomOpsMatchADequeModel) {
  // Every operation mix on a tiny ring (so it wraps constantly) behaves
  // exactly like a capacity-checked deque.
  BoundedQueue<int> q(5);
  std::deque<int> model;
  std::mt19937 rng(42);
  int next = 0;
  for (int step = 0; step < 20000; ++step) {
    switch (rng() % 4) {
      case 0: {
        const bool fits = model.size() < 5;
        ASSERT_EQ(q.try_push(next), fits);
        if (fits) model.push_back(next);
        ++next;
        break;
      }
      case 1: {
        std::vector<int> in;
        const int n = static_cast<int>(rng() % 7);
        for (int i = 0; i < n; ++i) in.push_back(next++);
        const std::size_t pushed = q.try_push_batch(in);
        ASSERT_EQ(pushed, std::min<std::size_t>(in.size(), 5 - model.size()));
        for (std::size_t i = 0; i < pushed; ++i) model.push_back(in[i]);
        break;
      }
      case 2: {
        auto v = q.try_pop();
        ASSERT_EQ(v.has_value(), !model.empty());
        if (v) {
          ASSERT_EQ(*v, model.front());
          model.pop_front();
        }
        break;
      }
      default: {
        std::vector<int> out{-1};  // batch pops append
        const std::size_t max = rng() % 7;
        const std::size_t popped = q.try_pop_batch(out, max);
        ASSERT_EQ(popped, std::min(max, model.size()));
        ASSERT_EQ(out.size(), popped + 1);
        for (std::size_t i = 0; i < popped; ++i) {
          ASSERT_EQ(out[i + 1], model.front());
          model.pop_front();
        }
        break;
      }
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_EQ(q.empty(), model.empty());
    ASSERT_EQ(q.full(), model.size() == 5);
  }
}

// --- Batch operations (DESIGN.md §8) --------------------------------------

TEST(BoundedQueueBatch, TryPopBatchDrainsInFifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.try_pop_batch(out, 4), 2u);  // appends the remainder
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.try_pop_batch(out, 4), 0u);  // empty
}

TEST(BoundedQueueBatch, FifoAcrossMixedSingleAndBatchOps) {
  BoundedQueue<int> q(16);
  std::vector<int> in{0, 1, 2};
  EXPECT_EQ(q.try_push_batch(in), 3u);
  ASSERT_TRUE(q.try_push(3));
  std::vector<int> in2{4, 5};
  EXPECT_EQ(q.try_push_batch(in2), 2u);
  EXPECT_EQ(q.try_pop().value(), 0);
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 3), 3u);
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.try_pop().value(), 4);
  EXPECT_EQ(q.try_pop().value(), 5);
}

TEST(BoundedQueueBatch, TryPushBatchStopsAtCapacity) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(0));
  std::vector<int> in{1, 2, 3, 4, 5};
  EXPECT_EQ(q.try_push_batch(in), 3u);  // only 3 slots free
  EXPECT_TRUE(q.full());
  std::vector<int> out;
  EXPECT_EQ(q.try_pop_batch(out, 10), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
}

TEST(BoundedQueueBatch, MoveOnlyElements) {
  BoundedQueue<std::unique_ptr<int>> q(4);
  std::vector<std::unique_ptr<int>> in;
  in.push_back(std::make_unique<int>(1));
  in.push_back(std::make_unique<int>(2));
  EXPECT_EQ(q.try_push_batch(in), 2u);
  std::vector<std::unique_ptr<int>> out;
  EXPECT_EQ(q.try_pop_batch(out, 4), 2u);
  EXPECT_EQ(*out[0], 1);
  EXPECT_EQ(*out[1], 2);
}

}  // namespace
}  // namespace iov
