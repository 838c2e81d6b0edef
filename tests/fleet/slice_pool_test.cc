// The slice pool's scheduling contract: idle workers sleep until a task is
// queued, pick it up without a polling interval, run unfinished tasks
// again until they finish, and Drain returns once every submitted task
// has finished. Runs in the `fleet` suite, so ThreadSanitizer sees the
// pushes, steals and sleeps race.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#include "src/fleet/slice_pool.h"

namespace rings {
namespace {

// Counts finished tasks; Await blocks until a count is reached.
class Finished {
 public:
  void Add() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++count_;
    }
    cv_.notify_all();
  }
  bool Await(int want) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(30), [&] { return count_ >= want; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_ = 0;
};

TEST(SlicePool, IdleWorkersPickUpWorkAndDrain) {
  SlicePool pool(4);
  Finished finished;
  // Every round starts with every worker asleep on an empty pool, and
  // hands the pool one task, aimed at each worker in turn, so each round
  // needs a sleeping worker to wake.
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(pool.Submit(static_cast<uint64_t>(round), [&finished] {
      finished.Add();
      return true;
    }));
    ASSERT_TRUE(finished.Await(round + 1)) << "round " << round << " was never picked up";
  }
  // A burst, then Drain: it returns only once every task has run.
  std::atomic<int> burst{0};
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(pool.Submit(static_cast<uint64_t>(i), [&burst] {
      burst.fetch_add(1);
      return true;
    }));
  }
  pool.Drain();
  EXPECT_EQ(burst.load(), 64);
  uint64_t quanta = 0;
  for (const WorkerStats& stats : pool.stats()) {
    quanta += stats.quanta;
  }
  EXPECT_EQ(quanta, static_cast<uint64_t>(kRounds + 64));
}

TEST(SlicePool, UnfinishedTasksRunAgainUntilTheyFinish) {
  constexpr int kTasks = 16;
  constexpr int kSlices = 25;
  std::atomic<int> slices[kTasks] = {};
  {
    SlicePool pool(3);
    for (int t = 0; t < kTasks; ++t) {
      ASSERT_TRUE(pool.Submit(static_cast<uint64_t>(t), [&slices, t] {
        return slices[t].fetch_add(1) + 1 == kSlices;
      }));
    }
    pool.Drain();
    uint64_t quanta = 0;
    for (const WorkerStats& stats : pool.stats()) {
      quanta += stats.quanta;
    }
    EXPECT_EQ(quanta, static_cast<uint64_t>(kTasks * kSlices));
  }
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(slices[t].load(), kSlices) << "task " << t;
  }
}

TEST(SlicePool, RefusesTasksOnceDraining) {
  SlicePool pool(2);
  pool.Drain();
  EXPECT_FALSE(pool.Submit(0, [] { return true; }));
  pool.Drain();  // idempotent
}

}  // namespace
}  // namespace rings
