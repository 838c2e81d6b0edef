#include "src/fleet/slice_pool.h"

#include <chrono>
#include <utility>

namespace rings {

SlicePool::SlicePool(int threads) {
  workers_.resize(threads < 1 ? 1 : static_cast<size_t>(threads));
  for (auto& worker : workers_) {
    worker = std::make_unique<Worker>();
  }
  for (size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->thread = std::thread([this, w] { WorkerLoop(w); });
  }
}

bool SlicePool::Submit(uint64_t hint, Task task) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      return false;
    }
    ++live_;
  }
  Push(static_cast<size_t>(hint % workers_.size()), std::move(task));
  return true;
}

void SlicePool::Drain() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

std::vector<WorkerStats> SlicePool::stats() const {
  std::vector<WorkerStats> stats;
  for (const auto& worker : workers_) {
    stats.push_back(worker->stats);
  }
  return stats;
}

void SlicePool::Push(size_t worker, Task task) {
  {
    const std::lock_guard<std::mutex> lock(workers_[worker]->mu);
    workers_[worker]->queue.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool SlicePool::Pop(size_t worker, Task* task) {
  for (size_t k = 0; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(worker + k) % workers_.size()];
    const std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.queue.empty()) {
      continue;
    }
    if (k == 0) {  // own deque: newest first
      *task = std::move(victim.queue.back());
      victim.queue.pop_back();
    } else {  // steal the oldest
      *task = std::move(victim.queue.front());
      victim.queue.pop_front();
      ++workers_[worker]->stats.steals;
    }
    return true;
  }
  return false;
}

void SlicePool::WorkerLoop(size_t worker) {
  WorkerStats& stats = workers_[worker]->stats;
  Task task;
  while (true) {
    if (!Pop(worker, &task)) {
      std::unique_lock<std::mutex> lock(mu_);
      if (draining_ && live_ == 0) {
        return;
      }
      // Bounded wait instead of a precise predicate: pushes happen under
      // per-worker locks, so a notify can slip past a worker between its
      // failed Pop and this wait; the timeout caps that stall at 1 ms.
      cv_.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }
    const auto start = std::chrono::steady_clock::now();
    const bool finished = task();
    stats.busy_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    ++stats.quanta;
    if (!finished) {
      Push(worker, std::move(task));
      continue;
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --live_;
    }
    cv_.notify_all();  // drain check: sleepers re-test the exit condition
  }
}

}  // namespace rings
