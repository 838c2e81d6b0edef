// The work-stealing slice pool: the one scheduler that time-slices hosted
// machines across host worker threads, under both the fleet engine
// (src/fleet/fleet.h) and the serving core (src/serve/server.h).
//
// A task runs one slice of work (for a machine, one Machine::Run over a
// bounded cycle budget) and reports whether it is finished. Each worker
// pops from the back of its own deque and requeues an unfinished task at
// that back; an idle worker steals from the front of a sibling's deque
// (the task its owner would touch last), scanning from the next worker
// around the ring, and sleeps at most 1 ms when there is nothing to steal.
// Which worker runs a slice is host scheduling only: callers keep every
// simulated result a function of the task's own slice sequence.
#ifndef SRC_FLEET_SLICE_POOL_H_
#define SRC_FLEET_SLICE_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rings {

// Per-worker host utilization of a slice pool.
struct WorkerStats {
  double busy_seconds = 0;  // time spent inside slices (incl. machine construction)
  uint64_t quanta = 0;      // slices run
  uint64_t steals = 0;      // slices taken from another worker's deque
};

class SlicePool {
 public:
  // Runs one slice; true when the task is finished, false to requeue it.
  using Task = std::function<bool()>;

  explicit SlicePool(int threads);  // below 1 means 1
  ~SlicePool() { Drain(); }
  SlicePool(const SlicePool&) = delete;
  SlicePool& operator=(const SlicePool&) = delete;

  // Queues `task` on worker `hint % threads()`; false (task dropped) once
  // Drain has begun.
  bool Submit(uint64_t hint, Task task);
  // Refuses further tasks, runs every submitted one to completion and
  // joins the workers. Idempotent.
  void Drain();

  size_t threads() const { return workers_.size(); }
  // Complete once Drain has returned.
  std::vector<WorkerStats> stats() const;

 private:
  struct Worker {
    std::mutex mu;
    std::deque<Task> queue;
    WorkerStats stats;
    std::thread thread;
  };

  void Push(size_t worker, Task task);
  bool Pop(size_t worker, Task* task);
  void WorkerLoop(size_t worker);

  std::mutex mu_;               // live_, draining_
  std::condition_variable cv_;  // idle workers sleep here
  size_t live_ = 0;             // submitted tasks not yet finished
  bool draining_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;  // last: their threads use the members above
};

}  // namespace rings

#endif  // SRC_FLEET_SLICE_POOL_H_
