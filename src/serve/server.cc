#include "src/serve/server.h"

#include <algorithm>
#include <exception>

#include "src/base/strings.h"
#include "src/fleet/fingerprint.h"
#include "src/kasm/assembler.h"
#include "src/snapshot/snapshot.h"
#include "src/sys/manifest.h"

namespace rings {

namespace {

using Clock = std::chrono::steady_clock;

// Submission identity for the golden-image registry: FNV-1a over the full
// source text. Unlike ProgramIdentity this covers the `;;` manifest too —
// two sources assembling to the same program but with different ACLs,
// start points, or tty input must not share a golden machine.
uint64_t SourceIdentity(const std::string& source) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : source) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string_view ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kQueued:
      return "queued";
    case ServeStatus::kRunning:
      return "running";
    case ServeStatus::kCompleted:
      return "completed";
    case ServeStatus::kFailed:
      return "failed";
    case ServeStatus::kBudgetExceeded:
      return "budget-exceeded";
    case ServeStatus::kRejected:
      return "rejected";
  }
  return "?";
}

std::string Completion::ToString() const {
  std::string out = StrFormat(
      "submission %llu tenant '%s': %s exit=%d cycles=%llu fingerprint=%016llx",
      static_cast<unsigned long long>(id), tenant.c_str(),
      std::string(ServeStatusName(status)).c_str(), exit_code,
      static_cast<unsigned long long>(cycles), static_cast<unsigned long long>(fingerprint));
  if (!error.empty()) {
    out += StrFormat(" (%s)", error.c_str());
  }
  return out;
}

Server::Server(ServeConfig config) : config_(config) {
  if (config_.threads < 1) {
    config_.threads = 1;
  }
  if (config_.slice_cycles == 0) {
    config_.slice_cycles = 1;
  }
  for (int w = 0; w < config_.threads; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->thread = std::thread([this, w] { WorkerLoop(w); });
  }
}

Server::~Server() { Shutdown(); }

void Server::SetTenantBudget(const std::string& tenant, TenantBudget budget) {
  const std::lock_guard<std::mutex> lock(mu_);
  tenants_[tenant].budget = budget;
}

uint64_t Server::Submit(Submission submission) {
  std::unique_ptr<Task> task = std::make_unique<Task>();
  task->submission = std::move(submission);
  task->submitted_at = Clock::now();
  task->max_cycles =
      task->submission.max_cycles > 0 ? task->submission.max_cycles : config_.default_max_cycles;
  task->completion.tenant = task->submission.tenant;

  std::string reject;
  uint64_t memory_words = config_.machine_memory_words;
  const bool has_source = !task->submission.source.empty();
  const bool has_image = !task->submission.image.empty();
  if (has_source == has_image) {
    reject = "submission must carry exactly one of kasm source or snapshot image";
  } else if (has_image) {
    std::string error;
    SnapshotMeta meta;
    if (!VerifySnapshot(task->submission.image, &error) ||
        !PeekSnapshotMeta(task->submission.image, &meta, &error)) {
      reject = StrFormat("snapshot image invalid: %s", error.c_str());
    } else if (meta.memory_words > config_.machine_memory_words) {
      // Checked before any Machine of the image's size exists.
      reject = StrFormat("snapshot image wants a %llu-word machine, server cap is %zu words",
                         static_cast<unsigned long long>(meta.memory_words),
                         config_.machine_memory_words);
    } else {
      memory_words = meta.memory_words;
    }
  }

  Task* raw = task.get();
  size_t worker = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    raw->id = next_id_++;
    raw->completion.id = raw->id;
    if (!accepting_ && reject.empty()) {
      reject = "server is shutting down";
    }
    if (reject.empty()) {
      const auto it = tenants_.find(raw->submission.tenant);
      if (it != tenants_.end() && memory_words > it->second.budget.max_memory_words) {
        reject = StrFormat("tenant memory budget: machine wants %llu words, budget is %llu",
                           static_cast<unsigned long long>(memory_words),
                           static_cast<unsigned long long>(it->second.budget.max_memory_words));
      }
    }
    if (!reject.empty()) {
      raw->completion.status = ServeStatus::kRejected;
      raw->completion.error = std::move(reject);
      raw->completion.turnaround_ns = 0;
      raw->done = true;
      tasks_[raw->id] = std::move(task);
      done_cv_.notify_all();
      return raw->id;
    }
    ++queued_;
    worker = static_cast<size_t>(raw->id) % workers_.size();
    tasks_[raw->id] = std::move(task);
  }
  Enqueue(worker, raw);
  return raw->id;
}

Completion Server::Wait(uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this, id] {
    const auto it = tasks_.find(id);
    return it != tasks_.end() && it->second->done;
  });
  return tasks_.find(id)->second->completion;
}

void Server::Shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (const auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

void Server::Enqueue(size_t worker, Task* task) {
  {
    const std::lock_guard<std::mutex> lock(workers_[worker]->mu);
    workers_[worker]->queue.push_back(task);
  }
  work_cv_.notify_one();
}

Server::Task* Server::Dequeue(size_t worker) {
  Worker& own = *workers_[worker];
  {
    const std::lock_guard<std::mutex> lock(own.mu);
    if (!own.queue.empty()) {
      Task* task = own.queue.back();
      own.queue.pop_back();
      return task;
    }
  }
  // Steal from the front of a sibling's queue (the submission its owner
  // would touch last), scanning from the next worker around the ring.
  for (size_t k = 1; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(worker + k) % workers_.size()];
    const std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.queue.empty()) {
      Task* task = victim.queue.front();
      victim.queue.pop_front();
      ++own.steals;
      return task;
    }
  }
  return nullptr;
}

void Server::WorkerLoop(size_t worker) {
  while (true) {
    Task* task = Dequeue(worker);
    if (task == nullptr) {
      std::unique_lock<std::mutex> lock(mu_);
      if (stopping_ && queued_ == 0) {
        return;
      }
      // Bounded wait instead of a precise predicate: enqueues happen
      // under per-worker locks, so a notify can slip past a worker
      // between its failed Dequeue and this wait; the timeout caps that
      // stall at one millisecond.
      work_cv_.wait_for(lock, std::chrono::milliseconds(1));
      continue;
    }
    const bool retired = RunSlice(task);
    if (!retired) {
      Enqueue(worker, task);
    }
  }
}

uint64_t Server::TenantRemaining(const std::string& tenant) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return UINT64_MAX;
  }
  const Tenant& t = it->second;
  return t.consumed_cycles >= t.budget.max_cycles_total
             ? 0
             : t.budget.max_cycles_total - t.consumed_cycles;
}

void Server::ChargeTenant(const std::string& tenant, uint64_t cycles) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  if (it != tenants_.end()) {
    it->second.consumed_cycles += cycles;
  }
}

bool Server::Materialize(Task* task) {
  const Submission& sub = task->submission;
  std::unique_ptr<Machine> machine;
  if (!sub.image.empty()) {
    std::string error;
    SnapshotMeta meta;
    if (!PeekSnapshotMeta(sub.image, &meta, &error)) {
      Retire(task, ServeStatus::kFailed, std::move(error));
      return false;
    }
    MachineConfig config;
    config.memory_words = meta.memory_words;
    config.cycle_model = meta.cycle_model;
    config.quantum = meta.quantum;
    config.mode = meta.mode;
    config.fast_path = config_.fast_path;
    config.block_engine = config_.block_engine;
    config.chain = config_.chain;
    config.shared_decode = config_.shared_decode;
    machine = std::make_unique<Machine>(config);
    if (!machine->ok() || !RestoreSnapshot(sub.image, machine.get(), &error)) {
      Retire(task, ServeStatus::kFailed,
             machine->ok() ? std::move(error) : "machine construction failed");
      return false;
    }
  } else {
    // Golden-image path: the first submission of a distinct source pays
    // assemble+boot+load under the registry lock; every later one clones.
    // Engine flags join the identity (as in ringsim's fleet wiring) so a
    // golden booted under one host configuration never serves another.
    const uint64_t identity = SourceIdentity(sub.source) ^
                              ((config_.fast_path ? 1u : 0u) | (config_.block_engine ? 2u : 0u) |
                               (config_.chain ? 4u : 0u) | (config_.shared_decode ? 8u : 0u));
    std::string build_error;
    const std::shared_ptr<const GoldenImage> golden =
        GoldenImageRegistry::Instance().Acquire(identity, [this, &sub, &build_error,
                                                           identity]() -> std::unique_ptr<Machine> {
          const AssembleResult assembled = Assemble(sub.source);
          if (!assembled.ok) {
            build_error = assembled.error.ToString();
            return nullptr;
          }
          const Manifest manifest = ParseManifest(sub.source);
          if (!manifest.ok()) {
            build_error = manifest.error;
            return nullptr;
          }
          MachineConfig config;
          config.memory_words = config_.machine_memory_words;
          config.fast_path = config_.fast_path;
          config.block_engine = config_.block_engine;
          config.chain = config_.chain;
          config.shared_decode = config_.shared_decode;
          auto golden_machine = std::make_unique<Machine>(config);
          if (!golden_machine->ok()) {
            build_error = "machine construction failed";
            return nullptr;
          }
          std::string error;
          if (!InstantiateGuest(assembled.program, manifest, golden_machine.get(), &error)) {
            build_error = std::move(error);
            return nullptr;
          }
          (void)identity;
          return golden_machine;
        });
    if (golden == nullptr) {
      Retire(task, ServeStatus::kFailed,
             build_error.empty() ? "golden image construction failed" : std::move(build_error));
      return false;
    }
    machine = golden->Spawn();
    if (machine == nullptr) {
      Retire(task, ServeStatus::kFailed, "golden image clone failed");
      return false;
    }
  }
  if (!sub.stdin_text.empty()) {
    machine->TtyFeedInput(sub.stdin_text);
  }
  task->machine = std::move(machine);
  return true;
}

void Server::Retire(Task* task, ServeStatus status, std::string error) {
  Completion& completion = task->completion;
  completion.status = status;
  completion.error = std::move(error);
  if (task->machine != nullptr) {
    const Machine& machine = *task->machine;
    completion.fingerprint = FingerprintMachine(machine);
    completion.cycles = machine.cpu().cycles();
    completion.instructions = machine.cpu().counters().instructions;
    completion.tty = machine.TtyOutput();
    int exit_code = 0;
    for (const auto& process : machine.supervisor().processes()) {
      if (process->state == ProcessState::kExited) {
        exit_code = std::max(exit_code, static_cast<int>(process->exit_code & 0xFF));
      } else {
        exit_code = 111;
        if (completion.status == ServeStatus::kCompleted) {
          completion.status = ServeStatus::kFailed;
        }
        if (completion.error.empty()) {
          completion.error = ProcessStatusLine(*process);
        }
      }
    }
    completion.exit_code = exit_code;
  } else if (completion.exit_code == 0) {
    completion.exit_code = 111;
  }
  if (completion.status != ServeStatus::kCompleted && completion.exit_code == 0) {
    completion.exit_code = 111;
  }
  completion.turnaround_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - task->submitted_at)
          .count());
  task->machine.reset();  // bound peak memory: one retired machine at a time
  {
    const std::lock_guard<std::mutex> lock(mu_);
    task->done = true;
    --queued_;
  }
  done_cv_.notify_all();
  work_cv_.notify_all();  // drain check: sleepers re-test the exit condition
}

bool Server::RunSlice(Task* task) {
#if defined(__cpp_exceptions)
  try {
#endif
    if (task->machine == nullptr) {
      return !Materialize(task);  // materialization was this slice's work
    }
    const uint64_t tenant_remaining = TenantRemaining(task->submission.tenant);
    if (tenant_remaining == 0) {
      Retire(task, ServeStatus::kBudgetExceeded, "tenant cycle budget exhausted");
      return true;
    }
    const uint64_t remaining = task->max_cycles - task->consumed_cycles;
    const uint64_t slice = std::min({config_.slice_cycles, remaining, tenant_remaining});
    const RunResult run = task->machine->Run(slice);
    task->consumed_cycles += run.cycles;
    ChargeTenant(task->submission.tenant, run.cycles);
    if (run.idle) {
      Retire(task, ServeStatus::kCompleted, "");
      return true;
    }
    if (task->consumed_cycles >= task->max_cycles) {
      Retire(task, ServeStatus::kBudgetExceeded, "cycle budget exhausted");
      return true;
    }
    if (TenantRemaining(task->submission.tenant) == 0) {
      Retire(task, ServeStatus::kBudgetExceeded, "tenant cycle budget exhausted");
      return true;
    }
    return false;
#if defined(__cpp_exceptions)
  } catch (const std::exception& e) {
    // Host-side failure isolation: this submission retires, siblings and
    // the daemon itself keep running.
    task->machine.reset();
    Retire(task, ServeStatus::kFailed, StrFormat("host exception: %s", e.what()));
    return true;
  }
#endif
}

}  // namespace rings
