#include "src/fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/golden_image.h"
#include "src/snapshot/snapshot.h"

namespace rings {

std::string_view MachineOutcomeName(MachineOutcome outcome) {
  switch (outcome) {
    case MachineOutcome::kCompleted:
      return "completed";
    case MachineOutcome::kFailed:
      return "FAILED";
    case MachineOutcome::kBudgetExhausted:
      return "budget-exhausted";
  }
  return "?";
}

std::string MachineResult::ToString() const {
  std::string out = StrFormat(
      "machine %zu '%s': %s exit=%d cycles=%llu instructions=%llu fingerprint=%016llx "
      "quanta=%llu",
      index, name.c_str(), std::string(MachineOutcomeName(outcome)).c_str(), exit_code,
      static_cast<unsigned long long>(run.cycles),
      static_cast<unsigned long long>(run.counters.instructions),
      static_cast<unsigned long long>(run.fingerprint), static_cast<unsigned long long>(quanta));
  if (restarts > 0) {
    out += StrFormat(" restarts=%d%s", restarts, recovered ? " (recovered)" : "");
  }
  if (!failure.empty()) {
    out += StrFormat(" (%s)", failure.c_str());
  }
  return out;
}

std::string FleetStats::ToString() const {
  std::string out = StrFormat(
      "fleet: %zu machine(s): %zu completed, %zu failed, %zu budget-exhausted | "
      "sim instructions=%llu cycles=%llu | host %.3fs, %.2fM sim-insn/s",
      machines, completed, failed, budget_exhausted,
      static_cast<unsigned long long>(total_instructions),
      static_cast<unsigned long long>(total_cycles), wall_seconds,
      instructions_per_second / 1e6);
  if (restarts > 0) {
    out += StrFormat("\n  self-healing: %zu restart(s), %zu machine(s) recovered", restarts,
                     recovered);
  }
  for (size_t w = 0; w < workers.size(); ++w) {
    const double utilization =
        wall_seconds > 0 ? 100.0 * workers[w].busy_seconds / wall_seconds : 0.0;
    out += StrFormat("\n  thread %zu: %5.1f%% busy, %llu quanta (%llu stolen)", w, utilization,
                     static_cast<unsigned long long>(workers[w].quanta),
                     static_cast<unsigned long long>(workers[w].steals));
  }
  return out;
}

Fleet::Fleet(FleetConfig config) : config_(config) {
  if (config_.slice_cycles == 0) {
    config_.slice_cycles = 1;
  }
}

size_t Fleet::Add(FleetJob job) {
  jobs_.push_back(std::move(job));
  return jobs_.size() - 1;
}

void Fleet::Retire(size_t index, MachineOutcome outcome, std::string host_failure) {
  Slot& slot = slots_[index];
  MachineResult& result = results_[index];
  result.index = index;
  result.name = jobs_[index].name;
  result.outcome = outcome;
  result.failure = std::move(host_failure);
  result.quanta = slot.quanta;
  result.restarts = slot.restarts;
  const GuestExit exit =
      GuestExitStatus(slot.machine.get(), outcome != MachineOutcome::kCompleted);
  result.exit_code = exit.code;
  if (!exit.failure.empty()) {
    if (result.outcome == MachineOutcome::kCompleted) {
      result.outcome = MachineOutcome::kFailed;
    }
    if (result.failure.empty()) {
      result.failure = exit.failure;
    }
  }
  if (slot.machine != nullptr) {
    result.run = SignatureOf(*slot.machine);
  }
  result.recovered = result.restarts > 0 && result.outcome == MachineOutcome::kCompleted;
  slot.machine.reset();  // bound peak memory: one retired fleet member at a time
}

void Fleet::MaybeCheckpoint(size_t index) {
  Slot& slot = slots_[index];
  std::vector<uint8_t> image;
  std::string error;
  // The machine's own injector is the write injector: a kSnapshotWrite
  // fault damages the image in flight, the verification pass below
  // rejects it, and the slot keeps its previous good checkpoint.
  if (!SaveSnapshot(*slot.machine, &image, &error, slot.machine->fault_injector())) {
    RINGS_LOG(kWarning) << "fleet machine " << index << ": checkpoint save failed: " << error;
    return;
  }
  if (!VerifySnapshot(image, &error)) {
    RINGS_LOG(kWarning) << "fleet machine " << index
                        << ": checkpoint failed verification, keeping previous: " << error;
    return;
  }
  slot.checkpoint = std::move(image);
  slot.checkpoint_cycles = slot.consumed_cycles;
}

bool Fleet::TryRestart(size_t index, const std::string& why) {
  Slot& slot = slots_[index];
  if (slot.restarts >= config_.max_restarts || slot.checkpoint.empty()) {
    return false;
  }
  const FleetJob& job = jobs_[index];
  std::unique_ptr<Machine> fresh = job.factory != nullptr ? job.factory() : nullptr;
  if (fresh == nullptr || !fresh->ok()) {
    return false;
  }
  std::string error;
  if (!RestoreSnapshot(slot.checkpoint, fresh.get(), &error)) {
    RINGS_LOG(kWarning) << "fleet machine " << index << ": checkpoint restore failed: " << error;
    return false;
  }
  // The fault that brought the machine down was a transient injected one;
  // the restarted machine runs on repaired hardware. (Re-arming the
  // injector would deterministically replay the same fatal fault.)
  if (fresh->fault_injector() != nullptr) {
    fresh->fault_injector()->Disarm();
  }
  slot.machine = std::move(fresh);
  slot.consumed_cycles = slot.checkpoint_cycles;
  ++slot.restarts;
  RINGS_LOG(kInfo) << "fleet machine " << index << ": restarted from checkpoint (attempt "
                   << slot.restarts << "): " << why;
  return true;
}

bool Fleet::RunQuantum(size_t index) {
  Slot& slot = slots_[index];
  const FleetJob& job = jobs_[index];
#if defined(__cpp_exceptions)
  try {
#endif
    if (slot.machine == nullptr) {
      ++slot.quanta;
      slot.machine = job.factory != nullptr ? job.factory() : nullptr;
      if (slot.machine == nullptr || !slot.machine->ok()) {
        slot.machine.reset();
        Retire(index, MachineOutcome::kFailed, "machine construction failed");
        return true;
      }
      if (config_.checkpoint_every_quanta > 0) {
        MaybeCheckpoint(index);  // baseline image: loaded, nothing run yet
      }
      return false;  // construction was this quantum's work
    }
    const uint64_t remaining = job.max_cycles - slot.consumed_cycles;
    const RunResult run = slot.machine->Run(std::min(config_.slice_cycles, remaining));
    ++slot.quanta;
    slot.consumed_cycles += run.cycles;
    if (run.idle) {
      if (!GuestExitStatus(slot.machine.get()).failure.empty() &&
          TryRestart(index, "machine went down with a non-exited process")) {
        return false;
      }
      Retire(index, MachineOutcome::kCompleted, "");
      return true;
    }
    if (slot.consumed_cycles >= job.max_cycles) {
      Retire(index, MachineOutcome::kBudgetExhausted, "cycle budget exhausted");
      return true;
    }
    if (config_.checkpoint_every_quanta > 0 &&
        slot.quanta % config_.checkpoint_every_quanta == 0) {
      MaybeCheckpoint(index);
    }
    return false;
#if defined(__cpp_exceptions)
  } catch (const std::exception& e) {
    // Host-side failure isolation: this machine retires, siblings drain.
    const std::string what = StrFormat("host exception: %s", e.what());
    slot.machine.reset();
    if (TryRestart(index, what)) {
      return false;
    }
    Retire(index, MachineOutcome::kFailed, what);
    return true;
  }
#endif
}

FleetStats Fleet::Run() {
  const size_t n = jobs_.size();
  results_.assign(n, MachineResult{});
  slots_.clear();
  slots_.resize(n);

  // Keep every golden machine image acquired during this run alive until
  // the run ends: machines are retired one at a time to bound memory, so
  // without the pin a program's image would expire with its last live
  // machine and the next wave would re-boot it.
  const GoldenImageRegistry::Pin golden_pin;

  const auto start = std::chrono::steady_clock::now();
  SlicePool pool(config_.threads);
  // Round-robin initial distribution, so every worker starts with work
  // and stealing only happens once queues drain unevenly.
  for (size_t i = 0; i < n; ++i) {
    pool.Submit(i, [this, i] { return RunQuantum(i); });
  }
  pool.Drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  FleetStats stats;
  stats.machines = n;
  stats.wall_seconds = wall;
  for (const MachineResult& result : results_) {
    switch (result.outcome) {
      case MachineOutcome::kCompleted:
        ++stats.completed;
        break;
      case MachineOutcome::kFailed:
        ++stats.failed;
        break;
      case MachineOutcome::kBudgetExhausted:
        ++stats.budget_exhausted;
        break;
    }
    stats.total_instructions += result.run.counters.instructions;
    stats.total_cycles += result.run.cycles;
    stats.restarts += static_cast<size_t>(result.restarts);
    if (result.recovered) {
      ++stats.recovered;
    }
    stats.aggregate.Accumulate(result.run.counters);
  }
  stats.instructions_per_second =
      wall > 0 ? static_cast<double>(stats.total_instructions) / wall : 0.0;
  stats.workers = pool.stats();
  return stats;
}

int Fleet::ExitCode() const {
  int exit_code = 0;
  for (const MachineResult& result : results_) {
    exit_code = std::max(exit_code, result.exit_code);
  }
  return exit_code;
}

}  // namespace rings
