// The fleet engine: run N independent Machine instances across a pool of
// host worker threads. Each machine owns its memory, supervisor, caches,
// and (optionally) a seeded fault injector, so machines share no mutable
// state; the engine schedules their quanta on the work-stealing slice
// pool (src/fleet/slice_pool.h) — a quantum is Machine::Run over a fixed
// simulated-cycle slice — and retires each machine with a structured
// MachineResult when it goes idle, fails, or exhausts its budget.
//
// Determinism is the contract, not an aspiration: a machine's final
// fingerprint, counters, and trap sequence are bit-identical whether the
// fleet runs on 1, 4, or 8 threads or the machine runs standalone
// through Machine::Run (pinned by tests/fleet/). It holds by
// construction — a machine's quantum sequence depends only on its own
// consumed cycles, never on which worker ran it or what its siblings
// did — and required every process-wide mutable singleton to be
// thread-safe (src/base/log.{h,cc}) or per-machine (everything else).
//
// Failure isolation is per machine: one machine latching kMachineFault,
// trap-storming into the watchdog, or throwing on the host is retired as
// kFailed while the rest of the fleet keeps draining.
#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/fleet/slice_pool.h"
#include "src/sys/machine.h"
#include "src/trace/counters.h"

namespace rings {

struct FleetConfig {
  // Host worker threads. Values below 1 are treated as 1; threads beyond
  // the number of live machines just find the queues empty.
  int threads = 1;
  // Simulated-cycle budget of one scheduling quantum. Smaller slices
  // interleave machines more finely (and bound how long a worker is
  // stuck behind one machine); the value never affects any machine's
  // final state, only host scheduling granularity.
  uint64_t slice_cycles = 250'000;
  // Crash-consistent checkpointing: every N quanta a machine's state is
  // serialized (src/snapshot) and verified; the last good image is kept
  // in the machine's slot. 0 disables checkpointing.
  uint64_t checkpoint_every_quanta = 0;
  // Self-healing: a machine that fails (killed process, machine fault,
  // trap storm, host exception) is restarted from its last verified
  // checkpoint up to this many times, with its fault injector disarmed
  // (the model: the transient hardware fault was repaired). 0 means
  // failures retire the machine immediately.
  int max_restarts = 0;
};

// One machine's place in the fleet. The factory runs on a worker thread
// at the machine's first quantum (construction and program loading
// parallelize with its siblings), so it must capture everything it needs
// by value and must not touch shared mutable state.
struct FleetJob {
  std::string name;
  std::function<std::unique_ptr<Machine>()> factory;
  // Total simulated-cycle budget across all quanta (the standalone
  // equivalent is Machine::Run(max_cycles)).
  uint64_t max_cycles = 100'000'000;
};

enum class MachineOutcome {
  kCompleted,        // went idle: every process exited cleanly
  kFailed,           // a process was killed, construction failed, or the host threw
  kBudgetExhausted,  // still runnable when max_cycles ran out
};

std::string_view MachineOutcomeName(MachineOutcome outcome);

// The structured result a machine retires with. The machine itself is
// destroyed on retirement (a fleet of large memories would otherwise
// peak at every machine resident at once); everything comparable lives
// here.
struct MachineResult {
  size_t index = 0;
  std::string name;
  MachineOutcome outcome = MachineOutcome::kFailed;
  // Why the machine failed (empty when it completed): the status line of
  // the first killed process, or the host-side error.
  std::string failure;
  // ringsim-style exit status (GuestExitStatus, src/fleet/fingerprint.h).
  int exit_code = 0;

  // Simulated face of the run — bit-identical across thread counts and
  // vs. standalone execution (host-only counters excluded from the
  // fingerprint; see src/fleet/fingerprint.h).
  uint64_t fingerprint = 0;
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  Counters counters{};
  std::vector<std::string> process_status;
  std::string tty;
  // TrapSequence: the trap/ring-switch events, empty unless the machine
  // ran traced.
  std::vector<std::string> traps;

  // Host-side bookkeeping (legitimately varies across runs).
  uint64_t quanta = 0;

  // Self-healing bookkeeping: how many times this machine was restarted
  // from a checkpoint, and whether a restarted machine went on to
  // complete cleanly.
  int restarts = 0;
  bool recovered = false;

  bool ok() const { return outcome == MachineOutcome::kCompleted; }
  std::string ToString() const;
};

struct FleetStats {
  size_t machines = 0;
  size_t completed = 0;
  size_t failed = 0;
  size_t budget_exhausted = 0;
  // Self-healing: total checkpoint restarts across the fleet, and how
  // many machines completed after at least one restart.
  size_t restarts = 0;
  size_t recovered = 0;

  // Aggregate simulated work: per-machine counters merged with
  // Counters::Accumulate. Thread-count invariant.
  uint64_t total_instructions = 0;
  uint64_t total_cycles = 0;
  Counters aggregate{};

  // Host-side throughput (varies by host and thread count).
  double wall_seconds = 0;
  double instructions_per_second = 0;
  std::vector<WorkerStats> workers;

  std::string ToString() const;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config = FleetConfig{});

  // Adds a job; returns its machine index. Invalid while Run is active.
  size_t Add(FleetJob job);
  size_t Add(std::string name, std::function<std::unique_ptr<Machine>()> factory,
             uint64_t max_cycles = 100'000'000) {
    return Add(FleetJob{std::move(name), std::move(factory), max_cycles});
  }

  size_t size() const { return jobs_.size(); }
  const FleetConfig& config() const { return config_; }

  // Runs every machine to retirement and blocks until the fleet drains.
  // Callable once per added batch; results accumulate in order of
  // machine index (not retirement order).
  FleetStats Run();

  const std::vector<MachineResult>& results() const { return results_; }

  // ringsim-style fleet exit status: the max per-machine exit_code, so a
  // nonzero result from any machine fails the whole run.
  int ExitCode() const;

 private:
  // A live (not yet retired) machine and its scheduling state. Touched
  // only by the worker currently running its quantum: the pool holds each
  // machine's task in exactly one deque or one worker's hands at a time.
  struct Slot {
    std::unique_ptr<Machine> machine;
    uint64_t consumed_cycles = 0;
    uint64_t quanta = 0;
    // Last verified checkpoint image (empty when checkpointing is off or
    // no good image exists yet) and the consumed-cycle mark it captures.
    std::vector<uint8_t> checkpoint;
    uint64_t checkpoint_cycles = 0;
    int restarts = 0;
  };

  // Runs one quantum of machine `index`; returns true when the machine
  // retired (result recorded, machine destroyed).
  bool RunQuantum(size_t index);
  // Serializes and verifies the machine's state into its slot's
  // checkpoint (keeping the previous image if this one fails to verify).
  void MaybeCheckpoint(size_t index);
  // Attempts a restart from the slot's last verified checkpoint; false
  // when restarts are exhausted, no checkpoint exists, or restore fails
  // (the caller retires the machine as it would have without healing).
  bool TryRestart(size_t index, const std::string& why);
  void Retire(size_t index, MachineOutcome outcome, std::string host_failure);

  FleetConfig config_;
  std::vector<FleetJob> jobs_;
  std::vector<MachineResult> results_;
  std::vector<Slot> slots_;
};

}  // namespace rings

#endif  // SRC_FLEET_FLEET_H_
