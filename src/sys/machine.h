// The complete simulated machine: core store, one processor with the ring
// hardware, the segment registry, the supervisor, and a typewriter I/O
// channel. This is the top-level public API most users of the library
// interact with: assemble a program, load it with access control lists,
// log users in, start processes, run.
#ifndef SRC_SYS_MACHINE_H_
#define SRC_SYS_MACHINE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/cpu/cpu.h"
#include "src/fault/fault_injector.h"
#include "src/kasm/assembler.h"
#include "src/mem/physical_memory.h"
#include "src/sup/audit.h"
#include "src/sup/segment_registry.h"
#include "src/sup/supervisor.h"
#include "src/trace/event_trace.h"

namespace rings {

struct MachineConfig {
  size_t memory_words = size_t{1} << 22;
  CycleModel cycle_model{};
  int64_t quantum = 5000;
  ProtectionMode mode = ProtectionMode::kRingHardware;
  // The host engine tier, as two bools perfbench names: read only by
  // EngineTierOf and set only by ApplyTier below. Host-side only; the
  // simulation is bit-identical on every tier.
  bool fast_path = true;
  bool block_engine = true;
  // Test-only: deliberately break the block engine (one spurious cycle
  // per CALL executed inside a block) so the differential fuzz oracle's
  // catch-and-shrink path can be exercised. See Cpu::block_call_ablation.
  bool block_call_ablation = false;
  // Test-only: deliberately break chaining (one spurious cycle per
  // followed link) for the fuzz oracle. See Cpu::chain_ablation.
  bool chain_ablation = false;
  // `chain` and `shared_decode` have no reader: perfbench/ledger.cc still
  // names them, and the benchmark change that stops naming them deletes
  // them.
  bool chain = true;
  bool shared_decode = true;
  // Deterministic fault injection (see DESIGN.md, "Fault model &
  // recovery"). Disabled by default; zero overhead when disabled.
  FaultConfig fault{};
  // Run the protection auditor after every quantum (timer runout) and
  // accumulate its findings; Run() keeps going, the caller inspects
  // audit_findings(). Off by default — auditing walks every descriptor
  // segment of every process.
  bool audit_every_quantum = false;
};

// The one reading of MachineConfig's engine bools: !fast_path is the
// reference tier, else !block_engine is cached, else blocks.
inline EngineTier EngineTierOf(const MachineConfig& config) {
  if (!config.fast_path) {
    return EngineTier::kReference;
  }
  return config.block_engine ? EngineTier::kBlocks : EngineTier::kCached;
}

// The one writing of them: sets `config` to run `tier`.
inline void ApplyTier(EngineTier tier, MachineConfig* config) {
  config->fast_path = tier != EngineTier::kReference;
  config->block_engine = tier == EngineTier::kBlocks;
}

struct RunResult {
  // True when every process finished (exited or was killed); false when
  // the cycle budget ran out first.
  bool idle = false;
  uint64_t cycles = 0;
  uint64_t instructions = 0;

  std::string ToString() const;
};

class Machine {
 public:
  // A scheduled I/O completion on the simulated channel.
  struct IoEvent {
    uint64_t due_cycle = 0;
    uint8_t device = 0;
  };

  explicit Machine(MachineConfig config = MachineConfig{});

  // Copy-on-write clone: a new machine whose core store aliases `golden`'s
  // frames read-only (privatized frame-by-frame on first store) and whose
  // processor, registry, supervisor, trace, and device state are exact
  // copies — so the clone runs the same trajectory, fingerprint, and
  // counters a fresh boot+load of the same program would, at O(registers +
  // frame table) spawn cost instead of O(memory). Skips supervisor
  // initialization and program load entirely. Cloning the same sealed
  // golden machine from multiple threads is safe (see
  // GoldenImageRegistry); cloning a machine that is still running is safe
  // only single-threaded. Returns null if `golden` is not ok().
  static std::unique_ptr<Machine> CloneFrom(const Machine& golden);

  // False if construction failed (resource exhaustion during supervisor
  // initialization) — all other calls are invalid then.
  bool ok() const { return ok_; }

  PhysicalMemory& memory() { return memory_; }
  const PhysicalMemory& memory() const { return memory_; }
  Cpu& cpu() { return cpu_; }
  const Cpu& cpu() const { return cpu_; }
  Supervisor& supervisor() { return supervisor_; }
  const Supervisor& supervisor() const { return supervisor_; }
  SegmentRegistry& registry() { return registry_; }
  const SegmentRegistry& registry() const { return registry_; }
  EventTrace& trace() { return trace_; }
  const EventTrace& trace() const { return trace_; }

  // Null unless MachineConfig::fault.enabled.
  FaultInjector* fault_injector() { return fault_injector_.get(); }
  const FaultInjector* fault_injector() const { return fault_injector_.get(); }

  // Per-quantum audit results (empty unless audit_every_quantum).
  const std::vector<AuditFinding>& audit_findings() const { return audit_findings_; }
  uint64_t audit_runs() const { return audit_runs_; }

  // Registers an assembled program's segments with the given ACLs (keyed
  // by segment name).
  bool LoadProgram(const Program& program, const std::map<std::string, AccessControlList>& acls,
                   std::string* error = nullptr);
  // Assembles and loads in one step. Assembly failures are reported
  // through `error` (and the log), never by aborting the host.
  bool LoadProgramSource(std::string_view source,
                         const std::map<std::string, AccessControlList>& acls,
                         std::string* error = nullptr);

  // Login: creates a process for `user`.
  Process* Login(const std::string& user) { return supervisor_.CreateProcess(user); }

  // Starts `entry` in `segname` in the given ring, making the process
  // ready to run.
  bool Start(Process* process, const std::string& segname, const std::string& entry, Ring ring) {
    return supervisor_.Start(process, segname, entry, ring);
  }

  // Runs until every process finishes or the cycle budget is exhausted.
  RunResult Run(uint64_t max_cycles = 100'000'000);

  // Typewriter device access. Feeding input wakes processes blocked in
  // the tty-read service.
  const std::string& TtyOutput() const { return supervisor_.tty_output(); }
  void TtyFeedInput(const std::string& text) {
    supervisor_.tty_input() += text;
    supervisor_.NotifyTtyInput();
  }
  uint64_t tty_operations() const { return tty_operations_; }

  // Test/debug helpers: direct word access to a registered segment.
  std::optional<Word> PeekSegment(const std::string& name, Wordno wordno) const;
  bool PokeSegment(const std::string& name, Wordno wordno, Word value);

  const MachineConfig& config() const { return config_; }

  // --- machine state ------------------------------------------------------
  // Everything the machine carries beyond its core store's words, as plain
  // values, one member per snapshot-image section. CloneFrom and
  // RestoreSnapshot both apply it through RestoreState, so a clone and a
  // restore cannot copy different things; the field lists that encode,
  // decode and fingerprint it are in src/snapshot/schema.h. Not in it: the
  // core store's words (a clone aliases the golden's frames, an image
  // carries them in its memory section), the host-only caches (restore
  // flushes them), and the audit findings, which only CloneFrom copies.
  struct State {
    // Machine-shape facts; RestoreState applies the mode, quantum and
    // trap-storm limit and requires the memory size and cycle model to
    // match this machine already.
    struct Meta {
      uint64_t memory_words = 0;
      ProtectionMode mode = ProtectionMode::kRingHardware;
      int64_t quantum = 5000;
      int64_t trap_storm_limit = 64;
      CycleModel cycle_model{};
    };
    struct Device {
      uint64_t tty_operations = 0;
      uint64_t audit_runs = 0;
      std::deque<IoEvent> pending_io;
    };
    Meta meta;
    PhysicalMemory::State memory;
    Cpu::State cpu;
    SegmentRegistry::State registry;
    Supervisor::State supervisor;
    EventTrace::State trace;
    std::optional<FaultInjector::State> fault;  // nullopt: no injector
    Device device;
  };
  State CaptureState() const;
  void RestoreState(State state);

 private:
  // Tag for the cloning constructor: builds the shell (COW memory, cpu,
  // empty registry/supervisor) without running supervisor initialization;
  // CloneFrom then copies the parent's state in.
  struct CloneTag {};
  Machine(const Machine& parent, CloneTag);

  // The config-driven wiring both constructors share: engine switches,
  // trace and I/O hooks.
  void ConfigureComponents();

  void StartIo(uint8_t device, Word detail);

  // Runs the protection auditor once and accumulates findings.
  void RunAudit();

  MachineConfig config_;
  PhysicalMemory memory_;
  Cpu cpu_;
  SegmentRegistry registry_;
  Supervisor supervisor_;
  EventTrace trace_;
  std::unique_ptr<FaultInjector> fault_injector_;
  std::deque<IoEvent> pending_io_;
  std::vector<AuditFinding> audit_findings_;
  uint64_t audit_runs_ = 0;
  uint64_t tty_operations_ = 0;
  bool ok_ = false;
};

// Program-image identity: FNV-1a over the segment names, gate counts,
// reserve sizes, and assembled words. Two machines loading byte-identical
// programs hash to the same identity; any difference (even one word)
// yields a distinct one. Keys the golden-image registry
// (src/fleet/golden_image.h).
uint64_t ProgramIdentity(const Program& program);

}  // namespace rings

#endif  // SRC_SYS_MACHINE_H_

