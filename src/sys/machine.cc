#include "src/sys/machine.h"

#include <utility>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/mem/page_table.h"

namespace rings {

std::string RunResult::ToString() const {
  return StrFormat("%s cycles=%llu instructions=%llu", idle ? "idle" : "budget-exhausted",
                   static_cast<unsigned long long>(cycles),
                   static_cast<unsigned long long>(instructions));
}

Machine::Machine(MachineConfig config)
    : config_(config),
      memory_(config.memory_words),
      cpu_(&memory_, config.cycle_model),
      registry_(&memory_),
      supervisor_(&cpu_, &memory_, &registry_,
                  Supervisor::Options{.quantum = config.quantum, .verbose = false}) {
  ConfigureComponents();
  if (config_.fault.enabled) {
    fault_injector_ = std::make_unique<FaultInjector>(config_.fault);
    cpu_.set_fault_injector(fault_injector_.get());
  }
  ok_ = supervisor_.Initialize();
}

Machine::Machine(const MachineConfig& config, PhysicalMemory memory)
    : config_(config),
      memory_(std::move(memory)),
      cpu_(&memory_, config.cycle_model),
      registry_(&memory_),
      supervisor_(&cpu_, &memory_, &registry_,
                  Supervisor::Options{.quantum = config.quantum, .verbose = false}) {
  ConfigureComponents();
  ok_ = true;
}

void Machine::ConfigureComponents() {
  cpu_.set_mode(config_.mode);
  cpu_.set_engine_tier(EngineTierOf(config_));
  cpu_.set_block_call_ablation(config_.block_call_ablation);
  cpu_.set_chain_ablation(config_.chain_ablation);
  cpu_.set_trace(&trace_);
  supervisor_.set_start_io([this](uint8_t device, Word detail) { StartIo(device, detail); });
}

std::unique_ptr<Machine> Machine::CloneFrom(const Machine& golden) {
  if (!golden.ok()) {
    return nullptr;
  }
  std::unique_ptr<Machine> clone =
      FromState(golden.config_, PhysicalMemory(golden.memory_, PhysicalMemory::CowClone{}),
                golden.CaptureState());
  clone->audit_findings_ = golden.audit_findings_;
  return clone;
}

std::unique_ptr<Machine> Machine::FromState(const MachineConfig& config, PhysicalMemory contents,
                                            State&& state) {
  std::unique_ptr<Machine> machine(new Machine(config, std::move(contents)));
  machine->RestoreState(std::move(state));
  return machine;
}

Machine::State Machine::CaptureState() const {
  State state;
  state.meta = State::Meta{memory_.size(), cpu_.mode(), supervisor_.options().quantum,
                           supervisor_.options().trap_storm_limit, config_.cycle_model};
  state.memory = memory_.CaptureState();
  state.cpu = cpu_.CaptureState();
  state.registry = registry_.CaptureState();
  state.supervisor = supervisor_.CaptureState();
  state.trace = trace_.CaptureState();
  if (fault_injector_ != nullptr) {
    state.fault = fault_injector_->CaptureState();
  }
  state.device = State::Device{tty_operations_, audit_runs_, pending_io_};
  return state;
}

void Machine::RestoreState(State&& state) {
  cpu_.set_mode(state.meta.mode);
  supervisor_.set_quantum(state.meta.quantum);
  supervisor_.set_trap_storm_limit(state.meta.trap_storm_limit);
  memory_.RestoreState(state.memory);
  cpu_.RestoreState(state.cpu);
  registry_.RestoreState(std::move(state.registry));
  supervisor_.RestoreState(std::move(state.supervisor));
  trace_.RestoreState(std::move(state.trace));
  if (state.fault.has_value()) {
    config_.fault = state.fault->config;
    fault_injector_ = std::make_unique<FaultInjector>(config_.fault);
    fault_injector_->RestoreState(std::move(*state.fault));
  } else {
    config_.fault = FaultConfig{};
    fault_injector_.reset();
  }
  cpu_.set_fault_injector(fault_injector_.get());
  tty_operations_ = state.device.tty_operations;
  audit_runs_ = state.device.audit_runs;
  pending_io_ = std::move(state.device.pending_io);
}

bool Machine::LoadProgram(const Program& program,
                          const std::map<std::string, AccessControlList>& acls,
                          std::string* error) {
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  const bool ok = registry_.LoadProgram(program, acls, err);
  // Loading writes segment contents (and page tables) directly into the
  // core store.
  cpu_.FlushForExternalStores();
  return ok;
}

// Program-image identity for the golden-image registry: FNV-1a over the
// segment names, gate counts, reserve sizes, and assembled words. Two
// machines loading byte-identical programs hash to the same image; any
// difference (even one word) yields a distinct one.
uint64_t ProgramIdentity(const Program& program) {
  uint64_t h = 1469598103934665603ull;
  const auto mix_byte = [&h](uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  const auto mix = [&mix_byte](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      mix_byte(static_cast<uint8_t>(v >> (i * 8)));
    }
  };
  for (const AssembledSegment& seg : program.segments) {
    mix(seg.name.size());
    for (const char c : seg.name) {
      mix_byte(static_cast<uint8_t>(c));
    }
    mix(seg.gate_count);
    mix(seg.reserve_words);
    mix(seg.words.size());
    for (const Word w : seg.words) {
      mix(w);
    }
  }
  return h;
}

bool Machine::LoadProgramSource(std::string_view source,
                                const std::map<std::string, AccessControlList>& acls,
                                std::string* error) {
  const AssembleResult result = Assemble(source);
  if (!result.ok) {
    const std::string message = result.error.ToString();
    RINGS_LOG(kError) << "assembly failed: " << message;
    if (error != nullptr) {
      *error = message;
    }
    return false;
  }
  return LoadProgram(result.program, acls, error);
}

void Machine::StartIo(uint8_t device, Word detail) {
  (void)detail;
  ++tty_operations_;
  uint64_t latency = config_.cycle_model.io_latency;
  if (fault_injector_ != nullptr) {
    latency += fault_injector_->MaybeIoDelay(cpu_.cycles());
  }
  pending_io_.push_back(IoEvent{cpu_.cycles() + latency, device});
}

void Machine::RunAudit() {
  ++audit_runs_;
  std::vector<AuditFinding> findings = AuditProtectionState(&memory_, registry_, supervisor_);
  for (AuditFinding& finding : findings) {
    if (finding.severity == AuditSeverity::kError) {
      RINGS_LOG(kError) << "audit: " << finding.ToString();
    }
    audit_findings_.push_back(std::move(finding));
  }
}

RunResult Machine::Run(uint64_t max_cycles) {
  RunResult result;
  const uint64_t start_cycles = cpu_.cycles();
  const uint64_t start_instructions = cpu_.counters().instructions;

  if (supervisor_.current() == nullptr && !cpu_.trap_pending()) {
    if (!supervisor_.DispatchNext()) {
      result.idle = true;
      return result;
    }
  }

  while (cpu_.cycles() - start_cycles < max_cycles) {
    // A latched physical-store fault becomes a machine-fault trap. When
    // some other trap is already pending, it is serviced first; the
    // latch survives until the fault can be delivered.
    if (!cpu_.trap_pending() && memory_.fault_pending()) {
      const auto fault = memory_.TakeFault();
      cpu_.InjectTrap(TrapCause::kMachineFault, static_cast<int64_t>(fault->addr));
    }
    if (cpu_.trap_pending()) {
      const bool quantum_end = cpu_.trap_state().cause == TrapCause::kTimerRunout;
      if (!supervisor_.HandleTrap()) {
        if (config_.audit_every_quantum) {
          RunAudit();
        }
        result.idle = true;
        break;
      }
      if (quantum_end && config_.audit_every_quantum) {
        RunAudit();
      }
      continue;
    }
    // Deliver any due I/O completion before the next instruction.
    if (!pending_io_.empty() && pending_io_.front().due_cycle <= cpu_.cycles()) {
      const IoEvent event = pending_io_.front();
      pending_io_.pop_front();
      cpu_.InjectTrap(TrapCause::kIoCompletion, event.device);
      continue;
    }
    // The superblock engine may run several instructions per dispatch;
    // give it the nearest boundary this loop must regain control at (the
    // cycle budget or the next due I/O completion).
    uint64_t bound = start_cycles + max_cycles;
    if (!pending_io_.empty() && pending_io_.front().due_cycle < bound) {
      bound = pending_io_.front().due_cycle;
    }
    cpu_.StepBlock(bound);
  }

  result.cycles = cpu_.cycles() - start_cycles;
  result.instructions = cpu_.counters().instructions - start_instructions;
  if (!result.idle) {
    result.idle = supervisor_.Idle() && !cpu_.trap_pending();
  }
  return result;
}

namespace {

// Resolves a (possibly paged) registry segment word to an absolute
// address; nullopt if the page is absent.
std::optional<AbsAddr> ResolveRegistryWord(const PhysicalMemory& memory,
                                           const RegisteredSegment& seg, Wordno wordno) {
  if (!seg.paged) {
    return seg.base + wordno;
  }
  const Ptw ptw = DecodePtw(memory.Read(PtwAddress(seg.base, wordno)));
  if (!ptw.present) {
    return std::nullopt;
  }
  return FrameAddress(ptw, wordno);
}

}  // namespace

std::optional<Word> Machine::PeekSegment(const std::string& name, Wordno wordno) const {
  const RegisteredSegment* seg = registry_.Find(name);
  if (seg == nullptr || wordno >= seg->bound) {
    return std::nullopt;
  }
  const auto addr = ResolveRegistryWord(memory_, *seg, wordno);
  if (!addr.has_value()) {
    return std::nullopt;
  }
  return memory_.Read(*addr);
}

bool Machine::PokeSegment(const std::string& name, Wordno wordno, Word value) {
  const RegisteredSegment* seg = registry_.Find(name);
  if (seg == nullptr || wordno >= seg->bound) {
    return false;
  }
  const auto addr = ResolveRegistryWord(memory_, *seg, wordno);
  if (!addr.has_value()) {
    return false;
  }
  memory_.Write(*addr, value);
  cpu_.FlushForExternalStores();
  return true;
}

}  // namespace rings
