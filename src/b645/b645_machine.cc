#include "src/b645/b645_machine.h"

#include "src/core/transfer.h"
#include "src/isa/indirect_word.h"

namespace rings {

namespace {

// Gatekeeper cost constants, in supervisor steps. These model the fixed
// software path of a 645-style ring crossing: decoding the request,
// searching the gate table, building/swapping the addressing environment.
constexpr uint64_t kStepsCrossFixed = 30;
constexpr uint64_t kStepsPerArgument = 8;
constexpr uint64_t kStepsReturnFixed = 20;

constexpr uint32_t kMaxArgs = 16;

}  // namespace

B645Machine::B645Machine(MachineConfig config)
    : config_(config), memory_(config.memory_words), cpu_(&memory_, config.cycle_model),
      registry_(&memory_) {
  cpu_.set_mode(ProtectionMode::kFlags645);
  cpu_.set_engine_tier(EngineTierOf(config));
  ok_ = true;
}

void B645Machine::Charge(uint64_t steps) {
  cpu_.ChargeCycles(steps * cpu_.cycle_model().supervisor_step);
  cpu_.counters().supervisor_steps += steps;
  gatekeeper_steps_ += steps;
}

bool B645Machine::LoadProgram(const Program& program,
                              const std::map<std::string, SegmentAccess>& ring_specs,
                              std::string* error) {
  std::string local_error;
  std::string* err = error != nullptr ? error : &local_error;
  // The registry wants ACLs; the 645 system has a single user.
  std::map<std::string, AccessControlList> acls;
  for (const AssembledSegment& seg : program.segments) {
    const auto spec = ring_specs.find(seg.name);
    if (spec == ring_specs.end()) {
      *err = "no ring spec supplied for segment " + seg.name;
      return false;
    }
    acls[seg.name] = AccessControlList::Public(spec->second);
  }
  if (!registry_.LoadProgram(program, acls, err)) {
    cpu_.FlushInsnCache();
    cpu_.FlushTlb();
    return false;
  }
  cpu_.FlushInsnCache();
  cpu_.FlushTlb();
  for (const AssembledSegment& seg : program.segments) {
    const RegisteredSegment* reg = registry_.Find(seg.name);
    SegmentAccess access = ring_specs.at(seg.name);
    access.gate_count = reg->gate_count;
    ring_table_[reg->segno] = access;
  }
  return true;
}

bool B645Machine::LoadProgramSource(std::string_view source,
                                    const std::map<std::string, SegmentAccess>& ring_specs,
                                    std::string* error) {
  const AssembleResult result = Assemble(source);
  if (!result.ok) {
    if (error != nullptr) {
      *error = result.error.ToString();
    }
    return false;
  }
  return LoadProgram(result.program, ring_specs, error);
}

bool B645Machine::PokeWordForTest(const std::string& name, Wordno wordno, Word value) {
  const RegisteredSegment* seg = registry_.Find(name);
  if (seg == nullptr || wordno >= seg->bound) {
    return false;
  }
  memory_.Write(seg->base + wordno, value);
  cpu_.FlushInsnCache();
  cpu_.FlushTlb();
  return true;
}

std::optional<Word> B645Machine::PeekWordForTest(const std::string& name, Wordno wordno) const {
  const RegisteredSegment* seg = registry_.Find(name);
  if (seg == nullptr || wordno >= seg->bound) {
    return std::nullopt;
  }
  return memory_.Read(seg->base + wordno);
}

bool B645Machine::SetRingSpec(const std::string& name, const SegmentAccess& spec) {
  const RegisteredSegment* seg = registry_.Find(name);
  if (seg == nullptr) {
    return false;
  }
  SegmentAccess access = spec;
  access.gate_count = seg->gate_count;
  ring_table_[seg->segno] = access;
  return true;
}

const SegmentAccess* B645Machine::RingSpec(Segno segno) const {
  const auto it = ring_table_.find(segno);
  return it == ring_table_.end() ? nullptr : &it->second;
}

// Compiles the ring brackets of every registered segment into eight
// descriptor segments, one per ring: ring k's descriptor segment holds,
// for each segment, only the flags that ring k's bracket membership
// permits. This is exactly the "multiple descriptor segments" software
// implementation of rings.
void B645Machine::BuildDescriptorSegments() {
  ring_dbrs_.clear();
  for (Ring ring = 0; ring < kRingCount; ++ring) {
    auto dseg = DescriptorSegment::Create(&memory_, kDescriptorSegmentSlots, kStackBaseSegno);
    ring_dbrs_.push_back(dseg->dbr());
  }

  // Per-ring stack segments at segment numbers 0..7 (same layout as the
  // ring-hardware machine, so workloads can share conventions). Stack j is
  // accessible to rings k <= j.
  std::vector<AbsAddr> stack_bases;
  for (Ring j = 0; j < kRingCount; ++j) {
    const auto base = memory_.Allocate(kStackSegmentWords);
    stack_bases.push_back(*base);
    memory_.Write(*base + kStackNextFreeWord, kStackFrameStart);
  }

  for (Ring k = 0; k < kRingCount; ++k) {
    DescriptorSegment dseg(&memory_, ring_dbrs_[k]);
    for (Ring j = 0; j < kRingCount; ++j) {
      Sdw sdw;
      sdw.present = k <= j;  // stack j inaccessible above ring j
      sdw.base = stack_bases[j];
      sdw.bound = kStackSegmentWords;
      sdw.access.flags = {.read = k <= j, .write = k <= j, .execute = false};
      sdw.access.brackets = Brackets{0, kMaxRing, kMaxRing};  // ignored in 645 mode
      dseg.Store(kStackBaseSegno + j, sdw);
    }
    for (const auto& [segno, spec] : ring_table_) {
      const RegisteredSegment* reg = registry_.FindBySegno(segno);
      Sdw sdw;
      sdw.base = reg->base;
      sdw.bound = reg->bound;
      sdw.access.flags.read = spec.flags.read && spec.brackets.InReadBracket(k);
      sdw.access.flags.write = spec.flags.write && spec.brackets.InWriteBracket(k);
      sdw.access.flags.execute = spec.flags.execute && spec.brackets.InExecuteBracket(k);
      sdw.access.brackets = Brackets{0, kMaxRing, kMaxRing};
      sdw.access.gate_count = reg->gate_count;
      sdw.present = sdw.access.flags.read || sdw.access.flags.write || sdw.access.flags.execute;
      dseg.Store(segno, sdw);
    }
  }
}

bool B645Machine::Start(const std::string& segname, const std::string& entry, Ring ring) {
  BuildDescriptorSegments();
  const auto addr = registry_.Resolve(segname, entry);
  if (!addr.has_value()) {
    return false;
  }
  current_ring_ = ring;
  RegisterFile regs;
  regs.dbr = ring_dbrs_[ring];
  regs.ipr = Ipr{ring, addr->segno, addr->wordno};
  for (PointerRegister& pr : regs.pr) {
    pr = PointerRegister{0, 0, 0};
  }
  regs.pr[kPrStackBase] = PointerRegister{0, kStackBaseSegno + ring, 0};
  regs.pr[kPrStack] = PointerRegister{0, kStackBaseSegno + ring, kStackFrameStart};
  cpu_.Rett(regs);
  started_ = true;
  return true;
}

void B645Machine::Kill(TrapCause cause) {
  killed_ = true;
  kill_cause_ = cause;
}

bool B645Machine::HandleCrossCall(const TrapState& trap) {
  ++crossings_;
  Charge(kStepsCrossFixed);

  const Segno target_segno =
      static_cast<Segno>((trap.regs.q >> kWordnoBits) & kMaxSegno);
  const Wordno target_wordno = static_cast<Wordno>(trap.regs.q & kMaxWordno);

  const SegmentAccess* spec = RingSpec(target_segno);
  if (spec == nullptr) {
    Kill(TrapCause::kMissingSegment);
    return false;
  }

  // The same legality rules as the ring hardware, evaluated in software
  // against the gatekeeper's ring tables.
  const TransferOutcome outcome =
      ResolveCall(*spec, current_ring_, current_ring_, target_wordno, /*same_segment=*/false);
  Ring new_ring;
  if (outcome.ok()) {
    new_ring = outcome.new_ring;
  } else if (outcome.cause == TrapCause::kUpwardCall) {
    new_ring = spec->brackets.r1;
  } else {
    Kill(outcome.cause);
    return false;
  }

  // Software argument validation: the gatekeeper must examine every
  // argument pointer and confirm the *callee* ring may reference it (and
  // that the caller supplied a plausible list at all) — work the ring
  // hardware performs implicitly via effective-ring validation.
  const PointerRegister ap = trap.regs.pr[kPrArgs];
  uint64_t arg_count = 0;
  if (!(ap.segno == 0 && ap.wordno == 0)) {
    Word count_word = 0;
    if (cpu_.SupervisorRead(ap.segno, ap.wordno, 0, &count_word) != TrapCause::kNone ||
        count_word > kMaxArgs) {
      Kill(TrapCause::kReadViolation);
      return false;
    }
    arg_count = count_word;
    for (uint64_t i = 0; i < arg_count; ++i) {
      Word ptr_word = 0;
      if (cpu_.SupervisorRead(ap.segno, ap.wordno + 1 + i, 0, &ptr_word) != TrapCause::kNone) {
        Kill(TrapCause::kReadViolation);
        return false;
      }
      const IndirectWord iw = DecodeIndirectWord(ptr_word);
      const SegmentAccess* arg_spec = RingSpec(iw.segno);
      const bool is_stack = iw.segno < kStackBaseSegno + kRingCount;
      if (!is_stack) {
        if (arg_spec == nullptr) {
          Kill(TrapCause::kMissingSegment);
          return false;
        }
        // Validate against the *caller's* capabilities so the callee
        // cannot be tricked into touching what the caller could not.
        if (!CheckRead(*arg_spec, current_ring_).ok()) {
          Kill(TrapCause::kReadViolation);
          return false;
        }
      }
      ++args_validated_;
      Charge(kStepsPerArgument);
    }
  }

  // Record the crossing for the validated return path.
  CrossRecord record;
  record.caller_ring = current_ring_;
  record.return_point = trap.regs.ipr;  // already addresses the next instruction
  record.saved_sp = trap.regs.pr[kPrStack];
  cross_stack_.push_back(record);

  // Swap the addressing environment: the new ring's descriptor segment.
  RegisterFile regs = trap.regs;
  regs.dbr = ring_dbrs_[new_ring];
  regs.ipr = Ipr{new_ring, target_segno, target_wordno};
  regs.pr[kPrStackBase] = PointerRegister{0, kStackBaseSegno + new_ring, 0};
  current_ring_ = new_ring;
  cpu_.Rett(regs);
  return true;
}

bool B645Machine::HandleCrossReturn(const TrapState& trap) {
  Charge(kStepsReturnFixed);
  if (cross_stack_.empty()) {
    Kill(TrapCause::kDownwardReturn);
    return false;
  }
  const CrossRecord record = cross_stack_.back();
  // Verify the restored stack pointer, as the paper requires of the
  // intervening software.
  if (!(trap.regs.pr[kPrStack] == record.saved_sp)) {
    Kill(TrapCause::kDownwardReturn);
    return false;
  }
  cross_stack_.pop_back();

  RegisterFile regs = trap.regs;
  regs.dbr = ring_dbrs_[record.caller_ring];
  regs.ipr = record.return_point;
  regs.pr[kPrStackBase] = PointerRegister{0, kStackBaseSegno + record.caller_ring, 0};
  current_ring_ = record.caller_ring;
  cpu_.Rett(regs);
  return true;
}

bool B645Machine::HandleMme(const TrapState& trap) {
  switch (trap.code) {
    case kMmeExit:
      exited_ = true;
      exit_code_ = static_cast<int64_t>(trap.regs.a);
      return false;
    case kMmeCrossCall:
      return HandleCrossCall(trap);
    case kMmeCrossReturn:
      return HandleCrossReturn(trap);
    case kMmeGetRing: {
      RegisterFile regs = trap.regs;
      regs.a = current_ring_;
      cpu_.Rett(regs);
      return true;
    }
    default:
      Kill(TrapCause::kMasterModeEntry);
      return false;
  }
}

RunResult B645Machine::Run(uint64_t max_cycles) {
  RunResult result;
  const uint64_t start_cycles = cpu_.cycles();
  const uint64_t start_instructions = cpu_.counters().instructions;

  while (started_ && !exited_ && !killed_ && cpu_.cycles() - start_cycles < max_cycles) {
    if (cpu_.trap_pending()) {
      const TrapState trap = cpu_.TakeTrap();
      Charge(2);
      if (trap.cause == TrapCause::kMasterModeEntry) {
        if (!HandleMme(trap)) {
          break;
        }
        continue;
      }
      Kill(trap.cause);
      break;
    }
    cpu_.StepBlock(start_cycles + max_cycles);
  }

  result.idle = exited_ || killed_;
  result.cycles = cpu_.cycles() - start_cycles;
  result.instructions = cpu_.counters().instructions - start_instructions;
  return result;
}

}  // namespace rings
