// The machine-state schema: one field list per piece of machine state.
//
// Fields(ar, x) visits x's fields in snapshot-image order and at image
// width. The snapshot writer and the validating snapshot reader
// (snapshot.cc) walk every list; the fingerprint mixer
// (src/fleet/fingerprint.cc) walks the register file and the counters.
// CloneFrom and RestoreSnapshot both apply a Machine::State, so a new
// piece of state is a member in its component's State plus one edit here;
// encoding, decoding, cloning and fingerprinting follow. Changing a list's
// order or widths changes the kSnapshotVersion 1 format, which
// tests/snapshot/snapshot_format_test.cc pins.
//
// The visits (the shared ones are class Visits, at the end):
//   Bool, U8, U32, U64, I64, Str  a field at that wire width
//   HostU64                       a host-only counter: imaged, not fingerprinted
//   Ring(x, what)                 a ring number (u8); the reader rejects >= 8
//   Enum8/Enum32(x, last, what)   an enum; the reader rejects > last
//   Fixed(n, what)                this build's geometry (u32); the reader
//                                 rejects != n; not fingerprinted
//   Bits(a, b, c)                 three flags packed in one byte
//   List(c[, visit])              u64 count, then each element
//   Optional(o)                   bool presence, then the value
//   Check(why)                    the reader fails with why() if non-empty
#ifndef SRC_SNAPSHOT_SCHEMA_H_
#define SRC_SNAPSHOT_SCHEMA_H_

#include <optional>

#include "src/sys/machine.h"

namespace rings {

// The last valid value of each sentinel-terminated enum an image carries.
inline constexpr TrapCause kLastTrapCause =
    static_cast<TrapCause>(static_cast<int>(TrapCause::kNumCauses) - 1);
inline constexpr FaultSite kLastFaultSite = static_cast<FaultSite>(kNumFaultSites - 1);

// --- architectural types ---------------------------------------------------

template <class Ar>
void Fields(Ar& ar, SegAddr& addr) {
  ar.U32(addr.segno);
  ar.U32(addr.wordno);
}

template <class Ar>
void Fields(Ar& ar, PointerRegister& pr) {
  ar.Ring(pr.ring, "pointer-register ring");
  ar.U32(pr.segno);
  ar.U32(pr.wordno);
}

template <class Ar>
void Fields(Ar& ar, DbrValue& dbr) {
  ar.U64(dbr.base);
  ar.U32(dbr.bound);
  ar.U32(dbr.stack_base);
}

template <class Ar>
void Fields(Ar& ar, RegisterFile& regs) {
  ar.U64(regs.a);
  ar.U64(regs.q);
  for (uint32_t& x : regs.x) {
    ar.U32(x);
  }
  for (PointerRegister& pr : regs.pr) {
    Fields(ar, pr);
  }
  Fields(ar, regs.ipr);
  Fields(ar, regs.dbr);
}

template <class Ar>
void Fields(Ar& ar, SegmentAccess& access) {
  ar.Bits(access.flags.read, access.flags.write, access.flags.execute);
  ar.Ring(access.brackets.r1, "bracket ring");
  ar.Ring(access.brackets.r2, "bracket ring");
  ar.Ring(access.brackets.r3, "bracket ring");
  ar.U32(access.gate_count);
}

template <class Ar>
void Fields(Ar& ar, Sdw& sdw) {
  ar.Bool(sdw.present);
  ar.Bool(sdw.paged);
  ar.U64(sdw.base);
  ar.U64(sdw.bound);
  Fields(ar, sdw.access);
}

template <class Ar>
void Fields(Ar& ar, Instruction& ins) {
  // Not range-checked: a trap's instruction is undefined for asynchronous
  // causes and may hold any opcode byte.
  ar.U8(ins.opcode);
  ar.Bool(ins.indirect);
  ar.Bool(ins.pr_relative);
  ar.U8(ins.prnum);
  ar.U8(ins.reg);
  ar.U8(ins.tag);
  ar.I64(ins.offset);
}

template <class Ar>
void Fields(Ar& ar, TrapState& trap) {
  ar.Enum32(trap.cause, kLastTrapCause, "trap cause");
  Fields(ar, trap.regs);
  Fields(ar, trap.tpr);
  Fields(ar, trap.instruction);
  ar.I64(trap.code);
  Fields(ar, trap.fault_addr);
}

template <class Ar>
void Fields(Ar& ar, Counters& counters) {
  size_t fields = 0;
  Counters::ForEachField([&fields](const char*, uint64_t Counters::*, bool) { ++fields; });
  ar.Fixed(fields, "counter field count");
  Counters::ForEachField([&](const char*, uint64_t Counters::* member, bool host_only) {
    if (host_only) {
      ar.HostU64(counters.*member);
    } else {
      ar.U64(counters.*member);
    }
  });
  ar.Fixed(counters.traps.size(), "trap array size");
  for (uint64_t& n : counters.traps) {
    ar.U64(n);
  }
}

template <class Ar>
void Fields(Ar& ar, CycleModel& cm) {
  ar.U64(cm.instruction_base);
  ar.U64(cm.memory_ref);
  ar.U64(cm.sdw_fetch);
  ar.U64(cm.access_check);
  ar.U64(cm.trap);
  ar.U64(cm.rett);
  ar.U64(cm.supervisor_step);
  ar.U64(cm.io_latency);
}

template <class Ar>
void Fields(Ar& ar, MemoryFault& fault) {
  ar.U64(fault.addr);
  ar.Bool(fault.write);
}

// --- registry --------------------------------------------------------------

template <class Ar>
void Fields(Ar& ar, AclEntry& entry) {
  ar.Str(entry.user);
  Fields(ar, entry.access);
}

template <class Ar>
void Fields(Ar& ar, AccessControlList& acl) {
  ar.List(acl.entries_);
}

template <class Ar>
void Fields(Ar& ar, LinkTarget& link) {
  ar.Str(link.segment);
  ar.Str(link.symbol);
  ar.I64(link.offset);
  ar.Ring(link.ring, "link ring");
  ar.Bool(link.indirect);
}

template <class Ar>
void Fields(Ar& ar, RegisteredSegment& seg) {
  ar.Str(seg.name);
  ar.U32(seg.segno);
  ar.U64(seg.base);
  ar.Bool(seg.paged);
  ar.U64(seg.bound);
  ar.U32(seg.gate_count);
  Fields(ar, seg.acl);
  ar.List(seg.symbols, [&ar](auto& symbol) {
    ar.Str(symbol.first);
    ar.U32(symbol.second);
  });
  ar.List(seg.links);
}

// --- processes -------------------------------------------------------------

template <class Ar>
void Fields(Ar& ar, ReturnGate::CopiedArg& arg) {
  Fields(ar, arg.original);
  Fields(ar, arg.transfer);
  ar.U32(arg.length);
  ar.Ring(arg.effective_ring, "copied-arg ring");
}

template <class Ar>
void Fields(Ar& ar, ReturnGate& gate) {
  Fields(ar, gate.expected_target);
  ar.Ring(gate.caller_ring, "return-gate ring");
  ar.Ring(gate.callee_ring, "return-gate ring");
  Fields(ar, gate.saved_sp);
  Fields(ar, gate.saved_sb);
  Fields(ar, gate.saved_ap);
  ar.U64(gate.transfer_words);
  ar.List(gate.copied_args);
}

template <class Ar>
void Fields(Ar& ar, Process& process) {
  ar.I64(process.pid);
  ar.Str(process.user);
  ar.Enum8(process.state, ProcessState::kKilled, "process state");
  Fields(ar, process.dbr);
  Fields(ar, process.saved_regs);
  ar.I64(process.exit_code);
  ar.Enum32(process.kill_cause, kLastTrapCause, "trap cause");
  Fields(ar, process.kill_pc);
  ar.U64(process.instructions_run);
  ar.U64(process.dispatches);
  ar.U64(process.trap_streak);
  ar.U64(process.last_trap_instructions);
  ar.List(process.return_gates);
}

// --- event logs ------------------------------------------------------------

template <class Ar>
void Fields(Ar& ar, TraceEvent& e) {
  ar.Enum8(e.kind, EventKind::kProcessSwitch, "trace event kind");
  ar.U64(e.cycle);
  ar.Ring(e.ring, "trace event ring");
  Fields(ar, e.pc);
  ar.Enum32(e.cause, kLastTrapCause, "trap cause");
  ar.Ring(e.new_ring, "trace event ring");
  ar.Str(e.note);
}

template <class Ar>
void Fields(Ar& ar, FaultEvent& e) {
  ar.U64(e.sequence);
  ar.Enum32(e.site, kLastFaultSite, "fault site");
  ar.U64(e.cycle);
  ar.U32(e.segno);
  ar.U32(e.wordno);
  ar.Str(e.detail);
}

template <class Ar>
void Fields(Ar& ar, FaultConfig& config) {
  ar.Bool(config.enabled);
  ar.U64(config.seed);
  ar.Fixed(kNumFaultSites, "fault-site count");
  for (uint32_t& ppm : config.rate_ppm) {
    ar.U32(ppm);
  }
}

template <class Ar>
void Fields(Ar& ar, Machine::IoEvent& event) {
  ar.U64(event.due_cycle);
  ar.U8(event.device);
}

// --- machine sections, one per snapshot-image section ----------------------

template <class Ar>
void Fields(Ar& ar, Machine::State::Meta& meta) {
  ar.U64(meta.memory_words);
  ar.Enum8(meta.mode, ProtectionMode::kFlags645, "protection mode");
  ar.I64(meta.quantum);
  ar.I64(meta.trap_storm_limit);
  Fields(ar, meta.cycle_model);
}

// The memory section's header; the store's words follow it as zero-run
// RLE (snapshot.cc).
template <class Ar>
void Fields(Ar& ar, PhysicalMemory::State& memory) {
  ar.U64(memory.next_free);
  ar.U64(memory.fault_count);
  ar.Optional(memory.latched_fault);
}

template <class Ar>
void Fields(Ar& ar, SdwCache::Entry& entry) {
  ar.Bool(entry.valid);
  ar.U32(entry.segno);
  Fields(ar, entry.sdw);
}

template <class Ar>
void Fields(Ar& ar, Cpu::State& cpu) {
  ar.U64(cpu.cycles);
  Fields(ar, cpu.regs);
  Fields(ar, cpu.tpr);
  ar.Bool(cpu.checks_enabled);
  ar.Bool(cpu.timer_enabled);
  ar.I64(cpu.timer);
  ar.Bool(cpu.trap_pending);
  Fields(ar, cpu.trap_state);
  Fields(ar, cpu.counters);
  // The descriptor cache is timing-architectural (see SdwCache::State).
  SdwCache::State& cache = cpu.sdw_cache;
  ar.Bool(cache.enabled);
  ar.U64(cache.hits);
  ar.U64(cache.misses);
  ar.Fixed(SdwCache::kEntries, "descriptor-cache geometry");
  for (SdwCache::Entry& entry : cache.entries) {
    Fields(ar, entry);
  }
}

template <class Ar>
void Fields(Ar& ar, SegmentRegistry::State& registry) {
  ar.U32(registry.next_segno);
  ar.List(registry.segments);
}

template <class Ar>
void Fields(Ar& ar, Supervisor::State& sup) {
  ar.I64(sup.next_pid);
  ar.I64(sup.anonymous_segments);
  ar.Bool(sup.handling_trap);
  ar.I64(sup.current_pid);
  ar.List(sup.ready_pids, [&ar](auto& pid) { ar.I64(pid); });
  ar.Str(sup.tty_output);
  ar.Str(sup.tty_input);
  ar.List(sup.registered_users, [&ar](auto& user) { ar.Str(user); });
  ar.List(sup.processes);
  ar.Check([&sup] { return sup.DanglingPid(); });
}

template <class Ar>
void Fields(Ar& ar, EventTrace::State& trace) {
  ar.Bool(trace.enabled);
  ar.List(trace.events);
}

template <class Ar>
void Fields(Ar& ar, FaultInjector::State& fault) {
  Fields(ar, fault.config);
  for (uint64_t& word : fault.rng) {
    ar.U64(word);
  }
  for (uint64_t& word : fault.snapshot_rng) {
    ar.U64(word);
  }
  ar.Fixed(kNumFaultSites, "fault-count array size");
  for (uint64_t& count : fault.counts) {
    ar.U64(count);
  }
  ar.U64(fault.sequence);
  ar.List(fault.events);
}

template <class Ar>
void Fields(Ar& ar, std::optional<FaultInjector::State>& fault) {
  ar.Optional(fault);
}

template <class Ar>
void Fields(Ar& ar, Machine::State::Device& device) {
  ar.U64(device.tty_operations);
  ar.U64(device.audit_runs);
  ar.List(device.pending_io);
}

// --- the visit vocabulary ---------------------------------------------------

// The typed visits Fields() makes, written once in terms of the two
// primitives each archive implements: Int(v, bytes) moves an integer, bool
// or enum at a wire width, and Ranged(v, bytes, last, what) moves one the
// reader rejects above `last`. Each archive adds HostU64, Str, Fixed, Bits,
// List(c, visit), Optional and Check itself.
template <class Archive>
class Visits {
 public:
  void Bool(bool& v) { self().Int(v, 1); }
  template <class T>
  void U8(T& v) {
    self().Int(v, 1);
  }
  template <class T>
  void U32(T& v) {
    self().Int(v, 4);
  }
  template <class T>
  void U64(T& v) {
    self().Int(v, 8);
  }
  // Signed fields travel as their 64-bit two's-complement pattern.
  template <class T>
  void I64(T& v) {
    self().Int(v, 8);
  }
  void Ring(uint8_t& ring, const char* what) { self().Ranged(ring, 1, kMaxRing, what); }
  template <class T>
  void Enum8(T& e, T last, const char* what) {
    self().Ranged(e, 1, static_cast<uint64_t>(last), what);
  }
  template <class T>
  void Enum32(T& e, T last, const char* what) {
    self().Ranged(e, 4, static_cast<uint64_t>(last), what);
  }
  // A list whose elements have field lists of their own.
  template <class C>
  void List(C& c) {
    self().List(c, [this](auto& element) { Fields(self(), element); });
  }

 private:
  Archive& self() { return static_cast<Archive&>(*this); }
};

}  // namespace rings

#endif  // SRC_SNAPSHOT_SCHEMA_H_
