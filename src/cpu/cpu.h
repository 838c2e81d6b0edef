// The simulated processor. Implements the instruction cycle of the
// paper's Figures 4-9: instruction fetch with execute-bracket validation,
// effective-address formation with ring maximization over pointer
// registers and indirect words, operand access validation, the advance
// check for transfers, and the CALL/RETURN instructions that change the
// ring of execution without supervisor intervention.
#ifndef SRC_CPU_CPU_H_
#define SRC_CPU_CPU_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>

#include "src/core/access.h"
#include "src/core/transfer.h"
#include "src/cpu/block_cache.h"
#include "src/cpu/registers.h"
#include "src/fault/fault_injector.h"
#include "src/cpu/sdw_cache.h"
#include "src/cpu/trap.h"
#include "src/isa/indirect_word.h"
#include "src/isa/instruction.h"
#include "src/mem/descriptor_segment.h"
#include "src/mem/physical_memory.h"
#include "src/trace/counters.h"
#include "src/trace/cycle_model.h"
#include "src/trace/event_trace.h"

namespace rings {

// Which access-control hardware the processor is equipped with.
//   kRingHardware: the paper's design — ring fields in SDWs, PRs and
//     indirect words, effective-ring validation, CALL/RETURN crossing.
//   kFlags645:     the Honeywell-645-style base used as the software-rings
//     baseline — SDWs carry only R/W/E flags (ring fields ignored), there
//     are no CALL/RETURN instructions, and rings must be built in software
//     with one descriptor segment per ring and trap-based crossings
//     (src/b645).
enum class ProtectionMode {
  kRingHardware,
  kFlags645,
};

inline constexpr unsigned kMaxIndirectionDepth = 64;

// The reference kinds of Figures 4-7. Each names one Check* predicate,
// the checks_* counter it charges, and the counters its word access bumps
// (the rule table in cpu.cc).
enum class RefKind { kFetch, kIndirect, kRead, kWrite, kTransfer };

// The host engine tiers, fastest first. Each tier runs every host-side
// layer of the tiers after it plus its own; none changes what the
// simulated machine does: cycles, counters, trap sequences and the
// fault-injection stream are bit-identical on every tier (every
// engine-equivalence test and the fuzz oracle run all of kEngineTiers).
//   kBlocks:        superblocks (StepBlock) with block-to-block chaining.
//   kCached:        references answered from the resident descriptor
//                   (SdwCache::Resident), one instruction per dispatch.
//   kReference:     the per-instruction reference path, no host caches.
enum class EngineTier { kBlocks, kCached, kReference };
inline constexpr EngineTier kEngineTiers[] = {EngineTier::kBlocks, EngineTier::kCached,
                                              EngineTier::kReference};

// "blocks", "cached", "reference": ringsim's --engine=
// values and the fuzz oracle's leg names.
constexpr std::string_view EngineTierName(EngineTier tier) {
  switch (tier) {
    case EngineTier::kBlocks:
      return "blocks";
    case EngineTier::kCached:
      return "cached";
    case EngineTier::kReference:
      return "reference";
  }
  return "?";
}

class Cpu {
 public:
  explicit Cpu(PhysicalMemory* memory, CycleModel cycle_model = CycleModel::Default());

  RegisterFile& regs() { return regs_; }
  const RegisterFile& regs() const { return regs_; }
  // The TPR after the most recent effective-address calculation (internal
  // register, exposed for tests and the supervisor's trap emulation).
  const Tpr& tpr() const { return tpr_; }

  ProtectionMode mode() const { return mode_; }
  void set_mode(ProtectionMode mode) { mode_ = mode; }

  // When false, all Figure 4-9 validations are skipped (used by the
  // overhead-claim benchmark to measure what the checks cost), and every
  // instruction takes the per-instruction path: no block is built or run.
  bool checks_enabled() const { return checks_enabled_; }
  void set_checks_enabled(bool enabled) {
    assert(TallyEmpty() && "the tally settles under the checks regime it was counted in");
    checks_enabled_ = enabled;
  }

  SdwCache& sdw_cache() { return sdw_cache_; }
  const SdwCache& sdw_cache() const { return sdw_cache_; }

  // Whether a reference of `kind` to `segno` at (ring, effective) is
  // answered from the resident descriptor, without a descriptor walk, on
  // the cached and blocks tiers: the probe Reference makes first. It reads
  // nothing but the SDW cache and the checks regime, and changes nothing.
  bool ProbeAnswers(RefKind kind, Segno segno, Ring ring, Ring effective) const;

  // The host engine tier (EngineTier). Switching drops every block (the
  // SDW cache keeps its descriptors, which are architectural), so no block
  // built under one tier runs under another. The host fast paths also
  // disengage while the SDW cache is disabled, so the ablation benchmarks
  // measure what they claim to.
  void set_engine_tier(EngineTier tier) {
    tier_ = tier;
    block_cache_.Flush();
  }
  const BlockCache& block_cache() const { return block_cache_; }

  // Test-only sabotage of the chaining engine, the chaining analog of
  // block_call_ablation: every followed successor link charges one
  // spurious cycle the per-instruction path never charges. Used by the
  // fuzz harness to prove the oracle catches (and the shrinker minimizes)
  // a chaining bug. Never set outside tests and --fuzz-ablation paths.
  bool chain_ablation() const { return chain_ablation_; }
  void set_chain_ablation(bool enabled) { chain_ablation_ = enabled; }

  // Test-only sabotage of the superblock engine, used by the fuzz
  // harness (src/fuzz) to prove its differential oracle catches a broken
  // engine: every CALL executed from inside a block charges one spurious
  // cycle the per-instruction path never charges — exactly the class of
  // bug (a host execution path drifting from the architectural one) the
  // fuzzer exists to catch. Never set outside tests and --fuzz-ablation.
  bool block_call_ablation() const { return block_call_ablation_; }
  void set_block_call_ablation(bool enabled) { block_call_ablation_ = enabled; }

  // Hardware fault injection (nullptr = disabled; the hooks are a single
  // pointer test when off). The injector is consulted at SDW fetch, at
  // instruction boundaries (cache drops, spurious page faults), and when
  // indirect words are retrieved.
  void set_fault_injector(FaultInjector* injector) { fault_injector_ = injector; }
  FaultInjector* fault_injector() const { return fault_injector_; }

  // Executes one instruction. No-op while a trap is pending. Returns true
  // if an instruction was retired, false if the processor is frozen on a
  // trap.
  bool Step();

  // Executes up to one straight-line block of instructions (at least one,
  // like Step) and stops before any instruction whose boundary conditions
  // the run loop must service: `cycle_bound` is the absolute cycle count
  // at which the caller's loop would stop stepping (its cycle budget or
  // the next due I/O completion), and a latched physical-store fault,
  // timer runout, pending trap, or any cache invalidation under the block
  // ends it early. Degrades to exactly Step() on the kCached and
  // kReference tiers. Returns what Step would have returned for the last
  // instruction executed.
  bool StepBlock(uint64_t cycle_bound);

  bool trap_pending() const { return trap_pending_; }
  const TrapState& trap_state() const { return trap_state_; }

  // Supervisor interface ------------------------------------------------

  // Acknowledges the pending trap without resuming (the machine is about
  // to dispatch it). The state stays available for Rett.
  TrapState TakeTrap();

  // The RETT operation: restores processor state (possibly edited by the
  // supervisor) and resumes. Charges the RETT cycle cost and flushes the
  // descriptor cache if the DBR changed.
  void Rett(const RegisterFile& state);

  // Loads a new DBR (process switch) and flushes the descriptor cache.
  void SetDbr(const DbrValue& dbr);

  // Must be called whenever supervisor code edits an SDW that this
  // processor may have cached. This also drops the blocks decoded under
  // it: a new descriptor may change the segment's base or what its words
  // decode to.
  void InvalidateSdw(Segno segno) {
    sdw_cache_.Invalidate(segno);
    counters_.block_invalidations += block_cache_.InvalidateSegment(segno);
  }
  void FlushSdwCache() {
    sdw_cache_.Flush();
    block_cache_.Flush();
    ++counters_.block_invalidations;
  }

  // Must be called after memory is written behind the processor's back
  // (program loading, test pokes, DMA-style stores): any of those words
  // may be one a block decoded. Page-table words need no call: every
  // paged reference reads its PTW afresh.
  void FlushForExternalStores() {
    block_cache_.Flush();
    ++counters_.block_invalidations;
  }

  // Injects an asynchronous trap (timer runout, I/O completion) that will
  // be taken before the next instruction. The saved state resumes exactly
  // where execution stopped.
  void InjectTrap(TrapCause cause, int64_t code = 0);

  // Scheduling quantum: when enabled, decremented once per instruction;
  // reaching zero raises kTimerRunout.
  void SetTimer(int64_t instructions) {
    timer_ = instructions;
    timer_enabled_ = instructions > 0;
  }

  // --- machine state (Machine::CaptureState / RestoreState) -------------
  // The processor's architectural state. The protection mode travels with
  // the machine's meta state; the host caches are not state at all.
  struct State {
    uint64_t cycles = 0;
    RegisterFile regs;
    Tpr tpr;
    bool checks_enabled = true;
    bool timer_enabled = false;
    int64_t timer = 0;
    bool trap_pending = false;
    TrapState trap_state;
    Counters counters;
    SdwCache::State sdw_cache;
  };
  State CaptureState() const;
  // Exact restore: unlike Rett/SetDbr/SetTimer this charges nothing. Every
  // host cache is flushed first and the counters are reinstated last, so
  // the flushes' host-only counter bumps are overwritten by the state's
  // exact values.
  void RestoreState(const State& state);

  // Privileged SIO instructions are routed here (device = reg field,
  // operand = the IOCB word read from memory).
  void set_sio_handler(std::function<void(uint8_t, Word)> handler) {
    sio_handler_ = std::move(handler);
  }

  // Accounting -----------------------------------------------------------

  uint64_t cycles() const { return cycles_; }
  void ChargeCycles(uint64_t cycles) { cycles_ += cycles; }
  // Exact whenever Step or StepBlock has returned, and so everywhere
  // outside a dispatch: the hit paths tally during a dispatch and every
  // exit of Step and StepBlock settles the tally into these counters (and
  // into sdw_cache()'s hit count) before returning. No code may read them
  // during a dispatch; cycles() is exact at every point.
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  const CycleModel& cycle_model() const { return cycle_model_; }

  void set_trace(EventTrace* trace) { trace_ = trace; }

  // Descriptor-segment access for the supervisor (bypasses the cache).
  std::optional<Sdw> ReadSdw(Segno segno) const;

  // Virtual-memory helpers used by the supervisor's C++ services when it
  // references guest memory on behalf of a process; validation is applied
  // with the supplied effective ring so supervisor services can "assume
  // the access capabilities of a higher numbered ring" exactly as the
  // hardware would. Returns the trap cause on denial without freezing the
  // processor.
  TrapCause SupervisorRead(Segno segno, Wordno wordno, Ring effective_ring, Word* out) {
    return SupervisorAccess(segno, wordno, EffectiveRing(effective_ring), out, /*store=*/false);
  }
  TrapCause SupervisorWrite(Segno segno, Wordno wordno, Ring effective_ring, Word value) {
    return SupervisorAccess(segno, wordno, EffectiveRing(effective_ring), &value, /*store=*/true);
  }
  // Unvalidated (ring-0) variants: the supervisor touching its own or any
  // segment's words through the current virtual memory.
  TrapCause SupervisorReadRaw(Segno segno, Wordno wordno, Word* out) {
    return SupervisorAccess(segno, wordno, std::nullopt, out, /*store=*/false);
  }
  TrapCause SupervisorWriteRaw(Segno segno, Wordno wordno, Word value) {
    return SupervisorAccess(segno, wordno, std::nullopt, &value, /*store=*/true);
  }

 private:
  // The flush a DBR change (SetDbr, or Rett to a new DBR) needs: the SDW
  // cache and the block cache.
  void FlushForNewDbr();

  // --- instruction-cycle phases (see cpu.cc for figure mapping) ---
  // The per-instruction boundary work shared by Step and the block inner
  // loop: trap-capture state reset, the quantum timer, and the
  // fault-injection hooks. Runs exactly once before every instruction so
  // the injector's RNG stream is identical with blocks on or off. Returns
  // false when a boundary trap (timer runout, injected fault) was raised.
  // Forced inline (cpu.cc), so Step and each of RunBlocks' three
  // boundaries carry their own copy and make no call.
  bool InstructionBoundary();
  // The fault-injection opportunities of the boundary, kept out of line
  // so the common no-injector boundary stays small.
  bool BoundaryInjectionHooks();
  // Fetches, validates, and executes one instruction; the remainder of
  // Step after InstructionBoundary. The block engine falls back to this
  // (after its own boundary call) whenever a block cannot vouch for the
  // next instruction.
  bool StepBody();
  // StepBlock before its settle: the block engine's dispatch, with every
  // early exit (cycle bound, bailout, trap, fallback to StepBody).
  bool RunBlocks(uint64_t cycle_bound);
  bool FetchInstruction(Instruction* ins);
  bool FormEffectiveAddress(const Instruction& ins);
  // The indirection loop of Figure 5, split out of FormEffectiveAddress
  // so the direct-operand case (the overwhelming majority) inlines into
  // the per-op loops without dragging the chase along. `depth` counts the
  // hops already taken (the block engine's resolved first hop is one);
  // the TPR holds the address of the next indirect word.
  bool ChaseIndirectWords(unsigned depth);
  void Execute(const Instruction& ins);

  // --- superblock engine (see DESIGN.md) ---
  // Whether `block` still describes what the per-instruction path would
  // do at (segno, start) under the resident unpaged descriptor `sdw`.
  bool BlockCurrent(const BlockCache::Block& block, const Sdw& sdw) const {
    return block.ring == regs_.ipr.ring && block.base == sdw.base &&
           static_cast<uint64_t>(block.start) + block.count <= sdw.bound;
  }
  // Decodes the straight-line run starting at the current IPR into a
  // block under the resident unpaged descriptor `sdw`, which vouches for
  // the fetch; returns nullptr when not even its first word may be held.
  // Mutable: the chaining engine patches successor links into published
  // blocks.
  BlockCache::Block* TryBuildBlock(const Sdw& sdw);
  // The full dispatch preamble of StepBlock: fetch probe, block lookup
  // (counting a hit) or build. Returns nullptr when the per-instruction
  // path must take this dispatch: with the checks off, when no resident
  // descriptor vouches for the fetch, or when its segment is paged.
  BlockCache::Block* ProbeOrBuildBlock();
  // True for opcodes that must end a block: control transfers, trap
  // raisers, and state-changing privileged instructions.
  static bool EndsBlock(Opcode op);
  // Whether the chaining engine may continue past a completed block whose
  // last opcode is `op`. A subset of the EndsBlock set: trap raisers
  // never reach the chain point (the trap ends the dispatch), and SIO /
  // LDBR are excluded — SIO schedules I/O the run loop must fold into its
  // next cycle bound, and LDBR's flush kills every link stamp anyway.
  static bool ChainEligible(Opcode op);
  // --- per-opcode execute handlers, dispatched through the Execute
  // switch. Each opcode's register effect is written once (ReadEffect,
  // StoredWord, Taken, OpRegister) and shared by its handler and its
  // RunInLoop form ---
  template <Opcode O>
  void ReadEffect(const Instruction& ins, Word value);  // LDA..LDX, ADA..ERA
  template <Opcode O>
  Word StoredWord(const Instruction& ins) const;  // STA..STZ, SPP
  template <Opcode O>
  bool Taken() const;  // TRA, TZE, TNZ, TMI, TPL
  template <Opcode O>
  void OpRegister(const Instruction& ins);  // the ops without a memory operand
  template <Opcode O>
  void OpRead(const Instruction& ins);
  template <Opcode O>
  void OpWrite(const Instruction& ins);
  template <Opcode O>
  void OpTransfer(const Instruction& ins);
  void OpAos(const Instruction& ins);
  void OpEpp(const Instruction& ins);
  void OpCall(const Instruction& ins);
  void OpRet(const Instruction& ins);
  void OpMme(const Instruction& ins);
  void OpSvc(const Instruction& ins);
  void OpLdbr(const Instruction& ins);
  void OpRett(const Instruction& ins);
  void OpSio(const Instruction& ins);
  void OpHlt(const Instruction& ins);
  void OpIllegal(const Instruction& ins);
  // RunBlocks' in-loop forms: runs `ins` whole and returns true when it
  // references nothing or `memo` (the running op whose final TPR was
  // fixed at build, else nullptr) answers each of its references at
  // `version`; otherwise does nothing and returns false, and Execute
  // takes the op. Forced inline (cpu.cc), with the per-kind forms below.
  bool RunInLoop(const Instruction& ins, const BlockCache::Op* memo, uint64_t version);
  template <Opcode O>
  bool ReadInLoop(const Instruction& ins, const BlockCache::Op* memo, uint64_t version);
  template <Opcode O>
  bool WriteInLoop(const Instruction& ins, const BlockCache::Op* memo, uint64_t version);
  template <Opcode O>
  bool TransferInLoop(const BlockCache::Op* memo, uint64_t version);
  // RunBlocks' form for a PR-relative operand (DESIGN.md §7, "Ops run in
  // the loop"): runs `ins` whole and returns true when it is a read or
  // write RunInLoop runs from a memo and PrOperand answers its operand;
  // otherwise does nothing and returns false, and Execute takes the op.
  bool PrRelativeInLoop(const Instruction& ins);
  template <Opcode O>
  bool PrReadInLoop(const Instruction& ins);
  template <Opcode O>
  bool PrWriteInLoop(const Instruction& ins);
  // Figure 5 and the final reference of kind K for a PR-relative operand,
  // from resident descriptors alone: the TPR from PRn plus Xtag, at most
  // one `,*` hop through a word whose F and I bits are clear, and each
  // reference answered by Vouch. Charges and changes nothing until every
  // step has succeeded; then charges each reference as Reference does,
  // leaves the TPR Figure 5 forms, and returns the operand's address and
  // the SDW execute flag NoteStore takes. Ring hardware only, and never with an
  // injector attached (it draws once per hop).
  template <RefKind K>
  bool PrOperand(const Instruction& ins, AbsAddr* addr, bool* target_executable);

  // SDW fetch with descriptor cache and missing-segment trap.
  bool FetchSdw(Segno segno, Sdw* out);
  // Bounds check against a segment bound; raises kBoundsViolation.
  bool CheckBounds(uint64_t bound, Wordno wordno);

  // Final address formation: base + wordno for an unpaged segment, the
  // page-table walk (keyed on `base` as the table base) for a paged one.
  // Returns kNone or kMissingPage; never raises a trap itself.
  TrapCause Translate(bool paged, AbsAddr base, Segno segno, Wordno wordno, AbsAddr* out);
  // The architectural page-table walk, shared by every reference and the
  // supervisor access paths: charges one memory reference, counts a page
  // walk, and reads + decodes the PTW at table_base + pageno.
  // Sets pending_fault_addr_ and returns kMissingPage for an absent page;
  // never raises a trap itself.
  TrapCause WalkPageTable(AbsAddr table_base, Segno segno, Wordno wordno, AbsAddr* out);

  // --- the validated reference (Figures 4-7; see DESIGN.md §7) ---

  // What a validated reference hands the step that uses it.
  struct Ref {
    AbsAddr addr = 0;            // absolute address (not formed for transfers)
    Ring r1 = 0;                 // SDW.R1, for Figure 5's ring maximization
    bool flags_execute = false;  // SDW execute flag, for NoteStore
    // A resident descriptor answered and the segment is unpaged: `addr`
    // stays valid for this (segno, ring) until the block-cache version
    // moves, so a block op's operand memo may keep it (KeepOperand).
    bool memoizable = false;
  };
  // The one routine every Figure 4-7 reference runs: take the descriptor
  // resident in the SDW cache when it vouches for (ring, effective) (on
  // any tier but reference), else from FetchSdw plus the kind's Check*
  // predicate; then charge the check, trap a denial, check bounds, and
  // translate. `effective` differs from `ring` only for transfers. Charges
  // and counts the word access the caller then makes (none for a
  // transfer). Raises the trap and returns false on any failure.
  template <RefKind K>
  bool Reference(Segno segno, Wordno wordno, Ring ring, Ring effective, Ref* out);
  // Whether the resident descriptor `sdw` answers the kind's check at
  // (ring, effective) without a descriptor walk: the checks are off, or
  // the kind's Check* predicate, the one the walk runs, allows it.
  template <RefKind K>
  bool Vouches(const Sdw& sdw, Ring ring, Ring effective) const;
  // The probe: the descriptor resident for `segno` when it vouches for
  // the kind at (ring, effective), else nullptr.
  template <RefKind K>
  const Sdw* Probe(Segno segno, Ring ring, Ring effective) const;
  // A reference a resident descriptor answers whole: that descriptor and,
  // for any kind but a transfer, the word's absolute address.
  struct Vouched {
    const Sdw* sdw = nullptr;  // into the slot: holds until a slot is written
    AbsAddr addr = 0;
  };
  // The memo-hit half of Reference after the probe and up to its charges,
  // which Reference and PrOperand share: the word is in bounds under the
  // vouching slot's descriptor `sdw`, and (but for a transfer) its address
  // lies in the store, through a present PTW in the store for a paged
  // segment. Charges, counts and changes nothing; false when any step
  // fails, and Reference then takes its general path, which raises what
  // the failed step would.
  template <RefKind K>
  bool Locate(const Sdw& sdw, Wordno wordno, Vouched* out) const;
  // The probe plus Locate: the resident descriptor vouches for the kind
  // at (ring, effective) and Locate answers.
  template <RefKind K>
  bool Vouch(Segno segno, Wordno wordno, Ring ring, Ring effective, Vouched* out) const;
  // What a reference Locate answered charges and counts: its check (when
  // `checked`: the checks are on, as they always are in a block), its word
  // access and, for a paged segment, its page-table walk, with one tally
  // bump for all but the walk.
  template <RefKind K>
  void ChargeVouched(bool paged, bool checked);
  // One page-table walk: a memory reference for the PTW, counted in
  // page_walks.
  void ChargeWalk() {
    ++counters_.page_walks;
    cycles_ += cycle_model_.memory_ref;
  }
  // Counts one reference a resident descriptor answered but that trapped
  // before its word access: the SDW-cache hit the descriptor walk would
  // have counted, without the probe. A memo hit that completes is tallied
  // instead (see tally_).
  void CountMemoHit() {
    ++counters_.verdict_hits;
    ++counters_.sdw_cache_hits;
    sdw_cache_.CountHits(1);
  }
  // --- the tally (see DESIGN.md §7) ---
  // The hit paths charge cycles as they go but count by bumping one slot
  // of tally_ per hit; SettleTally folds the slots into counters_ and the
  // SDW cache's hit count at every exit of Step and StepBlock, and costs
  // one test when nothing was tallied (with the fast path off, on every
  // instruction). Slots 0-4 are the RefKinds: a memo-hit Reference of that
  // kind that completed, with its word access (its page-table walk counts
  // itself). Slot 5 is the block engine's committed op: a vouched fetch
  // plus its retired instruction. Whether a hit charged its check is
  // checks_enabled_, which changes only between dispatches, so
  // SettleTally reads it.
  static constexpr size_t kBlockOpHit = 5;
  static constexpr size_t kTallySlots = 6;
  void Tally(size_t slot) {
    ++tally_[slot];
    tallied_ = true;
  }
  void SettleTally();
  bool TallyEmpty() const { return tally_ == decltype(tally_){}; }

  // Operand access paths (Figure 6): the validated reference and the word
  // access, filling the running block op's operand memo (operand_memo_)
  // when the reference may be kept.
  bool ReadOperand(Word* out);
  bool WriteOperand(Word value);
  // The memo-hit accesses of RunInLoop: whether `op`'s memo answers every
  // kind in `kinds` at `version`, and a read, write or transfer it answers,
  // charged and tallied by ChargeVouched and (for a write) snooped exactly
  // as the memo-hit Reference with its word access. Forced inline (cpu.cc).
  bool MemoAnswers(const BlockCache::Op* op, uint8_t kinds, uint64_t version) const;
  Word MemoRead(const BlockCache::Op& op);
  void MemoWrite(const BlockCache::Op& op, Word value);
  void MemoTransfer();
  // Fills operand_memo_ for `kind` from a reference that `ref` says a
  // resident descriptor answered for an unpaged segment.
  void KeepOperand(uint8_t kind, const Ref& ref);

  // The supervisor's validated (`ring` set) and raw accesses: one
  // uncached descriptor lookup, present and bound checks, the read or
  // write rule when validating, translation, then the load or store.
  TrapCause SupervisorAccess(Segno segno, Wordno wordno, std::optional<Ring> ring, Word* word,
                             bool store);

  // Post-store bookkeeping shared by the guest and supervisor write
  // paths: retires the segment's blocks when the target is executable, and
  // snoops stores that land inside the descriptor segment (an SDW edit
  // the processor may have cached).
  void NoteStore(AbsAddr addr, bool target_executable, Segno segno);

  // CALL / RETURN (Figures 8 and 9).
  void ExecuteCall();
  void ExecuteReturn();
  // The step CALL and RETURN share: fetch the target SDW, charge the
  // check, resolve the crossing and check bounds. On success `out` holds
  // the new ring and whether the ring of execution changes; on failure
  // the trap is raised and false returned.
  template <bool kCall>
  bool ResolveCrossing(TransferOutcome* out);
  // Transfer instructions other than CALL/RETURN (Figure 7).
  void ExecuteTransfer();

  // Raises a trap with the state captured at instruction fetch (the
  // disrupted instruction can be resumed).
  void RaiseTrap(TrapCause cause, int64_t code = 0);
  // Raises a service trap whose saved IPR addresses the next instruction.
  void RaiseServiceTrap(TrapCause cause, int64_t code);

  // The effective validation ring under the current protection mode: ring
  // hardware validates against the given ring; the 645 base has no ring
  // fields, so everything validates as ring 0 (flags only).
  Ring EffectiveRing(Ring ring) const {
    return mode_ == ProtectionMode::kRingHardware ? ring : 0;
  }

  PhysicalMemory* memory_;
  CycleModel cycle_model_;
  ProtectionMode mode_ = ProtectionMode::kRingHardware;
  bool checks_enabled_ = true;

  RegisterFile regs_;
  Tpr tpr_{};
  Instruction current_ins_{};
  // The IPR as of the current instruction's fetch. Trap capture rebuilds
  // the full at-fetch register file from the live one plus this (see
  // RaiseTrap): handlers raise before modifying any other register, so
  // only the IPR needs saving at the (hot) instruction boundary.
  Ipr ipr_at_fetch_{};

  bool trap_pending_ = false;
  TrapState trap_state_{};
  SegAddr pending_fault_addr_{};

  bool timer_enabled_ = false;
  int64_t timer_ = 0;

  SdwCache sdw_cache_;
  EngineTier tier_ = EngineTier::kBlocks;
  bool block_call_ablation_ = false;
  BlockCache block_cache_;
  bool chain_ablation_ = false;
  // The block op being executed when its final TPR was fixed at build
  // (BlockCache::Op::direct, or a resolved hop that ends the chase), else
  // nullptr: the memo ReadOperand, WriteOperand and ExecuteTransfer fill
  // (KeepOperand) and RunInLoop answers from. Set and cleared by RunBlocks
  // around each op it hands to Execute.
  BlockCache::Op* operand_memo_ = nullptr;
  FaultInjector* fault_injector_ = nullptr;
  uint64_t cycles_ = 0;
  Counters counters_;
  std::array<uint64_t, kTallySlots> tally_{};
  bool tallied_ = false;  // some slot may be non-zero
  EventTrace* trace_ = nullptr;
  std::function<void(uint8_t, Word)> sio_handler_;
};

}  // namespace rings

#endif  // SRC_CPU_CPU_H_
