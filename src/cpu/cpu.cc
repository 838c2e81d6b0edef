#include "src/cpu/cpu.h"

#include <cassert>

#include "src/base/bitfield.h"
#include "src/mem/page_table.h"

namespace rings {

namespace {

constexpr uint32_t kIndexMask = (uint32_t{1} << kWordnoBits) - 1;

// The one kind -> rule mapping of Figures 4-7: the Check* predicate a
// reference of that kind must pass, the verdict bit that memoizes it, the
// counter its check charges, and the counters its word access bumps (none
// for a transfer, which forms no address). Reference, Vouches,
// SettleTally and the supervisor's accesses read their rule from RuleFor.
struct RefRule {
  AccessDecision (*check)(const SegmentAccess& access, Ring ring, Ring effective);
  bool VerdictCache::Entry::* verdict;
  uint64_t Counters::* charge;
  std::array<uint64_t Counters::*, 2> access;
};

// The predicates in one (access, ring, effective ring) shape; only the
// transfer check of Figure 7 reads the effective ring.
AccessDecision FetchCheck(const SegmentAccess& access, Ring ring, Ring) {
  return CheckExecute(access, ring);
}
AccessDecision IndirectCheck(const SegmentAccess& access, Ring ring, Ring) {
  return CheckIndirectRead(access, ring);
}
AccessDecision ReadCheck(const SegmentAccess& access, Ring ring, Ring) {
  return CheckRead(access, ring);
}
AccessDecision WriteCheck(const SegmentAccess& access, Ring ring, Ring) {
  return CheckWrite(access, ring);
}

constexpr RefRule RuleFor(RefKind kind) {
  switch (kind) {
    case RefKind::kFetch:  // Figure 4
      return {&FetchCheck, &VerdictCache::Entry::execute_ok, &Counters::checks_fetch,
              {&Counters::memory_reads, nullptr}};
    case RefKind::kIndirect:  // Figure 5
      return {&IndirectCheck, &VerdictCache::Entry::indirect_ok, &Counters::checks_indirect,
              {&Counters::memory_reads, &Counters::indirect_words}};
    case RefKind::kRead:  // Figure 6
      return {&ReadCheck, &VerdictCache::Entry::read_ok, &Counters::checks_read,
              {&Counters::memory_reads, nullptr}};
    case RefKind::kWrite:  // Figure 6
      return {&WriteCheck, &VerdictCache::Entry::write_ok, &Counters::checks_write,
              {&Counters::memory_writes, nullptr}};
    case RefKind::kTransfer:
      // Figure 7: the execute verdict answers it only when the effective
      // ring is the ring of execution (see Vouches).
      return {&CheckTransfer, &VerdictCache::Entry::execute_ok, &Counters::checks_transfer,
              {nullptr, nullptr}};
  }
  return {};  // not reached: the switch names every RefKind
}

}  // namespace

Cpu::Cpu(PhysicalMemory* memory, CycleModel cycle_model)
    : memory_(memory), cycle_model_(cycle_model) {}

// ---------------------------------------------------------------------------
// Trap machinery
// ---------------------------------------------------------------------------

void Cpu::RaiseTrap(TrapCause cause, int64_t code) {
  trap_pending_ = true;
  trap_state_.cause = cause;
  // The saved state must be the register file as of the instruction fetch,
  // with the IPR addressing the disrupted instruction. Only the IPR can
  // differ from the live registers at a trap-raising point (the wordno
  // advance, or a transfer target): every handler validates and raises
  // BEFORE it modifies any other architectural register, so the live file
  // with the at-fetch IPR restored IS the at-fetch state. This keeps the
  // per-instruction boundary down to a 3-word IPR capture instead of a
  // full register-file copy.
  trap_state_.regs = regs_;
  trap_state_.regs.ipr = ipr_at_fetch_;
  trap_state_.tpr = tpr_;
  trap_state_.instruction = current_ins_;
  trap_state_.code = code;
  trap_state_.fault_addr = pending_fault_addr_;
  pending_fault_addr_ = SegAddr{};
  counters_.CountTrap(cause);
  cycles_ += cycle_model_.trap;
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Record(TraceEvent{EventKind::kTrap, cycles_, ipr_at_fetch_.ring,
                              SegAddr{ipr_at_fetch_.segno, ipr_at_fetch_.wordno},
                              cause, 0, {}});
  }
}

void Cpu::RaiseServiceTrap(TrapCause cause, int64_t code) {
  // The saved IPR must address the next instruction so that RETT resumes
  // after the service request, not at it.
  RaiseTrap(cause, code);
  trap_state_.regs.ipr.wordno = ipr_at_fetch_.wordno + 1;
}

TrapState Cpu::TakeTrap() {
  trap_pending_ = false;
  return trap_state_;
}

void Cpu::Rett(const RegisterFile& state) {
  const bool dbr_changed = !(state.dbr == regs_.dbr);
  regs_ = state;
  trap_pending_ = false;
  cycles_ += cycle_model_.rett;
  if (dbr_changed) {
    FlushForNewDbr();
  }
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->Record(TraceEvent{EventKind::kTrapReturn, cycles_, regs_.ipr.ring,
                              SegAddr{regs_.ipr.segno, regs_.ipr.wordno}, TrapCause::kNone, 0,
                              {}});
  }
}

void Cpu::SetDbr(const DbrValue& dbr) {
  regs_.dbr = dbr;
  FlushForNewDbr();
}

void Cpu::FlushForNewDbr() {
  // The flush bumps the SDW-cache epoch, retiring every verdict; the
  // decoded-instruction cache, the TLB, and the block cache must also go,
  // since the same segment numbers may now name different segments.
  sdw_cache_.Flush();
  insn_cache_.Flush();
  tlb_.Flush();
  block_cache_.Flush();
}

Cpu::State Cpu::CaptureState() const {
  assert(TallyEmpty() && "machine state is captured between dispatches");
  State state;
  state.cycles = cycles_;
  state.regs = regs_;
  state.tpr = tpr_;
  state.checks_enabled = checks_enabled_;
  state.timer_enabled = timer_enabled_;
  state.timer = timer_;
  state.trap_pending = trap_pending_;
  state.trap_state = trap_state_;
  state.counters = counters_;
  state.sdw_cache = sdw_cache_.CaptureState();
  return state;
}

void Cpu::RestoreState(const State& state) {
  assert(TallyEmpty() && "machine state is restored between dispatches");
  FlushSdwCache();
  FlushInsnCache();
  FlushTlb();
  cycles_ = state.cycles;
  regs_ = state.regs;
  tpr_ = state.tpr;
  checks_enabled_ = state.checks_enabled;
  timer_enabled_ = state.timer_enabled;
  timer_ = state.timer;
  trap_pending_ = state.trap_pending;
  trap_state_ = state.trap_state;
  sdw_cache_.RestoreState(state.sdw_cache);
  counters_ = state.counters;
}

void Cpu::InjectTrap(TrapCause cause, int64_t code) {
  ipr_at_fetch_ = regs_.ipr;
  tpr_ = Tpr{};
  current_ins_ = Instruction{};
  RaiseTrap(cause, code);
}

// ---------------------------------------------------------------------------
// Memory and descriptor access
// ---------------------------------------------------------------------------

bool Cpu::FetchSdw(Segno segno, Sdw* out) {
  if (auto cached = sdw_cache_.Lookup(segno); cached.has_value()) {
    ++counters_.sdw_cache_hits;
    *out = *cached;
    if (!out->present) {
      RaiseTrap(TrapCause::kMissingSegment);
      return false;
    }
    return true;
  }
  ++counters_.sdw_fetches;
  cycles_ += cycle_model_.sdw_fetch;
  if (segno >= regs_.dbr.bound) {
    RaiseTrap(TrapCause::kMissingSegment);
    return false;
  }
  const AbsAddr addr = regs_.dbr.base + static_cast<AbsAddr>(segno) * kSdwPairWords;
  Sdw sdw = DecodeSdw(memory_->Read(addr), memory_->Read(addr + 1));
  if (fault_injector_ != nullptr) {
    // Injected bit damage lands in the fetched copy (and thus the cache),
    // never in the descriptor segment itself: the authoritative SDW stays
    // intact, so the supervisor can detect and recover from the mismatch.
    if (fault_injector_->MaybeCorruptSdw(cycles_, segno, &sdw)) {
      // Translations memoized for this segment were derived through the
      // clean descriptor; they must not survive alongside the damaged
      // copy about to be cached.
      tlb_.InvalidateSegment(segno);
      ++counters_.tlb_invalidations;
    }
  }
  // Whatever the insert evicts from this slot, the matching verdict slot
  // can no longer vouch for it (verdict validity implies SDW residency),
  // and neither can any crossing memo whose target mapped there.
  verdict_cache_.InvalidateSlot(segno % SdwCache::kEntries);
  crossing_cache_.InvalidateSdwSlot(segno % SdwCache::kEntries);
  // A running block's per-op charges assume its segment's SDW stays
  // resident; this insert may have just evicted it (or cached a damaged
  // copy), so any in-flight block must bail and revalidate.
  block_cache_.BumpVersion();
  sdw_cache_.Insert(segno, sdw);
  if (!sdw.present) {
    RaiseTrap(TrapCause::kMissingSegment);
    return false;
  }
  *out = sdw;
  return true;
}

bool Cpu::CheckBounds(uint64_t bound, Wordno wordno) {
  if (wordno >= bound) {
    RaiseTrap(TrapCause::kBoundsViolation);
    return false;
  }
  return true;
}

// Final address resolution. Unpaged segments are contiguous; paged
// segments cost one PTW fetch per reference ("paging is also taken into
// account by the address translation logic, but is totally transparent to
// an executing machine language program").
TrapCause Cpu::Translate(bool paged, AbsAddr base, Segno segno, Wordno wordno, AbsAddr* out) {
  if (!paged) {
    *out = base + wordno;
    return TrapCause::kNone;
  }
  return WalkPageTable(base, segno, wordno, out);
}

TrapCause Cpu::WalkPageTable(AbsAddr table_base, Segno segno, Wordno wordno, AbsAddr* out) {
  // The walk's simulated cost is charged unconditionally: whether the
  // translation comes from the TLB or from the PTW read below, the
  // simulated machine performed one page-table reference.
  ++counters_.page_walks;
  cycles_ += cycle_model_.memory_ref;
  const uint64_t pageno = wordno >> kPageShift;
  if (TlbEnabled()) {
    if (const Tlb::Entry* t = tlb_.Lookup(segno, pageno, table_base)) {
      ++counters_.tlb_hits;
      *out = t->frame + (wordno & kPageMask);
      return TrapCause::kNone;
    }
    ++counters_.tlb_misses;
  }
  const Ptw ptw = DecodePtw(memory_->Read(table_base + pageno));
  if (!ptw.present) {
    pending_fault_addr_ = SegAddr{segno, wordno};
    return TrapCause::kMissingPage;
  }
  if (TlbEnabled()) {
    // Only present pages are memoized, and only after the Read above
    // succeeded — so a later TLB hit can never skip a read the slow path
    // would have faulted on, and missing-page traps always re-walk.
    tlb_.Fill(segno, pageno, table_base, ptw.frame);
  }
  *out = ptw.frame + (wordno & kPageMask);
  return TrapCause::kNone;
}

std::optional<Sdw> Cpu::ReadSdw(Segno segno) const {
  if (segno >= regs_.dbr.bound) {
    return std::nullopt;
  }
  const AbsAddr addr = regs_.dbr.base + static_cast<AbsAddr>(segno) * kSdwPairWords;
  return DecodeSdw(memory_->Read(addr), memory_->Read(addr + 1));
}

TrapCause Cpu::SupervisorAccess(Segno segno, Wordno wordno, std::optional<Ring> ring, Word* word,
                                bool store) {
  const auto sdw = ReadSdw(segno);
  if (!sdw.has_value() || !sdw->present) {
    return TrapCause::kMissingSegment;
  }
  if (wordno >= sdw->bound) {
    return TrapCause::kBoundsViolation;
  }
  if (ring.has_value()) {
    const RefRule rule = RuleFor(store ? RefKind::kWrite : RefKind::kRead);
    if (const AccessDecision decision = rule.check(sdw->access, *ring, *ring); !decision.ok()) {
      return decision.cause;
    }
  }
  AbsAddr addr = 0;
  if (const TrapCause cause = Translate(sdw->paged, sdw->base, segno, wordno, &addr);
      cause != TrapCause::kNone) {
    return cause;
  }
  if (store) {
    memory_->Write(addr, *word);
    NoteStore(addr, sdw->access.flags.execute, segno);
  } else {
    *word = memory_->Read(addr);
  }
  return TrapCause::kNone;
}

// ---------------------------------------------------------------------------
// The validated reference (Figures 4-7)
// ---------------------------------------------------------------------------
//
// Every reference the instruction cycle makes runs this one sequence; a
// verdict-cache hit and a descriptor walk differ only in where the
// descriptor facts come from. The hit is exactly the walk taken with an
// SDW-cache hit: the verdict memoizes the predicate's outcome and the
// SDW's addressing fields, and its invariant (verdict_cache.h) keeps the
// SDW resident, so the charges, checks and traps that follow are the
// same either way. A reference counts its word access too: the caller
// always makes it once the reference succeeds. A memo hit that completes
// is tallied (one slot bump for all its counters); one that traps counts
// directly.

template <RefKind K>
bool Cpu::Vouches(const VerdictCache::Entry& memo, Ring ring, Ring effective) const {
  constexpr bool VerdictCache::Entry::* kVerdict = RuleFor(K).verdict;
  return !checks_enabled_ || (effective == ring && memo.*kVerdict);
}

// Forced inline: the memo hit is the per-reference hot path, and each
// kind's caller is where it must land.
template <RefKind K>
[[gnu::always_inline]] inline bool Cpu::Reference(Segno segno, Wordno wordno, Ring ring,
                                                  Ring effective, Ref* out) {
  constexpr RefRule kRule = RuleFor(K);
  AbsAddr base = 0;
  uint64_t bound = 0;
  bool paged = false;
  const VerdictCache::Entry* memo = K == RefKind::kFetch ? nullptr : FastVerdict(segno, ring);
  const bool memo_hit = memo != nullptr && Vouches<K>(*memo, ring, effective);
  if (memo_hit) {
    // Vouched: the check passes (or checks are off), so only its cycles
    // remain to charge.
    if (checks_enabled_) {
      cycles_ += cycle_model_.access_check;
    }
    base = memo->base;
    bound = memo->bound;
    paged = memo->paged;
    out->r1 = memo->r1;
    out->flags_execute = memo->flags_execute;
  } else {
    Sdw sdw;
    if (!FetchSdw(segno, &sdw)) {
      return false;
    }
    FillVerdict(segno, ring, sdw);
    if (checks_enabled_) {
      ++(counters_.*kRule.charge);
      cycles_ += cycle_model_.access_check;
      if (const TrapCause denial = kRule.check(sdw.access, ring, effective).cause;
          denial != TrapCause::kNone) {
        RaiseTrap(denial);
        return false;
      }
    }
    base = sdw.base;
    bound = sdw.bound;
    paged = sdw.paged;
    out->r1 = sdw.access.brackets.r1;
    out->flags_execute = sdw.access.flags.execute;
  }
  TrapCause cause = wordno >= bound ? TrapCause::kBoundsViolation : TrapCause::kNone;
  if constexpr (K != RefKind::kTransfer) {  // the advance check forms no address
    if (cause == TrapCause::kNone) {
      cause = Translate(paged, base, segno, wordno, &out->addr);
    }
  }
  if (cause != TrapCause::kNone) {
    if (memo_hit) {
      CountMemoHit();
      if (checks_enabled_) {
        ++(counters_.*kRule.charge);
      }
    }
    RaiseTrap(cause);
    return false;
  }
  if (memo_hit) {
    Tally(static_cast<size_t>(K));
  } else {
    for (uint64_t Counters::* counter : kRule.access) {
      if (counter != nullptr) {
        ++(counters_.*counter);
      }
    }
  }
  return true;
}

void Cpu::SettleTally() {
  if (!tallied_) {
    return;
  }
  tallied_ = false;
  uint64_t memo_hits = 0;
  // Fully unrolled, so each slot's rule and paging fold to constants and
  // an empty slot costs one load and one branch.
#pragma GCC unroll 8
  for (size_t slot = 0; slot < kTallySlots; ++slot) {
    const uint64_t n = tally_[slot];
    if (n == 0) {
      continue;
    }
    tally_[slot] = 0;
    memo_hits += n;
    const RefKind kind = slot < kPagedFetchHit ? static_cast<RefKind>(slot) : RefKind::kFetch;
    const RefRule rule = RuleFor(kind);
    if (checks_enabled_) {
      counters_.*rule.charge += n;
    }
    for (uint64_t Counters::* counter : rule.access) {
      if (counter != nullptr) {
        counters_.*counter += n;
      }
    }
    if (kind == RefKind::kFetch) {
      counters_.insn_cache_hits += n;
    }
    if (slot == kPagedFetchHit || slot == kPagedBlockOpHit) {
      // The page-table walk the descriptor path would have performed.
      counters_.page_walks += n;
      counters_.tlb_hits += n;
    }
    if (slot == kBlockOpHit || slot == kPagedBlockOpHit) {
      counters_.instructions += n;
      counters_.block_ops += n;
    }
  }
  counters_.verdict_hits += memo_hits;
  counters_.sdw_cache_hits += memo_hits;
  sdw_cache_.CountHits(memo_hits);
}

// ---------------------------------------------------------------------------
// Instruction cycle
// ---------------------------------------------------------------------------

bool Cpu::Step() {
  if (trap_pending_) {
    return false;
  }
  if (!InstructionBoundary()) {
    return false;
  }
  const bool retired = StepBody();
  SettleTally();
  return retired;
}

bool Cpu::InstructionBoundary() {
  ipr_at_fetch_ = regs_.ipr;
  tpr_ = Tpr{};
  current_ins_ = Instruction{};

  // Scheduling quantum (asynchronous condition checked between
  // instructions).
  if (timer_enabled_) {
    if (timer_ <= 0) {
      timer_enabled_ = false;
      RaiseTrap(TrapCause::kTimerRunout);
      return false;
    }
    --timer_;
  }

  // Fault-injection opportunities at the instruction boundary (split out
  // so the injector-free boundary inlines into the per-op loops).
  if (fault_injector_ != nullptr) {
    return BoundaryInjectionHooks();
  }
  return true;
}

bool Cpu::BoundaryInjectionHooks() {
  size_t index = 0;
  if (fault_injector_->MaybeDropCacheEntry(cycles_, SdwCache::kEntries, &index)) {
    // The dropped register's verdict goes with it, as do any TLB
    // translations and decoded blocks derived through the descriptor it
    // held; the next reference takes the slow path and re-walks the
    // descriptor segment, exactly as it would have without the fast
    // path.
    if (const auto dropped = sdw_cache_.SegnoAtIndex(index); dropped.has_value()) {
      tlb_.InvalidateSegment(*dropped);
      ++counters_.tlb_invalidations;
      counters_.block_invalidations += block_cache_.InvalidateSegment(*dropped);
    }
    sdw_cache_.InvalidateIndex(index);
    verdict_cache_.InvalidateSlot(index);
    crossing_cache_.InvalidateSdwSlot(index);
    ++counters_.verdict_invalidations;
  }
  if (fault_injector_->MaybeSpuriousMissingPage(cycles_, regs_.ipr.segno, regs_.ipr.wordno)) {
    pending_fault_addr_ = SegAddr{regs_.ipr.segno, regs_.ipr.wordno};
    RaiseTrap(TrapCause::kMissingPage);
    return false;
  }
  return true;
}

bool Cpu::StepBody() {
  ++counters_.instructions;
  cycles_ += cycle_model_.instruction_base;

  Instruction ins;
  if (!FetchInstruction(&ins)) {
    return false;
  }
  current_ins_ = ins;

  const OpcodeInfo& info = GetOpcodeInfo(ins.opcode);

  // Privileged-instruction check. "Such instructions are designated as
  // privileged and will be executed by the processor only in ring 0."
  // (SVC extends to ring 1; see opcode table.)
  if (regs_.ipr.ring > info.max_ring) {
    RaiseTrap(TrapCause::kPrivilegedViolation);
    return false;
  }

  // Phase 2 (Figure 5): effective-address formation, for instructions
  // with a memory operand.
  const bool needs_ea = info.operand != OperandKind::kNone &&
                        info.operand != OperandKind::kImmediate;
  if (needs_ea && !FormEffectiveAddress(ins)) {
    return false;
  }

  // Advance the instruction counter before execution; transfers overwrite
  // it, and service traps save the advanced value.
  regs_.ipr.wordno = ipr_at_fetch_.wordno + 1;

  Execute(ins);

  if (trace_ != nullptr && trace_->enabled() && !trap_pending_) {
    trace_->Record(TraceEvent{EventKind::kInstruction, cycles_, regs_.ipr.ring,
                              SegAddr{ipr_at_fetch_.segno, ipr_at_fetch_.wordno},
                              TrapCause::kNone, 0, {}});
  }
  return !trap_pending_;
}

// ---------------------------------------------------------------------------
// Superblock engine
// ---------------------------------------------------------------------------
//
// StepBlock is the run loops' entry point: it executes a whole decoded
// straight-line block per dispatch instead of re-entering Step per
// instruction. Each op runs the same instruction boundary (timer, fault
// hooks, trap-capture state) and charges exactly what the per-instruction
// path charges on a verdict + decode hit, which — by the verdict cache's
// invariant — is exactly what the slow path charges with an SDW-cache
// hit. Anything a block cannot vouch for bails to StepBody, the identical
// per-instruction path, after the boundary it already consumed. The
// counters of those charges are tallied, and StepBlock settles the tally
// once, after whichever exit RunBlocks took.

bool Cpu::StepBlock(uint64_t cycle_bound) {
  const bool retired = RunBlocks(cycle_bound);
  SettleTally();
  return retired;
}

bool Cpu::RunBlocks(uint64_t cycle_bound) {
  if (trap_pending_) {
    return false;
  }
  if (!InstructionBoundary()) {
    return false;
  }
  if (tier_ != EngineTier::kBlocks || !sdw_cache_.enabled()) {
    return StepBody();
  }
  BlockCache::Block* b = ProbeOrBuildBlock();
  if (b == nullptr) {
    return StepBody();
  }

  // The outer loop is the chaining engine (see DESIGN.md §7): after a
  // block completes trap-free inside the cycle bound, the chain point
  // either follows the block's patched successor link (validated by its
  // version stamp plus a key compare against the live IPR) or runs the
  // dispatch preamble once and patches the link for next time. Either way
  // execution stays in this frame block after block instead of returning
  // to the run loop per block; a follow additionally skips the verdict
  // probe, the cache hash, and the BlockCurrent revalidation.
  for (;;) {
    const uint64_t version = block_cache_.version();
    // Every op of the block bumps this one slot; mark the tally once.
    uint64_t& op_tally = tally_[b->paged ? kPagedBlockOpHit : kBlockOpHit];
    tallied_ = true;
    for (uint16_t i = 0; i < b->count; ++i) {
      if (i != 0) {
        // Boundary conditions the caller's run loop services between
        // instructions: its cycle budget / due I/O (cycle_bound) and a
        // latched physical-store fault. Stop *before* consuming this op's
        // instruction boundary so no fault-injection opportunity is taken
        // that the per-instruction loop would not have taken.
        if (cycles_ >= cycle_bound || memory_->fault_pending()) {
          return true;
        }
        if (!InstructionBoundary()) {
          return false;
        }
        // Once the boundary ran we are committed to exactly one
        // instruction; if an invalidation landed under the block (SDW
        // eviction or drop, store into this code, descriptor edit), take
        // it through the per-instruction path instead.
        if (block_cache_.version() != version) {
          ++counters_.block_bailouts;
          return StepBody();
        }
      }
      const BlockCache::Op& op = b->ops[i];
      if (b->paged) {
        // Paged fetches revalidate through the live TLB every op: a moved
        // page, snooped PTW, or evicted translation makes the comparison
        // fail and the op re-fetches on the slow path (which re-walks and,
        // if the page vanished, takes the same missing-page trap the
        // per-instruction path would take).
        const Tlb::Entry* t = tlb_.Lookup(b->segno, op.wordno >> kPageShift, b->base);
        if (t == nullptr || t->frame + (op.wordno & kPageMask) != op.addr) {
          ++counters_.block_bailouts;
          return StepBody();
        }
      }
      // The per-instruction vouched fetch's charges: the cycles are the
      // block's precomputed per-op charge, which folds the instruction
      // base in with them, and the counters one tally bump.
      cycles_ += b->op_charge;
      ++op_tally;
      current_ins_ = op.ins;
      if (op.needs_ea && !FormEffectiveAddress(op.ins)) {
        return false;
      }
      regs_.ipr.wordno = op.wordno + 1;
      Execute(op.ins);
      if (block_call_ablation_ && op.ins.opcode == Opcode::kCall) {
        ++cycles_;  // deliberately broken (fuzz-oracle test hook); see cpu.h
      }
      if (trap_pending_) {
        return false;
      }
      if (trace_ != nullptr && trace_->enabled()) {
        trace_->Record(TraceEvent{EventKind::kInstruction, cycles_, regs_.ipr.ring,
                                  SegAddr{ipr_at_fetch_.segno, ipr_at_fetch_.wordno},
                                  TrapCause::kNone, 0, {}});
      }
    }

    // Chain point: the block completed without a trap, so regs_.ipr names
    // the architectural successor (transfer target or fall-through).
    if (!b->chain_ok) {
      return true;
    }
    if (cycles_ >= cycle_bound || memory_->fault_pending()) {
      return true;
    }
    // The next instruction's boundary (timer, fault hooks), exactly as a
    // fresh dispatch would run it before probing.
    if (!InstructionBoundary()) {
      return false;
    }
    const uint64_t now = block_cache_.version();
    BlockCache::Block* next = nullptr;
    if (b->link_slot != BlockCache::kNoLink && b->link_version == now) {
      // The stamp proves the linked slot held a block valid under the
      // current version when the link was patched, and that no
      // invalidation has landed since — so base/paging/bound revalidation
      // (BlockCurrent) is already implied. The key compare handles
      // everything the version does not pin: slot repurposing for a
      // different start, a conditional transfer going the other way this
      // time, and ring or checks regime changes.
      BlockCache::Block* cand = block_cache_.BlockAt(b->link_slot);
      if (cand->gen == block_cache_.generation() && cand->segno == regs_.ipr.segno &&
          cand->start == regs_.ipr.wordno && cand->ring == regs_.ipr.ring &&
          cand->checks == checks_enabled_) {
        next = cand;
        ++counters_.chain_follows;
        if (chain_ablation_) {
          ++cycles_;  // deliberately broken (fuzz-oracle test hook); see cpu.h
        }
      }
    }
    if (next == nullptr) {
      next = ProbeOrBuildBlock();
      if (next == nullptr) {
        // The boundary was consumed; fall back exactly as a dispatch miss
        // does, so block formation is identical to a fresh dispatch's.
        return StepBody();
      }
      // Patch (or repatch — a conditional site flips between targets) the
      // successor link, stamped with the version the target was just
      // validated under.
      b->link_slot = block_cache_.SlotIndexOf(next);
      b->link_version = now;
      ++counters_.chain_links;
    }
    b = next;
  }
}

// Block formation: chain consecutive cached decodes, stopping at the
// segment bound, the gate-region boundary, the first missing or
// unverifiable decode, an op the current ring may not execute (it must
// trap on the per-instruction path), and — inclusively — any control
// transfer or trap-raising/privileged terminator.
BlockCache::Block* Cpu::TryBuildBlock(const VerdictCache::Entry& v) {
  const Segno segno = regs_.ipr.segno;
  const Wordno start = regs_.ipr.wordno;
  // The verdict's invariant guarantees the SDW is resident; its gate
  // count marks the boundary a straight-line run may not cross.
  const auto sdw = sdw_cache_.Peek(segno);
  const uint32_t gate = sdw.has_value() ? sdw->access.gate_count : 0;

  BlockCache::Block* b = block_cache_.SlotFor(segno, start);
  b->gen = 0;  // unpublish whatever the slot held while we fill it
  // The slot's old occupant may have carried a successor link; the new
  // block has not resolved one yet.
  b->link_slot = BlockCache::kNoLink;
  b->link_version = 0;
  uint16_t count = 0;
  while (count < BlockCache::kMaxOps) {
    const Wordno w = start + count;
    if (w >= v.bound) {
      break;
    }
    if (count != 0 && start < gate && w >= gate) {
      break;  // falling out of the gate region ends the block
    }
    const InsnCache::Entry* e = insn_cache_.Lookup(segno, w);
    if (e == nullptr) {
      break;
    }
    AbsAddr expected = 0;
    if (!v.paged) {
      expected = v.base + w;
    } else {
      const Tlb::Entry* t = tlb_.Lookup(segno, w >> kPageShift, v.base);
      if (t == nullptr) {
        break;
      }
      expected = t->frame + (w & kPageMask);
    }
    if (e->addr != expected) {
      break;
    }
    const OpcodeInfo& info = GetOpcodeInfo(e->ins.opcode);
    if (regs_.ipr.ring > info.max_ring) {
      break;  // privileged violation; the slow path raises it
    }
    BlockCache::Op& op = b->ops[count];
    op.ins = e->ins;
    op.wordno = w;
    op.addr = expected;
    op.needs_ea =
        info.operand != OperandKind::kNone && info.operand != OperandKind::kImmediate;
    ++count;
    if (EndsBlock(e->ins.opcode)) {
      break;
    }
  }
  if (count == 0) {
    return nullptr;
  }
  b->segno = segno;
  b->start = start;
  b->count = count;
  b->ring = regs_.ipr.ring;
  b->checks = checks_enabled_;
  b->paged = v.paged;
  b->base = v.base;
  b->op_charge = cycle_model_.instruction_base + VouchedFetchCycles(v.paged);
  b->chain_ok = ChainEligible(b->ops[count - 1].ins.opcode);
  b->gen = block_cache_.generation();
  ++counters_.block_builds;
  return b;
}

bool Cpu::EndsBlock(Opcode op) {
  switch (op) {
    case Opcode::kTra:
    case Opcode::kTze:
    case Opcode::kTnz:
    case Opcode::kTmi:
    case Opcode::kTpl:
    case Opcode::kCall:
    case Opcode::kRet:
    case Opcode::kMme:
    case Opcode::kSvc:
    case Opcode::kLdbr:
    case Opcode::kRett:
    case Opcode::kSio:
    case Opcode::kHlt:
      return true;
    default:
      return false;
  }
}

// The dispatch preamble shared by StepBlock's entry and its chain point:
// verdict probe, block-cache probe with revalidation, rebuild on miss.
BlockCache::Block* Cpu::ProbeOrBuildBlock() {
  const Ring ring = EffectiveRing(regs_.ipr.ring);
  const VerdictCache::Entry* v = FastVerdict(regs_.ipr.segno, ring);
  if (v == nullptr || !Vouches<RefKind::kFetch>(*v, ring, ring)) {
    return nullptr;
  }
  BlockCache::Block* b = block_cache_.LookupMutable(regs_.ipr.segno, regs_.ipr.wordno);
  if (b != nullptr && BlockCurrent(*b, *v)) {
    ++counters_.block_hits;
    return b;
  }
  // Miss or stale under the current verdict/mode: rebuild in place from
  // whatever decodes the insn cache holds right now.
  return TryBuildBlock(*v);
}

// Whether a block ending in `op` may chain straight into its successor.
// Trap-raising terminators (MME, SVC, RETT, HLT, failed transfers) never
// reach the chain point — a pending trap ends the dispatch first.
bool Cpu::ChainEligible(Opcode op) {
  switch (op) {
    case Opcode::kSio:
      // SIO may queue I/O with a due cycle inside the bound the run loop
      // computed before this dispatch; chaining past it would run on a
      // stale bound and deliver the completion late.
      return false;
    case Opcode::kLdbr:
      // The DBR reload flushed every cache; any link stamp is already
      // dead, and the successor must be rebuilt under the new descriptor
      // regime anyway.
      return false;
    default:
      return true;
  }
}

// Figure 4: "Retrieval of next instruction to be executed." At the point
// the SDW for the segment containing the instruction is available, the
// ring of execution is matched against the execute bracket and the
// execute flag is checked.
bool Cpu::FetchInstruction(Instruction* ins) {
  const Ring ring = EffectiveRing(regs_.ipr.ring);
  const Segno segno = regs_.ipr.segno;
  const Wordno wordno = regs_.ipr.wordno;

  // The decode cache, on top of the verdict memo: when the verdict vouches
  // for the fetch and a cached decode's fill address matches the address
  // the reference would form, that decode is the word the reference would
  // read. For unpaged segments that address is verdict base + wordno; for
  // paged ones the TLB supplies the frame (keyed on the verdict's base as
  // the table base). Charge what the reference charges on a memo hit and
  // skip the re-fetch and re-decode.
  if (const VerdictCache::Entry* v = FastVerdict(segno, ring);
      v != nullptr && Vouches<RefKind::kFetch>(*v, ring, ring) && wordno < v->bound) {
    AbsAddr expected = v->base + wordno;
    bool have_addr = !v->paged;
    if (v->paged) {
      if (const Tlb::Entry* t = tlb_.Lookup(segno, wordno >> kPageShift, v->base)) {
        expected = t->frame + (wordno & kPageMask);
        have_addr = true;
      }
    }
    const InsnCache::Entry* cached = have_addr ? insn_cache_.Lookup(segno, wordno) : nullptr;
    if (cached != nullptr && cached->addr == expected) {
      ChargeVouchedFetch(v->paged, VouchedFetchCycles(v->paged));
      *ins = cached->ins;
      return true;
    }
  }

  Ref ref;
  if (!Reference<RefKind::kFetch>(segno, wordno, ring, ring, &ref)) {
    return false;
  }
  cycles_ += cycle_model_.memory_ref;
  const Word word = memory_->Read(ref.addr);
  if (!DecodeInstruction(word, ins)) {
    RaiseTrap(TrapCause::kIllegalOpcode);
    return false;
  }
  if (tier_ != EngineTier::kReference && sdw_cache_.enabled()) {
    // Paged decodes are cacheable too: the fill address is an absolute
    // frame address, and a later fast-path hit revalidates it against the
    // TLB's current translation for the page.
    ++counters_.insn_cache_misses;
    insn_cache_.Put(segno, wordno, ref.addr, *ins);
  }
  return true;
}

// Figure 5: "Formation in TPR of effective address of instruction
// operand." TPR.RING accumulates, via max, every ring that could have
// influenced the address: the current ring of execution, the ring in a
// base pointer register, the ring in each indirect word, and the top of
// the write bracket (SDW.R1) of each segment an indirect word was fetched
// from.
bool Cpu::FormEffectiveAddress(const Instruction& ins) {
  tpr_.ring = regs_.ipr.ring;

  int64_t wordno;
  if (ins.pr_relative) {
    const PointerRegister& pr = regs_.pr[ins.prnum];
    tpr_.segno = pr.segno;
    wordno = static_cast<int64_t>(pr.wordno) + ins.offset;
    if (mode_ == ProtectionMode::kRingHardware) {
      tpr_.ring = MaxRing(tpr_.ring, pr.ring);
    }
  } else {
    tpr_.segno = regs_.ipr.segno;
    wordno = ins.offset;
  }
  if (ins.tag != 0) {
    wordno += static_cast<int64_t>(regs_.x[ins.tag]);
  }
  if (wordno < 0 || wordno > kMaxWordno) {
    RaiseTrap(TrapCause::kBoundsViolation);
    return false;
  }
  tpr_.wordno = static_cast<Wordno>(wordno);

  if (!ins.indirect) {
    return true;
  }
  return ChaseIndirectWords();
}

bool Cpu::ChaseIndirectWords() {
  bool indirect = true;
  unsigned depth = 0;
  while (indirect) {
    if (++depth > kMaxIndirectionDepth) {
      RaiseTrap(TrapCause::kIndirectionLimit);
      return false;
    }
    // "The capability to read an indirect word during effective address
    // formation must be validated before the indirect word is retrieved.
    // Validation is with respect to the value in TPR.RING at the time the
    // indirect word is encountered."
    const Ring ring = EffectiveRing(tpr_.ring);
    Ref ref;
    if (!Reference<RefKind::kIndirect>(tpr_.segno, tpr_.wordno, ring, ring, &ref)) {
      return false;
    }
    cycles_ += cycle_model_.memory_ref;
    IndirectWord iw = DecodeIndirectWord(memory_->Read(ref.addr));
    if (fault_injector_ != nullptr && !iw.fault) {
      fault_injector_->MaybeCorruptIndirectRing(cycles_, tpr_.segno, tpr_.wordno, &iw);
    }
    if (iw.fault) {
      // An unsnapped dynamic link: trap so the supervisor can resolve the
      // symbolic reference, overwrite this word with a snapped pointer,
      // and resume the disrupted instruction. The fault address locates
      // the link word itself.
      pending_fault_addr_ = SegAddr{tpr_.segno, tpr_.wordno};
      RaiseTrap(TrapCause::kLinkFault);
      return false;
    }
    if (mode_ == ProtectionMode::kRingHardware) {
      // "TPR.RING is updated with the larger of its current value, the
      // ring number in the indirect word (IND.RING), and the top of the
      // write bracket for the segment containing the indirect word
      // (SDW.R1)."
      tpr_.ring = MaxRing(tpr_.ring, iw.ring, ref.r1);
    }
    tpr_.segno = iw.segno;
    tpr_.wordno = iw.wordno;
    indirect = iw.indirect;
  }
  return true;
}

// Figure 6: instructions which read or write their operands.
bool Cpu::ReadOperand(Word* out) {
  const Ring ring = EffectiveRing(tpr_.ring);
  Ref ref;
  if (!Reference<RefKind::kRead>(tpr_.segno, tpr_.wordno, ring, ring, &ref)) {
    return false;
  }
  cycles_ += cycle_model_.memory_ref;
  *out = memory_->Read(ref.addr);
  return true;
}

bool Cpu::WriteOperand(Word value) {
  const Ring ring = EffectiveRing(tpr_.ring);
  Ref ref;
  if (!Reference<RefKind::kWrite>(tpr_.segno, tpr_.wordno, ring, ring, &ref)) {
    return false;
  }
  cycles_ += cycle_model_.memory_ref;
  memory_->Write(ref.addr, value);
  NoteStore(ref.addr, ref.flags_execute, tpr_.segno);
  return true;
}

void Cpu::NoteStore(AbsAddr addr, bool target_executable, Segno segno) {
  if (target_executable) {
    // Self-modifying (or link-snapped) code: drop any cached decodes for
    // the segment so the next fetch re-reads the stored word. Blocks
    // chained from those decodes retire with them — including the block
    // this store may be executing from (the version bump bails it).
    insn_cache_.InvalidateSegment(segno);
    counters_.block_invalidations += block_cache_.InvalidateSegment(segno);
    ++counters_.insn_cache_invalidations;
  }
  // The store may have landed on a page-table word some TLB entry
  // memoized; the snoop drops exactly those translations.
  if (const size_t dropped = tlb_.NoteStore(addr); dropped != 0) {
    counters_.tlb_invalidations += dropped;
  }
  // A store that lands inside the descriptor segment edits an SDW behind
  // the processor's associative registers; treat it exactly like a
  // supervisor InvalidateSdw for the segment whose descriptor pair the
  // word belongs to.
  const AbsAddr dseg_base = regs_.dbr.base;
  if (addr >= dseg_base &&
      addr < dseg_base + static_cast<AbsAddr>(regs_.dbr.bound) * kSdwPairWords) {
    InvalidateSdw(static_cast<Segno>((addr - dseg_base) / kSdwPairWords));
  }
}

// Figure 7: transfer instructions other than CALL and RETURN. The advance
// check catches the violation "while it is still possible to identify the
// instruction which made the illegal transfer"; a raised effective ring is
// rejected because these transfers cannot change the ring of execution.
void Cpu::ExecuteTransfer() {
  // Validated for the ring of execution; in the 645 base both rings are 0.
  Ref ref;
  if (Reference<RefKind::kTransfer>(tpr_.segno, tpr_.wordno, EffectiveRing(regs_.ipr.ring),
                                    EffectiveRing(tpr_.ring), &ref)) {
    regs_.ipr.segno = tpr_.segno;
    regs_.ipr.wordno = tpr_.wordno;
  }
}

// Figures 8 and 9 share this step. The crossing cache memoizes the
// resolution per call site (see crossing_cache.h): on a hit the SDW
// fetch, gate check, and bracket comparison are all replayed from the
// memo with the exact charges the walk takes on an SDW-cache hit.
template <bool kCall>
[[gnu::always_inline]] inline bool Cpu::ResolveCrossing(TransferOutcome* out) {
  if (mode_ == ProtectionMode::kFlags645) {
    // The 645-style base has no call hardware; rings are crossed by MME
    // traps handled in software (src/b645).
    RaiseTrap(TrapCause::kIllegalOpcode);
    return false;
  }
  uint64_t Counters::* const charge = kCall ? &Counters::checks_call : &Counters::checks_return;
  const Ring old_ring = regs_.ipr.ring;
  const bool memo_enabled = CrossingCacheEnabled();
  CrossingCache::Entry& memo = crossing_cache_.SlotFor(ipr_at_fetch_.segno, ipr_at_fetch_.wordno);
  if (memo_enabled) {
    if (crossing_cache_.Valid(memo, kCall, ipr_at_fetch_.segno, ipr_at_fetch_.wordno, tpr_.segno,
                              tpr_.wordno, tpr_.ring, old_ring, sdw_cache_.flush_epoch())) {
      ++counters_.sdw_cache_hits;
      sdw_cache_.CountHits(1);
      ++(counters_.*charge);
      cycles_ += cycle_model_.access_check;
      ++counters_.crossing_hits;
      *out = TransferOutcome::Enter(memo.new_ring, memo.ring_changed);
      return true;
    }
  }

  Sdw sdw;
  if (!FetchSdw(tpr_.segno, &sdw)) {
    return false;
  }
  ++(counters_.*charge);
  cycles_ += cycle_model_.access_check;
  *out = TransferOutcome::Enter(old_ring, false);
  if (checks_enabled_) {
    if constexpr (kCall) {
      const bool same_segment = tpr_.segno == ipr_at_fetch_.segno;
      *out = ResolveCall(sdw.access, old_ring, tpr_.ring, tpr_.wordno, same_segment);
    } else {
      *out = ResolveReturn(sdw.access, old_ring, tpr_.ring);
    }
    if (!out->ok()) {
      RaiseTrap(out->cause);
      return false;
    }
  }
  if (!CheckBounds(sdw.bound, tpr_.wordno)) {
    return false;
  }
  if (!kCall) {
    out->ring_changed = out->new_ring > old_ring;  // a RETURN can only go up
  }
  if (memo_enabled) {
    ++counters_.crossing_misses;
    crossing_cache_.Fill(memo, kCall, ipr_at_fetch_.segno, ipr_at_fetch_.wordno, tpr_.segno,
                         tpr_.wordno, tpr_.ring, old_ring, sdw_cache_.flush_epoch(), out->new_ring,
                         out->ring_changed);
  }
  return true;
}

// Figure 8: the CALL instruction.
void Cpu::ExecuteCall() {
  TransferOutcome outcome;
  if (!ResolveCrossing</*kCall=*/true>(&outcome)) {
    return;
  }
  const Ring old_ring = regs_.ipr.ring;
  const Ring new_ring = outcome.new_ring;
  const bool ring_changed = outcome.ring_changed;
  if (ring_changed) {
    ++counters_.calls_downward;
  } else {
    ++counters_.calls_same_ring;
  }

  // Stack rule (Figure 8 footnote): same-ring calls keep the current stack
  // segment (from the stack pointer register); ring-changing calls use the
  // standard stack segment DBR.stack_base + new ring.
  const uint64_t stack_segno = SelectStackSegment(
      ring_changed, regs_.pr[kPrStack].segno, regs_.dbr.stack_base, new_ring);
  regs_.pr[kPrStackBase] =
      PointerRegister{new_ring, static_cast<Segno>(stack_segno), 0};

  // Return pointer (see DESIGN.md): the old ring/segno/wordno+1. Its ring
  // field is >= the new ring, preserving the PR-ring invariant.
  regs_.pr[kPrReturn] = PointerRegister{old_ring, ipr_at_fetch_.segno,
                                        ipr_at_fetch_.wordno + 1};

  if (ring_changed && trace_ != nullptr && trace_->enabled()) {
    trace_->Record(TraceEvent{EventKind::kRingSwitch, cycles_, old_ring,
                              SegAddr{tpr_.segno, tpr_.wordno}, TrapCause::kNone, new_ring, {}});
  }

  regs_.ipr = Ipr{new_ring, tpr_.segno, tpr_.wordno};
}

// Figure 9: the RETURN instruction. "The ring to which the return is made
// is specified by the effective ring portion of the effective address....
// In the case that the return is upward, the ring number fields in all
// pointer registers are replaced with the larger of their current values
// and the new ring of execution."
void Cpu::ExecuteReturn() {
  TransferOutcome outcome;
  if (!ResolveCrossing</*kCall=*/false>(&outcome)) {
    return;
  }
  const Ring old_ring = regs_.ipr.ring;
  const Ring new_ring = outcome.new_ring;
  if (outcome.ring_changed) {
    ++counters_.returns_upward;
    for (PointerRegister& pr : regs_.pr) {
      pr.ring = MaxRing(pr.ring, new_ring);
    }
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->Record(TraceEvent{EventKind::kRingSwitch, cycles_, old_ring,
                                SegAddr{tpr_.segno, tpr_.wordno}, TrapCause::kNone, new_ring, {}});
    }
  } else {
    ++counters_.returns_same_ring;
  }

  regs_.ipr = Ipr{new_ring, tpr_.segno, tpr_.wordno};
}

// Per-opcode execute handlers, dispatched through the Execute switch by
// both the per-instruction path and the superblock inner loop.

void Cpu::OpNop(const Instruction& ins) { (void)ins; }

void Cpu::OpLda(const Instruction& ins) {
  (void)ins;
  Word value = 0;
  if (ReadOperand(&value)) {
    regs_.a = value;
  }
}

void Cpu::OpLdq(const Instruction& ins) {
  (void)ins;
  Word value = 0;
  if (ReadOperand(&value)) {
    regs_.q = value;
  }
}

void Cpu::OpLdx(const Instruction& ins) {
  Word value = 0;
  if (ReadOperand(&value)) {
    regs_.x[ins.reg] = static_cast<uint32_t>(value) & kIndexMask;
  }
}

void Cpu::OpSta(const Instruction& ins) {
  (void)ins;
  WriteOperand(regs_.a);
}

void Cpu::OpStq(const Instruction& ins) {
  (void)ins;
  WriteOperand(regs_.q);
}

void Cpu::OpStx(const Instruction& ins) { WriteOperand(regs_.x[ins.reg]); }

void Cpu::OpStz(const Instruction& ins) {
  (void)ins;
  WriteOperand(0);
}

void Cpu::OpLdai(const Instruction& ins) {
  regs_.a = static_cast<Word>(static_cast<int64_t>(ins.offset));
}

void Cpu::OpLdqi(const Instruction& ins) {
  regs_.q = static_cast<Word>(static_cast<int64_t>(ins.offset));
}

void Cpu::OpLdxi(const Instruction& ins) {
  regs_.x[ins.reg] = static_cast<uint32_t>(ins.offset) & kIndexMask;
}

void Cpu::OpAdai(const Instruction& ins) {
  regs_.a += static_cast<Word>(static_cast<int64_t>(ins.offset));
}

void Cpu::OpAda(const Instruction& ins) {
  (void)ins;
  Word value = 0;
  if (ReadOperand(&value)) {
    regs_.a += value;
  }
}

void Cpu::OpSba(const Instruction& ins) {
  (void)ins;
  Word value = 0;
  if (ReadOperand(&value)) {
    regs_.a -= value;
  }
}

void Cpu::OpMpy(const Instruction& ins) {
  (void)ins;
  Word value = 0;
  if (ReadOperand(&value)) {
    regs_.a *= value;
  }
}

void Cpu::OpAna(const Instruction& ins) {
  (void)ins;
  Word value = 0;
  if (ReadOperand(&value)) {
    regs_.a &= value;
  }
}

void Cpu::OpOra(const Instruction& ins) {
  (void)ins;
  Word value = 0;
  if (ReadOperand(&value)) {
    regs_.a |= value;
  }
}

void Cpu::OpEra(const Instruction& ins) {
  (void)ins;
  Word value = 0;
  if (ReadOperand(&value)) {
    regs_.a ^= value;
  }
}

void Cpu::OpAls(const Instruction& ins) {
  regs_.a = ins.offset >= 64 ? 0 : regs_.a << (ins.offset & 63);
}

void Cpu::OpArs(const Instruction& ins) {
  regs_.a = ins.offset >= 64 ? 0 : regs_.a >> (ins.offset & 63);
}

void Cpu::OpNega(const Instruction& ins) {
  (void)ins;
  regs_.a = ~regs_.a + 1;
}

void Cpu::OpXaq(const Instruction& ins) {
  (void)ins;
  std::swap(regs_.a, regs_.q);
}

void Cpu::OpAos(const Instruction& ins) {
  (void)ins;
  Word value = 0;
  if (ReadOperand(&value)) {
    WriteOperand(value + 1);
  }
}

void Cpu::OpEpp(const Instruction& ins) {
  // EAP-type (Figure 7): "instructions which load the RING, SEGNO and
  // WORDNO fields of PRn with the corresponding fields of TPR. The
  // operand is not referenced, so no access validation is required."
  regs_.pr[ins.reg] = PointerRegister{tpr_.ring, tpr_.segno, tpr_.wordno};
}

void Cpu::OpSpp(const Instruction& ins) {
  // Store PRn as an indirect word. The stored RING field is the PR's
  // ring, so an argument address saved to memory keeps its validation
  // level ("If PR1 is then stored as an indirect word, this effective
  // ring is put into the RING field of the indirect word").
  const PointerRegister& pr = regs_.pr[ins.reg];
  WriteOperand(EncodeIndirectWord(IndirectWord{pr.ring, false, pr.segno, pr.wordno}));
}

void Cpu::OpTra(const Instruction& ins) {
  (void)ins;
  ExecuteTransfer();
}

void Cpu::OpTze(const Instruction& ins) {
  (void)ins;
  if (regs_.a == 0) {
    ExecuteTransfer();
  }
}

void Cpu::OpTnz(const Instruction& ins) {
  (void)ins;
  if (regs_.a != 0) {
    ExecuteTransfer();
  }
}

void Cpu::OpTmi(const Instruction& ins) {
  (void)ins;
  if (static_cast<int64_t>(regs_.a) < 0) {
    ExecuteTransfer();
  }
}

void Cpu::OpTpl(const Instruction& ins) {
  (void)ins;
  if (static_cast<int64_t>(regs_.a) >= 0) {
    ExecuteTransfer();
  }
}

void Cpu::OpCall(const Instruction& ins) {
  (void)ins;
  ExecuteCall();
}

void Cpu::OpRet(const Instruction& ins) {
  (void)ins;
  ExecuteReturn();
}

void Cpu::OpMme(const Instruction& ins) {
  RaiseServiceTrap(TrapCause::kMasterModeEntry, ins.offset);
}

void Cpu::OpSvc(const Instruction& ins) {
  RaiseServiceTrap(TrapCause::kSupervisorService, ins.offset);
}

void Cpu::OpLdbr(const Instruction& ins) {
  (void)ins;
  // Privileged: load the DBR from the operand pair (base word and
  // bound/stack word) and flush the descriptor cache.
  Word w0 = 0;
  Word w1 = 0;
  if (!ReadOperand(&w0)) {
    return;
  }
  ++tpr_.wordno;
  if (!ReadOperand(&w1)) {
    return;
  }
  DbrValue dbr;
  dbr.base = ExtractBits(w0, 0, 40);
  dbr.bound = static_cast<Segno>(ExtractBits(w1, 0, kSegnoBits));
  dbr.stack_base = static_cast<Segno>(ExtractBits(w1, kSegnoBits, kSegnoBits));
  SetDbr(dbr);
}

void Cpu::OpRett(const Instruction& ins) {
  (void)ins;
  // Guest-code RETT is not used in this reproduction (trap handling is
  // dispatched to the C++ supervisor, which resumes via Cpu::Rett);
  // executing it in guest ring-0 code is an error.
  RaiseTrap(TrapCause::kIllegalOpcode);
}

void Cpu::OpSio(const Instruction& ins) {
  Word value = 0;
  if (ReadOperand(&value)) {
    if (sio_handler_) {
      sio_handler_(ins.reg, value);
    }
  }
}

void Cpu::OpHlt(const Instruction& ins) {
  (void)ins;
  RaiseServiceTrap(TrapCause::kHalt, 0);
}

void Cpu::OpIllegal(const Instruction& ins) {
  (void)ins;
  RaiseTrap(TrapCause::kIllegalOpcode);
}

// Both the per-instruction path and the block inner loop dispatch through
// this switch: the handlers live in this translation unit, so the switch
// lets the compiler inline the hot ones, which an indirect member-pointer
// call could not.
void Cpu::Execute(const Instruction& ins) {
  switch (ins.opcode) {
    case Opcode::kNop: return OpNop(ins);
    case Opcode::kLda: return OpLda(ins);
    case Opcode::kLdq: return OpLdq(ins);
    case Opcode::kLdx: return OpLdx(ins);
    case Opcode::kSta: return OpSta(ins);
    case Opcode::kStq: return OpStq(ins);
    case Opcode::kStx: return OpStx(ins);
    case Opcode::kStz: return OpStz(ins);
    case Opcode::kLdai: return OpLdai(ins);
    case Opcode::kLdqi: return OpLdqi(ins);
    case Opcode::kLdxi: return OpLdxi(ins);
    case Opcode::kAdai: return OpAdai(ins);
    case Opcode::kAda: return OpAda(ins);
    case Opcode::kSba: return OpSba(ins);
    case Opcode::kMpy: return OpMpy(ins);
    case Opcode::kAna: return OpAna(ins);
    case Opcode::kOra: return OpOra(ins);
    case Opcode::kEra: return OpEra(ins);
    case Opcode::kAls: return OpAls(ins);
    case Opcode::kArs: return OpArs(ins);
    case Opcode::kNega: return OpNega(ins);
    case Opcode::kXaq: return OpXaq(ins);
    case Opcode::kAos: return OpAos(ins);
    case Opcode::kEpp: return OpEpp(ins);
    case Opcode::kSpp: return OpSpp(ins);
    case Opcode::kTra: return OpTra(ins);
    case Opcode::kTze: return OpTze(ins);
    case Opcode::kTnz: return OpTnz(ins);
    case Opcode::kTmi: return OpTmi(ins);
    case Opcode::kTpl: return OpTpl(ins);
    case Opcode::kCall: return OpCall(ins);
    case Opcode::kRet: return OpRet(ins);
    case Opcode::kMme: return OpMme(ins);
    case Opcode::kSvc: return OpSvc(ins);
    case Opcode::kLdbr: return OpLdbr(ins);
    case Opcode::kRett: return OpRett(ins);
    case Opcode::kSio: return OpSio(ins);
    case Opcode::kHlt: return OpHlt(ins);
    default: return OpIllegal(ins);
  }
}

}  // namespace rings
