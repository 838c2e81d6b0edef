#include "src/cpu/cpu.h"

#include <cassert>

#include "src/base/bitfield.h"
#include "src/mem/page_table.h"

namespace rings {

namespace {

constexpr uint32_t kIndexMask = (uint32_t{1} << kWordnoBits) - 1;

// The one kind -> rule mapping of Figures 4-7: the Check* predicate a
// reference of that kind must pass, the counter its check charges, and the
// counters its word access bumps (none for a transfer, which forms no
// address). Reference, Vouches, SettleTally and the supervisor's accesses
// read their rule from RuleFor.
struct RefRule {
  AccessDecision (*check)(const SegmentAccess& access, Ring ring, Ring effective);
  uint64_t Counters::* charge;
  std::array<uint64_t Counters::*, 2> access;
};

// The predicates in one (access, ring, effective ring) shape; only the
// transfer check of Figure 7 reads the effective ring. Forced inline like
// the predicates, so each probe evaluates its check in place.
[[gnu::always_inline]] inline AccessDecision FetchCheck(const SegmentAccess& access, Ring ring,
                                                        Ring) {
  return CheckExecute(access, ring);
}
[[gnu::always_inline]] inline AccessDecision IndirectCheck(const SegmentAccess& access,
                                                           Ring ring, Ring) {
  return CheckIndirectRead(access, ring);
}
[[gnu::always_inline]] inline AccessDecision ReadCheck(const SegmentAccess& access, Ring ring,
                                                       Ring) {
  return CheckRead(access, ring);
}
[[gnu::always_inline]] inline AccessDecision WriteCheck(const SegmentAccess& access, Ring ring,
                                                        Ring) {
  return CheckWrite(access, ring);
}

constexpr RefRule RuleFor(RefKind kind) {
  switch (kind) {
    case RefKind::kFetch:  // Figure 4
      return {&FetchCheck, &Counters::checks_fetch, {&Counters::memory_reads, nullptr}};
    case RefKind::kIndirect:  // Figure 5: CheckIndirectRead is CheckRead
      return {&IndirectCheck, &Counters::checks_indirect,
              {&Counters::memory_reads, &Counters::indirect_words}};
    case RefKind::kRead:  // Figure 6
      return {&ReadCheck, &Counters::checks_read, {&Counters::memory_reads, nullptr}};
    case RefKind::kWrite:  // Figure 6
      return {&WriteCheck, &Counters::checks_write, {&Counters::memory_writes, nullptr}};
    case RefKind::kTransfer:  // Figure 7
      return {&CheckTransfer, &Counters::checks_transfer, {nullptr, nullptr}};
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
  // The block cache must go with the SDW cache, since the same segment
  // numbers may now name different segments.
  sdw_cache_.Flush();
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
    fault_injector_->MaybeCorruptSdw(cycles_, segno, &sdw);
  }
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
  // One PTW reference, read and decoded on every walk: no translation is
  // memoised, so a page-table word stored by anyone is seen at once.
  ChargeWalk();
  const Ptw ptw = DecodePtw(memory_->Read(PtwAddress(table_base, wordno)));
  if (!ptw.present) {
    pending_fault_addr_ = SegAddr{segno, wordno};
    return TrapCause::kMissingPage;
  }
  *out = FrameAddress(ptw, wordno);
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
// memo hit and a descriptor walk differ only in how the descriptor is
// found. The hit is exactly the walk taken with an SDW-cache hit: it runs
// the same Check* predicate against the present descriptor the SDW cache
// holds (the probe), so the charges, checks and traps that follow are the
// same either way, and no outcome is kept that could outlive the
// descriptor. A reference charges and counts its word access too: the
// caller always makes it once the reference succeeds. A memo hit that
// completes is tallied (one slot bump for all its counters); one that
// traps counts directly. The memo hit that completes is Locate plus
// ChargeVouched, which RunBlocks' PR-relative forms share.

template <RefKind K>
[[gnu::always_inline]] inline bool Cpu::Vouches(const Sdw& sdw, Ring ring,
                                                Ring effective) const {
  return !checks_enabled_ || RuleFor(K).check(sdw.access, ring, effective).ok();
}

template <RefKind K>
[[gnu::always_inline]] inline const Sdw* Cpu::Probe(Segno segno, Ring ring,
                                                    Ring effective) const {
  const Sdw* sdw = sdw_cache_.Resident(segno);
  return sdw != nullptr && Vouches<K>(*sdw, ring, effective) ? sdw : nullptr;
}

bool Cpu::ProbeAnswers(RefKind kind, Segno segno, Ring ring, Ring effective) const {
  switch (kind) {
    case RefKind::kFetch:
      return Probe<RefKind::kFetch>(segno, ring, effective) != nullptr;
    case RefKind::kIndirect:
      return Probe<RefKind::kIndirect>(segno, ring, effective) != nullptr;
    case RefKind::kRead:
      return Probe<RefKind::kRead>(segno, ring, effective) != nullptr;
    case RefKind::kWrite:
      return Probe<RefKind::kWrite>(segno, ring, effective) != nullptr;
    case RefKind::kTransfer:
      return Probe<RefKind::kTransfer>(segno, ring, effective) != nullptr;
  }
  return false;  // not reached: the switch names every RefKind
}

template <RefKind K>
[[gnu::always_inline]] inline bool Cpu::Locate(const Sdw& sdw, Wordno wordno,
                                               Vouched* out) const {
  if (wordno >= sdw.bound) {
    return false;
  }
  out->sdw = &sdw;
  if constexpr (K == RefKind::kTransfer) {  // the advance check forms no address
    return true;
  } else {
    AbsAddr addr = sdw.base + wordno;
    if (sdw.paged) {
      // The walk's PTW read, uncharged; ChargeVouched charges it.
      const AbsAddr ptw_addr = PtwAddress(sdw.base, wordno);
      if (ptw_addr >= memory_->size()) {
        return false;
      }
      const Ptw ptw = DecodePtw(memory_->Read(ptw_addr));
      if (!ptw.present) {
        return false;
      }
      addr = FrameAddress(ptw, wordno);
    }
    out->addr = addr;
    return addr < memory_->size();
  }
}

template <RefKind K>
[[gnu::always_inline]] inline bool Cpu::Vouch(Segno segno, Wordno wordno, Ring ring,
                                              Ring effective, Vouched* out) const {
  const Sdw* sdw = Probe<K>(segno, ring, effective);
  return sdw != nullptr && Locate<K>(*sdw, wordno, out);
}

template <RefKind K>
[[gnu::always_inline]] inline void Cpu::ChargeVouched(bool paged, bool checked) {
  if (checked) {
    cycles_ += cycle_model_.access_check;
  }
  if constexpr (K != RefKind::kTransfer) {
    cycles_ += cycle_model_.memory_ref;
    if (paged) {
      ChargeWalk();
    }
  }
  Tally(static_cast<size_t>(K));
}

// Forced inline: the memo hit is the per-reference hot path, and each
// kind's caller is where it must land.
template <RefKind K>
[[gnu::always_inline]] inline bool Cpu::Reference(Segno segno, Wordno wordno, Ring ring,
                                                  Ring effective, Ref* out) {
  constexpr RefRule kRule = RuleFor(K);
  // The reference tier answers nothing from the probe: it is the leg with
  // no host fast path.
  const Sdw* memo = tier_ != EngineTier::kReference ? Probe<K>(segno, ring, effective) : nullptr;
  const bool memo_hit = memo != nullptr;
  if (Vouched v; memo_hit && Locate<K>(*memo, wordno, &v)) {
    ChargeVouched<K>(v.sdw->paged, checks_enabled_);
    out->addr = v.addr;
    out->r1 = v.sdw->access.brackets.r1;
    out->flags_execute = v.sdw->access.flags.execute;
    out->memoizable = !v.sdw->paged;
    return true;
  }
  // The general path: a descriptor walk, or a memo hit that traps on its
  // bound or a missing page, or whose word lies outside the store.
  Sdw walked;
  if (memo_hit) {
    // Vouched: the check passes (or checks are off), so only its cycles
    // remain to charge.
    if (checks_enabled_) {
      cycles_ += cycle_model_.access_check;
    }
    out->memoizable = !memo->paged;
  } else {
    if (!FetchSdw(segno, &walked)) {
      return false;
    }
    if (tier_ != EngineTier::kReference) {
      ++counters_.verdict_misses;  // a walk the probe could not spare
    }
    if (checks_enabled_) {
      ++(counters_.*kRule.charge);
      cycles_ += cycle_model_.access_check;
      if (const TrapCause denial = kRule.check(walked.access, ring, effective).cause;
          denial != TrapCause::kNone) {
        RaiseTrap(denial);
        return false;
      }
    }
  }
  const Sdw& sdw = memo_hit ? *memo : walked;
  out->r1 = sdw.access.brackets.r1;
  out->flags_execute = sdw.access.flags.execute;
  TrapCause cause = wordno >= sdw.bound ? TrapCause::kBoundsViolation : TrapCause::kNone;
  if constexpr (K != RefKind::kTransfer) {  // the advance check forms no address
    if (cause == TrapCause::kNone) {
      cause = Translate(sdw.paged, sdw.base, segno, wordno, &out->addr);
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
  if constexpr (K != RefKind::kTransfer) {
    cycles_ += cycle_model_.memory_ref;  // the word access
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
  // Fully unrolled, so each slot's rule folds to constants and an empty
  // slot costs one load and one branch.
#pragma GCC unroll 6
  for (size_t slot = 0; slot < kTallySlots; ++slot) {
    const uint64_t n = tally_[slot];
    if (n == 0) {
      continue;
    }
    tally_[slot] = 0;
    memo_hits += n;
    const RefKind kind = slot < kBlockOpHit ? static_cast<RefKind>(slot) : RefKind::kFetch;
    const RefRule rule = RuleFor(kind);
    if (checks_enabled_) {
      counters_.*rule.charge += n;
    }
    for (uint64_t Counters::* counter : rule.access) {
      if (counter != nullptr) {
        counters_.*counter += n;
      }
    }
    if (slot == kBlockOpHit) {
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

// Forced inline: Step and RunBlocks (its entry, each op after the first,
// the chain point) each run their own copy.
[[gnu::always_inline]] inline bool Cpu::InstructionBoundary() {
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

  // Fault-injection opportunities at the instruction boundary (out of
  // line, so the injector-free boundary stays a few instructions).
  if (fault_injector_ != nullptr) {
    return BoundaryInjectionHooks();
  }
  return true;
}

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

bool Cpu::BoundaryInjectionHooks() {
  size_t index = 0;
  if (fault_injector_->MaybeDropCacheEntry(cycles_, SdwCache::kEntries, &index)) {
    // Any decoded blocks derived through the dropped register's descriptor
    // go with it; the next reference takes the slow path and re-walks the
    // descriptor segment, exactly as it would have without the fast path.
    if (const auto dropped = sdw_cache_.SegnoAtIndex(index); dropped.has_value()) {
      counters_.block_invalidations += block_cache_.InvalidateSegment(*dropped);
    }
    sdw_cache_.InvalidateIndex(index);
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
// path charges when the resident descriptor vouches for its fetch, which
// is exactly what the slow path charges with an SDW-cache hit. Anything a block cannot vouch
// for bails to StepBody, the identical per-instruction path, after the
// boundary it already consumed. The counters of those charges are
// tallied, and StepBlock settles the tally once, after whichever exit
// RunBlocks took.

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
  // A disabled SDW cache holds no descriptor, so ProbeOrBuildBlock builds
  // nothing under it; nor with the checks off, nor from a paged segment.
  if (tier_ != EngineTier::kBlocks) {
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
  // to the run loop per block; a follow additionally skips the fetch
  // probe, the cache hash, and the BlockCurrent revalidation.
  for (;;) {
    const uint64_t version = block_cache_.version();
    // Every op of the block bumps this one slot; mark the tally once.
    uint64_t& op_tally = tally_[kBlockOpHit];
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
      BlockCache::Op& op = b->ops[i];
      const Wordno wordno = b->start + i;
      // The per-instruction vouched fetch's charges: the cycles are the
      // block's precomputed per-op charge, which folds the instruction
      // base in with them, and the counters one tally bump.
      cycles_ += b->op_charge;
      ++op_tally;
      current_ins_ = op.ins;
      // The op whose final TPR was fixed at build, and so whose operand
      // memo RunInLoop may use and the handlers fill (see operand_memo_).
      BlockCache::Op* memo = nullptr;
      bool ran = false;  // a PR-relative form ran the whole op
      if (op.hop && fault_injector_ == nullptr) {
        // The first hop TryBuildBlock resolved: the charges of Figure 5's
        // first indirect word on a memo hit (its check and read as one
        // add, its counters as one tally bump) and the TPR it leaves. A
        // further `,*` chases on from depth 1, so the indirection limit
        // fires at the same hop. An attached injector draws once per hop,
        // so then the op takes the full formation.
        cycles_ += b->hop_charge;
        ++tally_[static_cast<size_t>(RefKind::kIndirect)];
        tpr_ = Tpr{op.hop_ring, op.hop_segno, op.hop_wordno};
        if (!op.hop_indirect) {
          memo = &op;
        } else if (!ChaseIndirectWords(1)) {
          return false;
        }
      } else if (op.direct) {
        // Figure 5 for an untagged IPR-relative operand without `,*`, whose
        // offset TryBuildBlock checked is a word number.
        tpr_ = Tpr{regs_.ipr.ring, regs_.ipr.segno, static_cast<Wordno>(op.ins.offset)};
        memo = &op;
      } else if (op.ins.pr_relative && PrRelativeInLoop(op.ins)) {
        ran = true;
      } else if (op.needs_ea && !FormEffectiveAddress(op.ins)) {
        return false;
      }
      regs_.ipr.wordno = wordno + 1;
      // An in-loop form raises no trap. Any other op, or one whose memo
      // cannot answer, runs its handler, which may fill the memo.
      if (!ran && !RunInLoop(op.ins, memo, version)) {
        ++counters_.block_op_fallbacks;
        operand_memo_ = memo;
        Execute(op.ins);
        operand_memo_ = nullptr;
        if (block_call_ablation_ && op.ins.opcode == Opcode::kCall) {
          ++cycles_;  // deliberately broken (fuzz-oracle test hook); see cpu.h
        }
        if (trap_pending_) {
          return false;
        }
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
      // invalidation has landed since — so base/bound revalidation
      // (BlockCurrent) is already implied. The key compare handles
      // everything the version does not pin: slot repurposing for a
      // different start, a conditional transfer going the other way this
      // time, and a ring change. The checks stay on for the whole dispatch
      // (ProbeOrBuildBlock entered it).
      BlockCache::Block* cand = block_cache_.BlockAt(b->link_slot);
      if (cand->gen == block_cache_.generation() && cand->segno == regs_.ipr.segno &&
          cand->start == regs_.ipr.wordno && cand->ring == regs_.ipr.ring) {
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

// Block formation: decode consecutive words live from the addresses the
// fetches would form under the resident unpaged SDW that vouches for the
// fetch, stopping at the segment bound, the gate-region boundary, a word
// outside the core store or that does not decode (the per-instruction
// path latches or traps on it), an op the current ring may not execute
// (it must trap on the per-instruction path), and — inclusively — any
// control transfer or trap-raising/privileged terminator. A vouched fetch
// implies the SDW's execute flag, so a store through this SDW retires the
// block (NoteStore).
BlockCache::Block* Cpu::TryBuildBlock(const Sdw& sdw) {
  const Segno segno = regs_.ipr.segno;
  const Wordno start = regs_.ipr.wordno;
  // The gate count marks the boundary a straight-line run may not cross.
  const uint32_t gate = sdw.access.gate_count;

  BlockCache::Block* b = block_cache_.SlotFor(segno, start);
  b->gen = 0;  // unpublish whatever the slot held while we fill it
  // The slot's old occupant may have carried a successor link; the new
  // block has not resolved one yet.
  b->link_slot = BlockCache::kNoLink;
  b->link_version = 0;
  // Whether an op's IPR-relative link word may be resolved now (see
  // DESIGN.md §7): ring hardware, so Figure 5 raises the ring and the
  // ring of execution is the effective ring; the descriptor vouches for
  // the indirect read; and no injector draws on the hop. The segment is
  // unpaged, so the word's address is fixed while the descriptor stays.
  const Ring ring = regs_.ipr.ring;
  const bool hops = mode_ == ProtectionMode::kRingHardware &&
                    Vouches<RefKind::kIndirect>(sdw, ring, ring) && fault_injector_ == nullptr;
  uint16_t count = 0;
  while (count < BlockCache::kMaxOps) {
    const Wordno w = start + count;
    if (w >= sdw.bound) {
      break;
    }
    if (count != 0 && start < gate && w >= gate) {
      break;  // falling out of the gate region ends the block
    }
    const AbsAddr addr = sdw.base + w;
    BlockCache::Op& op = b->ops[count];
    if (addr >= memory_->size() || !DecodeInstruction(memory_->Read(addr), &op.ins)) {
      break;
    }
    const Instruction& ins = op.ins;
    const OpcodeInfo& info = GetOpcodeInfo(ins.opcode);
    if (regs_.ipr.ring > info.max_ring) {
      break;  // privileged violation; the slow path raises it
    }
    op.needs_ea =
        info.operand != OperandKind::kNone && info.operand != OperandKind::kImmediate;
    op.hop = false;
    // A negative offset is left to FormEffectiveAddress, which traps.
    op.direct = op.needs_ea && !ins.indirect && !ins.pr_relative && ins.tag == 0 &&
                ins.offset >= 0 && ins.offset <= static_cast<int32_t>(kMaxWordno);
    op.memo = 0;
    const int32_t link = ins.offset;
    if (hops && op.needs_ea && ins.indirect && !ins.pr_relative && ins.tag == 0 &&
        link >= 0 && static_cast<uint64_t>(link) < sdw.bound &&
        sdw.base + link < memory_->size()) {
      // In bounds and in store: this read can latch no fault. A store into
      // the word through this executable segment drops the block
      // (NoteStore), so the hop lives exactly as long as the decodes. An
      // unsnapped link (F bit) is left to trap on the full path.
      const IndirectWord iw = DecodeIndirectWord(memory_->Read(sdw.base + link));
      if (!iw.fault) {
        op.hop = true;
        op.hop_indirect = iw.indirect;
        op.hop_ring = MaxRing(regs_.ipr.ring, iw.ring, sdw.access.brackets.r1);
        op.hop_segno = static_cast<uint16_t>(iw.segno);
        op.hop_wordno = iw.wordno;
      }
    }
    ++count;
    if (EndsBlock(ins.opcode)) {
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
  b->base = sdw.base;
  // A memo-hit Reference<kFetch> of an unpaged segment plus the word read.
  b->op_charge =
      cycle_model_.instruction_base + cycle_model_.access_check + cycle_model_.memory_ref;
  b->hop_charge = cycle_model_.access_check + cycle_model_.memory_ref;
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
// fetch probe, block-cache probe with revalidation, rebuild on miss.
// Blocks hold only code run under the checks from an unpaged segment
// (DESIGN.md §7); the rest takes the per-instruction path, which gives
// the same results.
BlockCache::Block* Cpu::ProbeOrBuildBlock() {
  if (!checks_enabled_) {
    return nullptr;
  }
  const Ring ring = EffectiveRing(regs_.ipr.ring);
  const Sdw* sdw = Probe<RefKind::kFetch>(regs_.ipr.segno, ring, ring);
  if (sdw == nullptr || sdw->paged) {
    return nullptr;
  }
  BlockCache::Block* b = block_cache_.Lookup(regs_.ipr.segno, regs_.ipr.wordno);
  if (b != nullptr && BlockCurrent(*b, *sdw)) {
    ++counters_.block_hits;
    return b;
  }
  // Miss or stale under the current descriptor/mode: rebuild in place from
  // the words the store holds right now.
  return TryBuildBlock(*sdw);
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
// execute flag is checked. The fetch is one validated reference like
// every other, plus the word read and its decode.
bool Cpu::FetchInstruction(Instruction* ins) {
  const Ring ring = EffectiveRing(regs_.ipr.ring);
  Ref ref;
  if (!Reference<RefKind::kFetch>(regs_.ipr.segno, regs_.ipr.wordno, ring, ring, &ref)) {
    return false;
  }
  if (!DecodeInstruction(memory_->Read(ref.addr), ins)) {
    RaiseTrap(TrapCause::kIllegalOpcode);
    return false;
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
  return ChaseIndirectWords(0);
}

bool Cpu::ChaseIndirectWords(unsigned depth) {
  bool indirect = true;
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

// The memo-hit accesses of RunBlocks' in-loop forms. A block op's operand
// memo is filled by a reference the resident descriptor answered for an
// unpaged segment, at the block-cache version of the fill: every event
// that could replace that SDW or end its residency bumps the version
// (DESIGN.md §7, "Resolved operands"). A hit charges and tallies exactly
// what that memo-hit reference did, with its word access; blocks run only
// under the checks, so that includes the check.
[[gnu::always_inline]] inline bool Cpu::MemoAnswers(const BlockCache::Op* op, uint8_t kinds,
                                                    uint64_t version) const {
  return op != nullptr && (op->memo & kinds) == kinds && op->memo_version == version;
}

[[gnu::always_inline]] inline Word Cpu::MemoRead(const BlockCache::Op& op) {
  ChargeVouched<RefKind::kRead>(/*paged=*/false, /*checked=*/true);
  return memory_->Read(op.memo_addr);
}

[[gnu::always_inline]] inline void Cpu::MemoWrite(const BlockCache::Op& op, Word value) {
  ChargeVouched<RefKind::kWrite>(/*paged=*/false, /*checked=*/true);
  memory_->Write(op.memo_addr, value);
  NoteStore(op.memo_addr, (op.memo & BlockCache::Op::kMemoExecute) != 0, tpr_.segno);
}

// A memo-hit Reference<kTransfer> and the transfer it validates.
[[gnu::always_inline]] inline void Cpu::MemoTransfer() {
  ChargeVouched<RefKind::kTransfer>(/*paged=*/false, /*checked=*/true);
  regs_.ipr.segno = tpr_.segno;
  regs_.ipr.wordno = tpr_.wordno;
}

void Cpu::KeepOperand(uint8_t kind, const Ref& ref) {
  BlockCache::Op* op = operand_memo_;
  if (op == nullptr || !ref.memoizable) {
    return;
  }
  if (const uint64_t version = block_cache_.version(); op->memo_version != version) {
    op->memo = 0;
    op->memo_version = version;
  }
  op->memo_addr = ref.addr;
  op->memo |= kind | (ref.flags_execute ? BlockCache::Op::kMemoExecute : 0);
}

// Figure 6: instructions which read or write their operands. Every call
// runs the validated reference: a block op whose memo answers runs in
// RunBlocks' loop instead (RunInLoop), so these stay out of line.
[[gnu::noinline]] bool Cpu::ReadOperand(Word* out) {
  const Ring ring = EffectiveRing(tpr_.ring);
  Ref ref;
  if (!Reference<RefKind::kRead>(tpr_.segno, tpr_.wordno, ring, ring, &ref)) {
    return false;
  }
  KeepOperand(BlockCache::Op::kMemoRead, ref);
  *out = memory_->Read(ref.addr);
  return true;
}

[[gnu::noinline]] bool Cpu::WriteOperand(Word value) {
  const Ring ring = EffectiveRing(tpr_.ring);
  Ref ref;
  if (!Reference<RefKind::kWrite>(tpr_.segno, tpr_.wordno, ring, ring, &ref)) {
    return false;
  }
  // Filled before the store: NoteStore may retire this very descriptor (a
  // store into the descriptor segment), and then bumps the version past
  // the memo's.
  KeepOperand(BlockCache::Op::kMemoWrite, ref);
  memory_->Write(ref.addr, value);
  NoteStore(ref.addr, ref.flags_execute, tpr_.segno);
  return true;
}

void Cpu::NoteStore(AbsAddr addr, bool target_executable, Segno segno) {
  if (target_executable) {
    // Self-modifying (or link-snapped) code: retire the segment's blocks
    // so the next fetch re-reads the stored word — including the block
    // this store may be executing from (the version bump bails it).
    counters_.block_invalidations += block_cache_.InvalidateSegment(segno);
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
  const Ring ring = EffectiveRing(regs_.ipr.ring);
  const Ring effective = EffectiveRing(tpr_.ring);
  Ref ref;
  if (Reference<RefKind::kTransfer>(tpr_.segno, tpr_.wordno, ring, effective, &ref)) {
    // Only a transfer the probe answered is kept, and under the checks
    // (the only regime blocks run in) it answers only at the ring of
    // execution.
    KeepOperand(BlockCache::Op::kMemoTransfer, ref);
    regs_.ipr.segno = tpr_.segno;
    regs_.ipr.wordno = tpr_.wordno;
  }
}

// Figures 8 and 9 share this step. Every crossing fetches the target's
// SDW (from the SDW cache, the paper's associative memory, when it holds
// it) and checks the gate and brackets against it, on every engine tier.
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
// the per-instruction path and by RunBlocks for the ops it does not run
// itself. Each opcode's register effect is written once, below, and
// shared by its handler and RunBlocks' in-loop form (RunInLoop).

// What an operand-reading op does with the word it read.
template <Opcode O>
[[gnu::always_inline]] inline void Cpu::ReadEffect(const Instruction& ins, Word value) {
  if constexpr (O == Opcode::kLda) {
    regs_.a = value;
  } else if constexpr (O == Opcode::kLdq) {
    regs_.q = value;
  } else if constexpr (O == Opcode::kLdx) {
    regs_.x[ins.reg] = static_cast<uint32_t>(value) & kIndexMask;
  } else if constexpr (O == Opcode::kAda) {
    regs_.a += value;
  } else if constexpr (O == Opcode::kSba) {
    regs_.a -= value;
  } else if constexpr (O == Opcode::kMpy) {
    regs_.a *= value;
  } else if constexpr (O == Opcode::kAna) {
    regs_.a &= value;
  } else if constexpr (O == Opcode::kOra) {
    regs_.a |= value;
  } else {
    static_assert(O == Opcode::kEra);
    regs_.a ^= value;
  }
}

// The word a storing op writes.
template <Opcode O>
[[gnu::always_inline]] inline Word Cpu::StoredWord(const Instruction& ins) const {
  if constexpr (O == Opcode::kSta) {
    return regs_.a;
  } else if constexpr (O == Opcode::kStq) {
    return regs_.q;
  } else if constexpr (O == Opcode::kStx) {
    return regs_.x[ins.reg];
  } else if constexpr (O == Opcode::kStz) {
    return 0;
  } else {
    // Store PRn as an indirect word. The stored RING field is the PR's
    // ring, so an argument address saved to memory keeps its validation
    // level ("If PR1 is then stored as an indirect word, this effective
    // ring is put into the RING field of the indirect word").
    static_assert(O == Opcode::kSpp);
    const PointerRegister& pr = regs_.pr[ins.reg];
    return EncodeIndirectWord(IndirectWord{pr.ring, false, pr.segno, pr.wordno});
  }
}

// Whether a transfer other than CALL and RETURN is taken.
template <Opcode O>
[[gnu::always_inline]] inline bool Cpu::Taken() const {
  if constexpr (O == Opcode::kTra) {
    return true;
  } else if constexpr (O == Opcode::kTze) {
    return regs_.a == 0;
  } else if constexpr (O == Opcode::kTnz) {
    return regs_.a != 0;
  } else if constexpr (O == Opcode::kTmi) {
    return static_cast<int64_t>(regs_.a) < 0;
  } else {
    static_assert(O == Opcode::kTpl);
    return static_cast<int64_t>(regs_.a) >= 0;
  }
}

// The ops without a memory operand: the whole op is its register effect.
template <Opcode O>
[[gnu::always_inline]] inline void Cpu::OpRegister(const Instruction& ins) {
  if constexpr (O == Opcode::kNop) {
    (void)ins;
  } else if constexpr (O == Opcode::kLdai) {
    regs_.a = static_cast<Word>(static_cast<int64_t>(ins.offset));
  } else if constexpr (O == Opcode::kLdqi) {
    regs_.q = static_cast<Word>(static_cast<int64_t>(ins.offset));
  } else if constexpr (O == Opcode::kLdxi) {
    regs_.x[ins.reg] = static_cast<uint32_t>(ins.offset) & kIndexMask;
  } else if constexpr (O == Opcode::kAdai) {
    regs_.a += static_cast<Word>(static_cast<int64_t>(ins.offset));
  } else if constexpr (O == Opcode::kAls) {
    regs_.a = ins.offset >= 64 ? 0 : regs_.a << (ins.offset & 63);
  } else if constexpr (O == Opcode::kArs) {
    regs_.a = ins.offset >= 64 ? 0 : regs_.a >> (ins.offset & 63);
  } else if constexpr (O == Opcode::kNega) {
    regs_.a = ~regs_.a + 1;
  } else {
    static_assert(O == Opcode::kXaq);
    std::swap(regs_.a, regs_.q);
  }
}

template <Opcode O>
void Cpu::OpRead(const Instruction& ins) {
  Word value = 0;
  if (ReadOperand(&value)) {
    ReadEffect<O>(ins, value);
  }
}

template <Opcode O>
void Cpu::OpWrite(const Instruction& ins) {
  WriteOperand(StoredWord<O>(ins));
}

template <Opcode O>
void Cpu::OpTransfer(const Instruction& ins) {
  (void)ins;
  if (Taken<O>()) {
    ExecuteTransfer();
  }
}

void Cpu::OpAos(const Instruction& ins) {
  (void)ins;
  Word value = 0;
  if (ReadOperand(&value)) {
    WriteOperand(value + 1);
  }
}

[[gnu::always_inline]] inline void Cpu::OpEpp(const Instruction& ins) {
  // EAP-type (Figure 7): "instructions which load the RING, SEGNO and
  // WORDNO fields of PRn with the corresponding fields of TPR. The
  // operand is not referenced, so no access validation is required."
  regs_.pr[ins.reg] = PointerRegister{tpr_.ring, tpr_.segno, tpr_.wordno};
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

// The per-instruction path dispatches every op through this switch, and
// RunBlocks every op it does not run itself: the handlers live in this
// translation unit, so the switch lets the compiler inline the hot ones,
// which an indirect member-pointer call could not.
void Cpu::Execute(const Instruction& ins) {
  switch (ins.opcode) {
    case Opcode::kNop: return OpRegister<Opcode::kNop>(ins);
    case Opcode::kLda: return OpRead<Opcode::kLda>(ins);
    case Opcode::kLdq: return OpRead<Opcode::kLdq>(ins);
    case Opcode::kLdx: return OpRead<Opcode::kLdx>(ins);
    case Opcode::kSta: return OpWrite<Opcode::kSta>(ins);
    case Opcode::kStq: return OpWrite<Opcode::kStq>(ins);
    case Opcode::kStx: return OpWrite<Opcode::kStx>(ins);
    case Opcode::kStz: return OpWrite<Opcode::kStz>(ins);
    case Opcode::kLdai: return OpRegister<Opcode::kLdai>(ins);
    case Opcode::kLdqi: return OpRegister<Opcode::kLdqi>(ins);
    case Opcode::kLdxi: return OpRegister<Opcode::kLdxi>(ins);
    case Opcode::kAdai: return OpRegister<Opcode::kAdai>(ins);
    case Opcode::kAda: return OpRead<Opcode::kAda>(ins);
    case Opcode::kSba: return OpRead<Opcode::kSba>(ins);
    case Opcode::kMpy: return OpRead<Opcode::kMpy>(ins);
    case Opcode::kAna: return OpRead<Opcode::kAna>(ins);
    case Opcode::kOra: return OpRead<Opcode::kOra>(ins);
    case Opcode::kEra: return OpRead<Opcode::kEra>(ins);
    case Opcode::kAls: return OpRegister<Opcode::kAls>(ins);
    case Opcode::kArs: return OpRegister<Opcode::kArs>(ins);
    case Opcode::kNega: return OpRegister<Opcode::kNega>(ins);
    case Opcode::kXaq: return OpRegister<Opcode::kXaq>(ins);
    case Opcode::kAos: return OpAos(ins);
    case Opcode::kEpp: return OpEpp(ins);
    case Opcode::kSpp: return OpWrite<Opcode::kSpp>(ins);
    case Opcode::kTra: return OpTransfer<Opcode::kTra>(ins);
    case Opcode::kTze: return OpTransfer<Opcode::kTze>(ins);
    case Opcode::kTnz: return OpTransfer<Opcode::kTnz>(ins);
    case Opcode::kTmi: return OpTransfer<Opcode::kTmi>(ins);
    case Opcode::kTpl: return OpTransfer<Opcode::kTpl>(ins);
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

template <Opcode O>
[[gnu::always_inline]] inline bool Cpu::ReadInLoop(const Instruction& ins,
                                                   const BlockCache::Op* memo, uint64_t version) {
  if (!MemoAnswers(memo, BlockCache::Op::kMemoRead, version)) {
    return false;
  }
  ReadEffect<O>(ins, MemoRead(*memo));
  return true;
}

template <Opcode O>
[[gnu::always_inline]] inline bool Cpu::WriteInLoop(const Instruction& ins,
                                                    const BlockCache::Op* memo, uint64_t version) {
  if (!MemoAnswers(memo, BlockCache::Op::kMemoWrite, version)) {
    return false;
  }
  MemoWrite(*memo, StoredWord<O>(ins));
  return true;
}

template <Opcode O>
[[gnu::always_inline]] inline bool Cpu::TransferInLoop(const BlockCache::Op* memo,
                                                       uint64_t version) {
  if (!Taken<O>()) {
    return true;
  }
  if (!MemoAnswers(memo, BlockCache::Op::kMemoTransfer, version)) {
    return false;
  }
  MemoTransfer();
  return true;
}

// RunBlocks' in-loop forms (DESIGN.md §7, "Ops run in the loop"). An op
// that references nothing runs here always: the immediate and
// register-only forms, EPP, and a transfer not taken. One that reads,
// writes or transfers runs here when `memo`, the op whose final TPR was
// fixed at build (else nullptr), answers each of its references at
// `version`. Each form applies its handler's register effect and charges
// what its handler's memo-hit references charge. Returns whether the op
// ran; if not, it did nothing and Execute takes it.
[[gnu::always_inline]] inline bool Cpu::RunInLoop(const Instruction& ins,
                                                  const BlockCache::Op* memo, uint64_t version) {
  constexpr uint8_t kRead = BlockCache::Op::kMemoRead;
  constexpr uint8_t kWrite = BlockCache::Op::kMemoWrite;
  switch (ins.opcode) {
    case Opcode::kNop:
      OpRegister<Opcode::kNop>(ins);
      return true;
    case Opcode::kLda: return ReadInLoop<Opcode::kLda>(ins, memo, version);
    case Opcode::kLdq: return ReadInLoop<Opcode::kLdq>(ins, memo, version);
    case Opcode::kLdx: return ReadInLoop<Opcode::kLdx>(ins, memo, version);
    case Opcode::kSta: return WriteInLoop<Opcode::kSta>(ins, memo, version);
    case Opcode::kStq: return WriteInLoop<Opcode::kStq>(ins, memo, version);
    case Opcode::kStx: return WriteInLoop<Opcode::kStx>(ins, memo, version);
    case Opcode::kStz: return WriteInLoop<Opcode::kStz>(ins, memo, version);
    case Opcode::kLdai:
      OpRegister<Opcode::kLdai>(ins);
      return true;
    case Opcode::kLdqi:
      OpRegister<Opcode::kLdqi>(ins);
      return true;
    case Opcode::kLdxi:
      OpRegister<Opcode::kLdxi>(ins);
      return true;
    case Opcode::kAdai:
      OpRegister<Opcode::kAdai>(ins);
      return true;
    case Opcode::kAda: return ReadInLoop<Opcode::kAda>(ins, memo, version);
    case Opcode::kSba: return ReadInLoop<Opcode::kSba>(ins, memo, version);
    case Opcode::kMpy: return ReadInLoop<Opcode::kMpy>(ins, memo, version);
    case Opcode::kAna: return ReadInLoop<Opcode::kAna>(ins, memo, version);
    case Opcode::kOra: return ReadInLoop<Opcode::kOra>(ins, memo, version);
    case Opcode::kEra: return ReadInLoop<Opcode::kEra>(ins, memo, version);
    case Opcode::kAls:
      OpRegister<Opcode::kAls>(ins);
      return true;
    case Opcode::kArs:
      OpRegister<Opcode::kArs>(ins);
      return true;
    case Opcode::kNega:
      OpRegister<Opcode::kNega>(ins);
      return true;
    case Opcode::kXaq:
      OpRegister<Opcode::kXaq>(ins);
      return true;
    case Opcode::kAos:
      if (!MemoAnswers(memo, kRead | kWrite, version)) {
        return false;
      }
      MemoWrite(*memo, MemoRead(*memo) + 1);
      return true;
    case Opcode::kEpp:
      OpEpp(ins);
      return true;
    case Opcode::kTra: return TransferInLoop<Opcode::kTra>(memo, version);
    case Opcode::kTze: return TransferInLoop<Opcode::kTze>(memo, version);
    case Opcode::kTnz: return TransferInLoop<Opcode::kTnz>(memo, version);
    case Opcode::kTmi: return TransferInLoop<Opcode::kTmi>(memo, version);
    case Opcode::kTpl: return TransferInLoop<Opcode::kTpl>(memo, version);
    default:
      // CALL, RETURN, LDBR, SIO, SPP and the trap raisers.
      return false;
  }
}

// RunBlocks' forms for a PR-relative operand (DESIGN.md §7, "Ops run in
// the loop"). Such an operand depends on a register, so no memo holds it:
// each execution forms it afresh from resident descriptors, reading a
// paged segment's PTW as Reference does, and any step the probe cannot
// answer leaves the whole op to Execute, which raises what that step would.
template <RefKind K>
[[gnu::always_inline]] inline bool Cpu::PrOperand(const Instruction& ins, AbsAddr* addr,
                                                  bool* target_executable) {
  if (mode_ != ProtectionMode::kRingHardware || fault_injector_ != nullptr) {
    return false;
  }
  // Figure 5 as FormEffectiveAddress forms it.
  const PointerRegister& pr = regs_.pr[ins.prnum];
  int64_t wordno = static_cast<int64_t>(pr.wordno) + ins.offset;
  if (ins.tag != 0) {
    wordno += static_cast<int64_t>(regs_.x[ins.tag]);
  }
  if (wordno < 0 || wordno > kMaxWordno) {
    return false;
  }
  Tpr tpr{MaxRing(regs_.ipr.ring, pr.ring), pr.segno, static_cast<Wordno>(wordno)};
  Vouched hop;
  if (ins.indirect) {
    // The first hop, as ChaseIndirectWords takes it at depth 1; a word
    // that faults or chases on is left to the full chase.
    if (!Vouch<RefKind::kIndirect>(tpr.segno, tpr.wordno, tpr.ring, tpr.ring, &hop)) {
      return false;
    }
    const IndirectWord iw = DecodeIndirectWord(memory_->Read(hop.addr));
    if (iw.fault || iw.indirect) {
      return false;
    }
    tpr = Tpr{MaxRing(tpr.ring, iw.ring, hop.sdw->access.brackets.r1), iw.segno, iw.wordno};
  }
  Vouched operand;
  if (!Vouch<K>(tpr.segno, tpr.wordno, tpr.ring, tpr.ring, &operand)) {
    return false;
  }
  if (ins.indirect) {
    ChargeVouched<RefKind::kIndirect>(hop.sdw->paged, /*checked=*/true);
  }
  ChargeVouched<K>(operand.sdw->paged, /*checked=*/true);
  tpr_ = tpr;
  *addr = operand.addr;
  *target_executable = operand.sdw->access.flags.execute;
  return true;
}

template <Opcode O>
[[gnu::always_inline]] inline bool Cpu::PrReadInLoop(const Instruction& ins) {
  AbsAddr addr = 0;
  bool target_executable = false;
  if (!PrOperand<RefKind::kRead>(ins, &addr, &target_executable)) {
    return false;
  }
  ReadEffect<O>(ins, memory_->Read(addr));
  return true;
}

template <Opcode O>
[[gnu::always_inline]] inline bool Cpu::PrWriteInLoop(const Instruction& ins) {
  AbsAddr addr = 0;
  bool target_executable = false;
  if (!PrOperand<RefKind::kWrite>(ins, &addr, &target_executable)) {
    return false;
  }
  memory_->Write(addr, StoredWord<O>(ins));
  NoteStore(addr, target_executable, tpr_.segno);
  return true;
}

[[gnu::always_inline]] inline bool Cpu::PrRelativeInLoop(const Instruction& ins) {
  switch (ins.opcode) {
    case Opcode::kLda: return PrReadInLoop<Opcode::kLda>(ins);
    case Opcode::kLdq: return PrReadInLoop<Opcode::kLdq>(ins);
    case Opcode::kLdx: return PrReadInLoop<Opcode::kLdx>(ins);
    case Opcode::kAda: return PrReadInLoop<Opcode::kAda>(ins);
    case Opcode::kSba: return PrReadInLoop<Opcode::kSba>(ins);
    case Opcode::kMpy: return PrReadInLoop<Opcode::kMpy>(ins);
    case Opcode::kAna: return PrReadInLoop<Opcode::kAna>(ins);
    case Opcode::kOra: return PrReadInLoop<Opcode::kOra>(ins);
    case Opcode::kEra: return PrReadInLoop<Opcode::kEra>(ins);
    case Opcode::kSta: return PrWriteInLoop<Opcode::kSta>(ins);
    case Opcode::kStq: return PrWriteInLoop<Opcode::kStq>(ins);
    case Opcode::kStx: return PrWriteInLoop<Opcode::kStx>(ins);
    case Opcode::kStz: return PrWriteInLoop<Opcode::kStz>(ins);
    default:
      // The rest: FormEffectiveAddress forms the operand, and RunInLoop
      // (EPP, a transfer not taken) or Execute runs the op.
      return false;
  }
}

}  // namespace rings
