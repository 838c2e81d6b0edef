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
#include <memory>
#include <optional>
#include <vector>

#include "src/core/access.h"
#include "src/core/transfer.h"
#include "src/cpu/block_cache.h"
#include "src/cpu/crossing_cache.h"
#include "src/cpu/insn_cache.h"
#include "src/cpu/registers.h"
#include "src/fault/fault_injector.h"
#include "src/cpu/sdw_cache.h"
#include "src/cpu/shared_decode.h"
#include "src/cpu/tlb.h"
#include "src/cpu/trap.h"
#include "src/cpu/verdict_cache.h"
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
// the verdict bit that memoizes it, the checks_* counter it charges, and
// the counters its word access bumps (the rule table in cpu.cc).
enum class RefKind { kFetch, kIndirect, kRead, kWrite, kTransfer };

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
  // overhead-claim benchmark to measure what the checks cost).
  bool checks_enabled() const { return checks_enabled_; }
  void set_checks_enabled(bool enabled) {
    assert(TallyEmpty() && "the tally settles under the checks regime it was counted in");
    checks_enabled_ = enabled;
  }

  SdwCache& sdw_cache() { return sdw_cache_; }
  const SdwCache& sdw_cache() const { return sdw_cache_; }

  // Host-side fast path: the access-verdict and decoded-instruction
  // caches. Purely a host optimization — simulated cycles, counters, trap
  // sequences and the fault-injection stream are bit-identical with the
  // fast path on or off (tests/integration/fastpath_differential_test.cc).
  // It also disengages automatically while the SDW cache is disabled, so
  // the ablation benchmarks measure what they claim to.
  bool fast_path_enabled() const { return fast_path_enabled_; }
  void set_fast_path_enabled(bool enabled) {
    fast_path_enabled_ = enabled;
    verdict_cache_.Flush();
    insn_cache_.Flush();
    tlb_.Flush();
    block_cache_.Flush();
    crossing_cache_.Flush();
  }
  const VerdictCache& verdict_cache() const { return verdict_cache_; }
  const InsnCache& insn_cache() const { return insn_cache_; }
  const Tlb& tlb() const { return tlb_; }

  // Superblock execution engine (see DESIGN.md): decoded straight-line
  // blocks executed by StepBlock through a tight pre-decoded inner loop.
  // Rides on the fast path (disengages while fast_path or the SDW cache
  // is off); like the other host-side caches it never changes simulated
  // cycles, counters, trap sequences, or the fault-injection stream.
  bool block_engine_enabled() const { return block_engine_enabled_; }
  void set_block_engine_enabled(bool enabled) {
    block_engine_enabled_ = enabled;
    block_cache_.Flush();
  }
  const BlockCache& block_cache() const { return block_cache_; }

  // Direct block chaining + the monomorphic CALL/RETURN crossing cache
  // (see DESIGN.md §7). Both ride on the block engine / fast path and,
  // like them, never change simulated cycles, counters, trap sequences,
  // or the fault-injection stream. One switch governs both: they are two
  // halves of the same dispatch optimization (the crossing cache is what
  // lets a CALL-terminated block chain straight into its callee).
  bool chain_enabled() const { return chain_enabled_; }
  void set_chain_enabled(bool enabled) {
    chain_enabled_ = enabled;
    // Retire every patched link (the generation bump kills their stamps)
    // and every memoized crossing.
    block_cache_.Flush();
    crossing_cache_.Flush();
  }
  const CrossingCache& crossing_cache() const { return crossing_cache_; }

  // Test-only sabotage of the chaining engine, the chaining analog of
  // block_call_ablation: every followed successor link charges one
  // spurious cycle the per-instruction path never charges. Used by the
  // fuzz harness to prove the oracle catches (and the shrinker minimizes)
  // a chaining bug. Never set outside tests and --fuzz-ablation paths.
  bool chain_ablation() const { return chain_ablation_; }
  void set_chain_ablation(bool enabled) { chain_ablation_ = enabled; }

  // Fleet-shared read-only decode (see src/cpu/shared_decode.h). The
  // machine attaches the per-segno decoded tables after program load; the
  // slow fetch path consults them after reading the live word and falls
  // back to live decode on any mismatch (the CoW split). Host-only: the
  // image never changes what a fetch charges or traps.
  void AttachDecodeImage(
      std::shared_ptr<const SharedDecodeImage> image,
      const std::vector<std::pair<Segno, const SharedDecodeImage::Segment*>>& map) {
    for (const auto& [segno, seg] : map) {
      if (decode_map_.size() <= segno) {
        decode_map_.resize(static_cast<size_t>(segno) + 1, nullptr);
      }
      decode_map_[segno] = seg;
    }
    decode_images_.push_back(std::move(image));
  }
  bool has_decode_image() const { return !decode_images_.empty(); }
  // Clone support (Machine::CloneFrom): share the parent's attached decode
  // images and per-segno map wholesale. The images are immutable after
  // publication, so aliasing them is free and safe across threads.
  void CopyDecodeTablesFrom(const Cpu& parent) {
    decode_images_ = parent.decode_images_;
    decode_map_ = parent.decode_map_;
  }
  // Host bytes of decoded tables this machine references (shared or
  // private); bench_fleet reports the fleet-wide dedup from this.
  size_t decode_image_bytes() const {
    size_t total = 0;
    for (const auto& image : decode_images_) {
      total += image->bytes();
    }
    return total;
  }

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
  // ends it early. Degrades to exactly Step() when the block engine or
  // fast path is off. Returns what Step would have returned for the last
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
  // processor may have cached. Also drops the derived fast-path state: a
  // new descriptor may change verdicts, the segment's base, or what the
  // segment's words decode to.
  void InvalidateSdw(Segno segno) {
    sdw_cache_.Invalidate(segno);
    verdict_cache_.InvalidateSegment(segno);
    // Crossing memos targeting this segment were resolved through the
    // edited descriptor.
    crossing_cache_.InvalidateTarget(segno);
    insn_cache_.InvalidateSegment(segno);
    // The descriptor may have pointed the segment at a different page
    // table; every translation derived through it is suspect.
    tlb_.InvalidateSegment(segno);
    counters_.block_invalidations += block_cache_.InvalidateSegment(segno);
    ++counters_.verdict_invalidations;
    ++counters_.insn_cache_invalidations;
    ++counters_.tlb_invalidations;
  }
  void FlushSdwCache() {
    sdw_cache_.Flush();  // epoch bump retires every verdict
    insn_cache_.Flush();
    tlb_.Flush();
    block_cache_.Flush();
    ++counters_.verdict_invalidations;
    ++counters_.insn_cache_invalidations;
    ++counters_.tlb_invalidations;
    ++counters_.block_invalidations;
  }

  // Must be called after memory is written behind the processor's back
  // (program loading, test pokes, DMA-style stores): any of those words
  // may be a cached decoded instruction.
  void FlushInsnCache() {
    insn_cache_.Flush();
    // Blocks are chains of cached decodes; they go with them.
    block_cache_.Flush();
    ++counters_.insn_cache_invalidations;
    ++counters_.block_invalidations;
  }

  // Companion to FlushInsnCache for the same behind-the-back stores: any
  // written word may be a page-table word some cached translation was
  // decoded from.
  void FlushTlb() {
    tlb_.Flush();
    ++counters_.tlb_invalidations;
  }

  // Must be called when supervisor software stores a page-table word it
  // can name precisely (demand fill, page-table edits); `ptw_addr` is the
  // absolute address of the stored PTW. Cheaper than FlushTlb and exact.
  void NotePtwStore(AbsAddr ptw_addr) {
    tlb_.NoteStore(ptw_addr);
    ++counters_.tlb_invalidations;
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
  // --- instruction-cycle phases (see cpu.cc for figure mapping) ---
  // The per-instruction boundary work shared by Step and the block inner
  // loop: trap-capture state reset, the quantum timer, and the
  // fault-injection hooks. Runs exactly once before every instruction so
  // the injector's RNG stream is identical with blocks on or off. Returns
  // false when a boundary trap (timer runout, injected fault) was raised.
  bool InstructionBoundary();
  // The fault-injection opportunities of the boundary, split out so the
  // common no-injector boundary stays small enough to inline into the
  // block inner loop.
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
  // the per-op loops without dragging the chase along.
  bool ChaseIndirectWords();
  void Execute(const Instruction& ins);

  // --- superblock engine (see DESIGN.md) ---
  // Whether `block` still describes what the per-instruction path would
  // do at (segno, start) under the current verdict `v`.
  bool BlockCurrent(const BlockCache::Block& block, const VerdictCache::Entry& v) const {
    return block.ring == regs_.ipr.ring && block.checks == checks_enabled_ &&
           block.paged == v.paged && block.base == v.base &&
           static_cast<uint64_t>(block.start) + block.count <= v.bound;
  }
  // Chains cached decodes starting at the current IPR into a block;
  // returns nullptr when nothing is cacheable there yet. Mutable: the
  // chaining engine patches successor links into published blocks.
  BlockCache::Block* TryBuildBlock(const VerdictCache::Entry& v);
  // The full dispatch preamble of StepBlock: verdict probe, block lookup
  // (counting a hit) or build. Returns nullptr when the per-instruction
  // path must take this dispatch.
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
  // Whether the CALL/RETURN crossing cache may fill and answer: ring
  // hardware with checks on, riding the same host caches as chaining.
  bool CrossingCacheEnabled() const {
    return chain_enabled_ && checks_enabled_ && fast_path_enabled_ && sdw_cache_.enabled() &&
           mode_ == ProtectionMode::kRingHardware;
  }
  // The shared-decode entry covering (segno, wordno), if any.
  const SharedDecodeImage::Entry* DecodeImageEntry(Segno segno, Wordno wordno) const {
    if (segno >= decode_map_.size()) {
      return nullptr;
    }
    const SharedDecodeImage::Segment* seg = decode_map_[segno];
    if (seg == nullptr || wordno >= seg->words.size()) {
      return nullptr;
    }
    return &seg->words[wordno];
  }

  // --- per-opcode execute handlers; both the per-instruction path and
  // the block inner loop dispatch through the Execute switch so the
  // compiler can inline the hot handlers ---
  void OpNop(const Instruction& ins);
  void OpLda(const Instruction& ins);
  void OpLdq(const Instruction& ins);
  void OpLdx(const Instruction& ins);
  void OpSta(const Instruction& ins);
  void OpStq(const Instruction& ins);
  void OpStx(const Instruction& ins);
  void OpStz(const Instruction& ins);
  void OpLdai(const Instruction& ins);
  void OpLdqi(const Instruction& ins);
  void OpLdxi(const Instruction& ins);
  void OpAdai(const Instruction& ins);
  void OpAda(const Instruction& ins);
  void OpSba(const Instruction& ins);
  void OpMpy(const Instruction& ins);
  void OpAna(const Instruction& ins);
  void OpOra(const Instruction& ins);
  void OpEra(const Instruction& ins);
  void OpAls(const Instruction& ins);
  void OpArs(const Instruction& ins);
  void OpNega(const Instruction& ins);
  void OpXaq(const Instruction& ins);
  void OpAos(const Instruction& ins);
  void OpEpp(const Instruction& ins);
  void OpSpp(const Instruction& ins);
  void OpTra(const Instruction& ins);
  void OpTze(const Instruction& ins);
  void OpTnz(const Instruction& ins);
  void OpTmi(const Instruction& ins);
  void OpTpl(const Instruction& ins);
  void OpCall(const Instruction& ins);
  void OpRet(const Instruction& ins);
  void OpMme(const Instruction& ins);
  void OpSvc(const Instruction& ins);
  void OpLdbr(const Instruction& ins);
  void OpRett(const Instruction& ins);
  void OpSio(const Instruction& ins);
  void OpHlt(const Instruction& ins);
  void OpIllegal(const Instruction& ins);

  // SDW fetch with descriptor cache and missing-segment trap.
  bool FetchSdw(Segno segno, Sdw* out);
  // Bounds check against a segment bound; raises kBoundsViolation.
  bool CheckBounds(uint64_t bound, Wordno wordno);

  // Final address formation: base + wordno for an unpaged segment, the
  // page-table walk (keyed on `base` as the table base) for a paged one.
  // Returns kNone or kMissingPage; never raises a trap itself.
  TrapCause Translate(bool paged, AbsAddr base, Segno segno, Wordno wordno, AbsAddr* out);
  // The architectural page-table walk, shared by every reference and the
  // supervisor access paths: charges one memory reference and counts a
  // page walk unconditionally, then answers from the TLB when it can and
  // reads + decodes the PTW (memoizing the translation) when it cannot.
  // Sets pending_fault_addr_ and returns kMissingPage for an absent page;
  // never raises a trap itself.
  TrapCause WalkPageTable(AbsAddr table_base, Segno segno, Wordno wordno, AbsAddr* out);

  // --- the validated reference (Figures 4-7; see DESIGN.md §7) ---

  // What a validated reference hands the step that uses it.
  struct Ref {
    AbsAddr addr = 0;            // absolute address (not formed for transfers)
    Ring r1 = 0;                 // SDW.R1, for Figure 5's ring maximization
    bool flags_execute = false;  // SDW execute flag, for NoteStore
  };
  // The one routine every Figure 4-7 reference runs: take the descriptor
  // facts from the verdict cache when it vouches for (segno, ring), else
  // from FetchSdw plus the kind's Check* predicate; then charge the check,
  // trap a denial, check bounds, and translate. `ring` keys the verdict;
  // `effective` differs from it only for transfers. A fetch reaching here
  // has missed the decode cache and always walks the descriptor. Raises
  // the trap and returns false on any failure.
  template <RefKind K>
  bool Reference(Segno segno, Wordno wordno, Ring ring, Ring effective, Ref* out);
  // Whether `memo` answers the kind's check at (ring, effective) without
  // a descriptor walk.
  template <RefKind K>
  bool Vouches(const VerdictCache::Entry& memo, Ring ring, Ring effective) const;
  // Counts one reference the verdict cache answered but that trapped
  // before its word access: the SDW-cache hit the descriptor walk would
  // have counted, without the probe. A memo hit that completes is tallied
  // instead (see tally_).
  void CountMemoHit() {
    ++counters_.verdict_hits;
    ++counters_.sdw_cache_hits;
    sdw_cache_.CountHits(1);
  }
  // The charges of a fetch the verdict and decode caches vouch for (a
  // Reference<kFetch> answered by the memo, plus the word read): the
  // cycles now, the counters as one tally bump. `cycles` is
  // VouchedFetchCycles; the block engine charges the same cycles folded
  // into its per-op add and tallies a block op instead.
  void ChargeVouchedFetch(bool paged, uint64_t cycles) {
    cycles_ += cycles;
    Tally(paged ? kPagedFetchHit : static_cast<size_t>(RefKind::kFetch));
  }
  uint64_t VouchedFetchCycles(bool paged) const {
    return (checks_enabled_ ? cycle_model_.access_check : 0) +
           (paged ? cycle_model_.memory_ref : 0) + cycle_model_.memory_ref;
  }

  // --- the tally (see DESIGN.md §7) ---
  // The hit paths charge cycles as they go but count by bumping one slot
  // of tally_ per hit; SettleTally folds the slots into counters_ and the
  // SDW cache's hit count at every exit of Step and StepBlock, and costs
  // one test when nothing was tallied (with the fast path off, on every
  // instruction). Slots 0-4 are the RefKinds: a memo-hit Reference of that
  // kind that completed, with its word access (for kFetch: an unpaged
  // fetch the verdict and decode caches vouch for). The rest are a paged
  // vouched fetch, whose page-table walk is folded in (an operand's walk
  // counts itself), and the block engine's committed op, a vouched fetch
  // plus its retired instruction, unpaged or paged. Whether a hit charged
  // its check is checks_enabled_, which changes only between dispatches,
  // so SettleTally reads it.
  static constexpr size_t kPagedFetchHit = 5;
  static constexpr size_t kBlockOpHit = 6;
  static constexpr size_t kPagedBlockOpHit = 7;
  static constexpr size_t kTallySlots = 8;
  void Tally(size_t slot) {
    ++tally_[slot];
    tallied_ = true;
  }
  void SettleTally();
  bool TallyEmpty() const { return tally_ == decltype(tally_){}; }

  // Operand access paths (Figure 6).
  bool ReadOperand(Word* out);
  bool WriteOperand(Word value);

  // The supervisor's validated (`ring` set) and raw accesses: one
  // uncached descriptor lookup, present and bound checks, the read or
  // write rule when validating, translation, then the load or store.
  TrapCause SupervisorAccess(Segno segno, Wordno wordno, std::optional<Ring> ring, Word* word,
                             bool store);

  // --- host-side fast path (see DESIGN.md) ---

  // Probes the verdict cache for (segno, effective ring). Non-null only
  // when the memo is live: fast path enabled, SDW cache enabled, entry
  // present with the current flush epoch. Whether it answers a given
  // reference is Vouches' call.
  const VerdictCache::Entry* FastVerdict(Segno segno, Ring ring) {
    if (!fast_path_enabled_ || !sdw_cache_.enabled()) {
      return nullptr;
    }
    return verdict_cache_.Lookup(segno, ring, sdw_cache_.flush_epoch());
  }
  // Memoizes the descriptor walk Reference just made (FetchSdw left the
  // descriptor resident in the SDW cache): every kind's check outcome for
  // `ring`, plus the SDW fields Reference reads on a later memo hit.
  void FillVerdict(Segno segno, Ring ring, const Sdw& sdw) {
    if (!fast_path_enabled_ || !sdw_cache_.enabled()) {
      return;
    }
    ++counters_.verdict_misses;
    verdict_cache_.Fill(segno, ring, sdw_cache_.flush_epoch(), sdw);
  }
  // Whether the TLB may be consulted: same gating as the verdict cache,
  // so the ablation benchmarks (SDW cache off) measure what they claim.
  bool TlbEnabled() const { return fast_path_enabled_ && sdw_cache_.enabled(); }
  // Post-store bookkeeping shared by the guest and supervisor write
  // paths: invalidates cached decodes when the target is executable, and
  // snoops stores that land inside the descriptor segment (an SDW edit
  // the processor may have cached).
  void NoteStore(AbsAddr addr, bool target_executable, Segno segno);

  // CALL / RETURN (Figures 8 and 9).
  void ExecuteCall();
  void ExecuteReturn();
  // The step CALL and RETURN share: replay the site's crossing memo, or
  // fetch the target SDW, charge the check, resolve the crossing, check
  // bounds and memoize the outcome. On success `out` holds the new ring
  // and whether the ring of execution changes; on failure the trap is
  // raised and false returned.
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
  bool fast_path_enabled_ = true;
  VerdictCache verdict_cache_;
  InsnCache insn_cache_;
  Tlb tlb_;
  bool block_engine_enabled_ = true;
  bool block_call_ablation_ = false;
  BlockCache block_cache_;
  bool chain_enabled_ = true;
  bool chain_ablation_ = false;
  CrossingCache crossing_cache_;
  // Shared decode: refcounts pin the attached images; decode_map_ indexes
  // their per-segment tables by segno.
  std::vector<std::shared_ptr<const SharedDecodeImage>> decode_images_;
  std::vector<const SharedDecodeImage::Segment*> decode_map_;
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
