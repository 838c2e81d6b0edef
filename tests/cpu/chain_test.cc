// Block-to-block chaining and CALL/RETURN revalidation: directed
// coverage of every invalidation site. Each site test runs a chained
// twin against a reference-tier twin through the same mid-run invalidation
// and requires the full architectural face (cycles, registers, the
// pending trap, every non-host counter, compared by the one run
// comparator) to stay bit-identical — a patched successor link that
// survived the site would execute stale decode and split the twins. The
// five sites:
//
//   1. SDW cache epoch flush        (Cpu::FlushSdwCache)
//   2. descriptor snoop             (Cpu::InvalidateSdw)
//   3. store into executable code   (Cpu::NoteStore, guest stores)
//   4. injected descriptor drop     (fault boundary, kSdwCacheDrop)
//   5. DBR reload                   (Cpu::SetDbr)
//
// The crossing tests are sharper still: they restrict the target
// descriptor between crossings so a stale cached SDW would *grant* a
// crossing the edited SDW forbids, and assert the trap fires on every
// engine tier.
//
// The resolved-hop tests cover the link words a block resolves at build
// (DESIGN.md §7): each edits, snaps, or lengthens what the first hop of an
// IPR-relative `,*` operand reads, or runs it where it must not be
// resolved, and requires every engine tier to agree.
//
// The resolved-operand tests cover the operand memo of a block op whose
// final address is fixed at build (DESIGN.md §7, "Resolved operands"):
// each lands an event mid-loop that could make a kept reference stale,
// and requires every engine tier to agree. The resolved-transfer tests do
// the same for the memo a transfer keeps (DESIGN.md §7, "Ops run in the
// loop").
//
// The live-decode tests cover block formation itself: a block decodes its
// words straight from the store, so code runs in blocks on its first
// pass, and the build stops before any word the per-instruction path
// would trap or latch a store fault on.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/fleet/fingerprint.h"
#include "src/mem/page_table.h"
#include "src/sys/machine.h"
#include "tests/testutil.h"

namespace rings {
namespace {

// A twin's face for the run comparator: the processor's signature plus
// the pending trap's cause, if any.
RunSignature TwinSignature(const Cpu& cpu) {
  RunSignature sig = CpuSignature(cpu);
  if (cpu.trap_pending()) {
    sig.traps.push_back(std::string(TrapCauseName(cpu.trap_state().cause)));
  }
  return sig;
}

// The whole architectural face of two machines must agree; only host-side
// cache effectiveness may differ between the chained and reference twins.
void ExpectTwinsAgree(BareMachine& on, BareMachine& off) {
  EXPECT_TRUE(SameRun(TwinSignature(off.cpu()), TwinSignature(on.cpu())));
}

// ---------------------------------------------------------------------------
// Block chaining: a two-block guest loop that links A -> B -> A.
//
//   w0: adai 1      block A
//   w1: tra  2
//   w2: adai 2      block B  (the rewrite target: adai 2 -> adai 7)
//   w3: tra  0
// ---------------------------------------------------------------------------

struct LoopRig {
  BareMachine m;
  Segno code = 0;

  explicit LoopRig(bool chain) {
    m.cpu().set_engine_tier(chain ? EngineTier::kBlocks : EngineTier::kReference);
    code = m.AddCode(
        {MakeIns(Opcode::kAdai, 1), MakeIns(Opcode::kTra, 2), MakeIns(Opcode::kAdai, 2),
         MakeIns(Opcode::kTra, 0)},
        UserCode());
    m.SetIpr(4, code, 0);
  }

  // Drives the superblock engine (the only executor that chains) until
  // the simulated cycle bound or a trap.
  void RunTo(uint64_t bound) {
    while (m.cpu().cycles() < bound && !m.cpu().trap_pending()) {
      m.cpu().StepBlock(bound);
    }
  }

  // Rewrites block B's body behind the processor's back, with NO flush:
  // the site under test must be the only thing that retires the stale
  // decode and the links into it.
  void RewriteBlockB() {
    const Sdw sdw = *m.dseg().Fetch(code);
    m.memory().Write(sdw.base + 2, EncodeInstruction(MakeIns(Opcode::kAdai, 7)));
  }
};

// Runs the same scenario on a chained and a reference twin and checks
// the twins agree afterwards; returns the chained twin's final A for
// rewrite-visibility assertions.
template <typename Scenario>
Word RunTwinScenario(Scenario&& scenario) {
  LoopRig on(/*chain=*/true);
  LoopRig off(/*chain=*/false);
  scenario(on);
  scenario(off);
  EXPECT_GT(on.m.cpu().counters().chain_follows, 0u);
  EXPECT_EQ(off.m.cpu().counters().chain_follows, 0u);
  ExpectTwinsAgree(on.m, off.m);
  return on.m.cpu().regs().a;
}

TEST(ChainInvalidate, SdwCacheFlushDropsPatchedLinks) {
  const Word mutated = RunTwinScenario([](LoopRig& rig) {
    rig.RunTo(300);
    rig.RewriteBlockB();
    rig.m.cpu().FlushSdwCache();  // site 1: epoch flush kills block + links
    rig.RunTo(600);
  });
  // The rewrite really changed guest arithmetic (the twin comparison
  // would pass vacuously if both twins kept executing stale decode).
  LoopRig control(/*chain=*/true);
  control.RunTo(300);
  control.m.cpu().FlushSdwCache();
  control.RunTo(600);
  EXPECT_NE(mutated, control.m.cpu().regs().a);
}

TEST(ChainInvalidate, DescriptorSnoopDropsPatchedLinks) {
  RunTwinScenario([](LoopRig& rig) {
    rig.RunTo(300);
    // Rebase the code segment onto a modified copy (block B: adai 7) —
    // the descriptor edit a supervisor announces with InvalidateSdw.
    const Sdw old = *rig.m.dseg().Fetch(rig.code);
    const AbsAddr alt = *rig.m.memory().Allocate(4);
    for (Wordno w = 0; w < 4; ++w) {
      rig.m.memory().Write(alt + w, rig.m.memory().Read(old.base + w));
    }
    rig.m.memory().Write(alt + 2, EncodeInstruction(MakeIns(Opcode::kAdai, 7)));
    Sdw moved = old;
    moved.base = alt;
    rig.m.dseg().Store(rig.code, moved);
    rig.m.cpu().InvalidateSdw(rig.code);  // site 2: descriptor snoop
    rig.RunTo(600);
  });
}

TEST(ChainInvalidate, DbrReloadDropsPatchedLinks) {
  RunTwinScenario([](LoopRig& rig) {
    rig.RunTo(300);
    rig.RewriteBlockB();
    rig.m.cpu().SetDbr(rig.m.dseg().dbr());  // site 5: address-space switch
    rig.RunTo(600);
  });
}

TEST(ChainInvalidate, InjectedDescriptorDropsKeepTwinsIdentical) {
  // Site 4: the fault boundary's kSdwCacheDrop invalidates descriptor
  // slots (and the blocks/links/memos derived through them) at seeded
  // random instants. Identically-seeded injectors see the identical
  // instruction-boundary stream on both twins, so every drop lands at
  // the same simulated instant — and the twins must still agree.
  FaultConfig config;
  config.set_rate(FaultSite::kSdwCacheDrop, 50'000);  // 5% per boundary
  config.seed = 7;
  FaultInjector inject_on(config);
  FaultInjector inject_off(config);

  LoopRig on(/*chain=*/true);
  LoopRig off(/*chain=*/false);
  on.m.cpu().set_fault_injector(&inject_on);
  off.m.cpu().set_fault_injector(&inject_off);
  on.RunTo(4000);
  off.RunTo(4000);

  const auto drops = [](const FaultInjector& fi) {
    return fi.injected(FaultSite::kSdwCacheDrop);
  };
  EXPECT_GT(drops(inject_on), 0u);
  EXPECT_EQ(drops(inject_on), drops(inject_off));
  EXPECT_GT(on.m.cpu().counters().chain_follows, 0u);
  ExpectTwinsAgree(on.m, off.m);
}

// Site 3: the guest stores into its own (writable, executable) code.
// A self-chaining countdown block runs hot, then a store block rewrites
// the instruction the loop exits into; a chained engine that kept a link
// past the NoteStore would execute the stale decode and split the twins.
//
//   w0: aos pr1|0       block A (self-links while cnt < limit)
//   w1: lda pr1|0
//   w2: sba pr1|1
//   w3: tmi 0
//   w4: stq pr2|6       block B: Q (an encoded mme) lands on w6
//   w5: tra 6
//   w6: nop             becomes `mme` — the fresh decode must see it
//   w7: mme             backstop: stale-nop execution falls through here
//                       one instruction later and diverges the twins
TEST(ChainInvalidate, GuestStoreIntoCodeDropsPatchedLinks) {
  const auto run = [](bool chain, BareMachine* out_machine) -> Cpu* {
    auto& m = *out_machine;
    m.cpu().set_engine_tier(chain ? EngineTier::kBlocks : EngineTier::kReference);
    const Segno data = m.AddSegment({0, 40}, UserData());  // cnt, limit
    SegmentAccess writable_code = MakeProcedureSegment(4, 4);
    writable_code.flags.write = true;
    const Segno code = m.AddCode(
        {MakeInsPr(Opcode::kAos, 1, 0), MakeInsPr(Opcode::kLda, 1, 0),
         MakeInsPr(Opcode::kSba, 1, 1), MakeIns(Opcode::kTmi, 0),
         MakeInsPr(Opcode::kStq, 2, 6), MakeIns(Opcode::kTra, 6), MakeIns(Opcode::kNop),
         MakeIns(Opcode::kMme)},
        writable_code);
    m.SetIpr(4, code, 0);
    m.SetPr(1, 4, data, 0);
    m.SetPr(2, 4, code, 0);
    m.cpu().regs().q = EncodeInstruction(MakeIns(Opcode::kMme));
    while (!m.cpu().trap_pending() && m.cpu().cycles() < 100'000) {
      m.cpu().StepBlock(100'000);
    }
    return &m.cpu();
  };

  BareMachine machine_on;
  BareMachine machine_off;
  Cpu* on = run(/*chain=*/true, &machine_on);
  Cpu* off = run(/*chain=*/false, &machine_off);

  ASSERT_TRUE(on->trap_pending());
  ASSERT_TRUE(off->trap_pending());
  // Both stopped at the stored `mme` (w6, saved resume ipr w7) — stale
  // decode of w6 as nop would fall through to the backstop (resume w8).
  EXPECT_EQ(on->trap_state().cause, TrapCause::kMasterModeEntry);
  EXPECT_EQ(on->trap_state().regs.ipr.wordno, 7u);
  EXPECT_GT(on->counters().chain_follows, 0u);
  EXPECT_EQ(off->counters().chain_follows, 0u);
  ExpectTwinsAgree(machine_on, machine_off);
}

// ---------------------------------------------------------------------------
// CALL/RETURN revalidation. A gate-call site is warmed until the target's
// SDW answers from the SDW cache, then the target descriptor is
// restricted; a stale cached SDW would grant the crossing the edited SDW
// forbids. Each test runs on every engine tier.
// ---------------------------------------------------------------------------

struct GateRig {
  BareMachine m{64, 0};
  Segno target = 0;
  Segno code = 0;

  explicit GateRig(EngineTier tier) {
    m.cpu().set_engine_tier(tier);
    for (Ring r = 0; r < kRingCount; ++r) {
      m.AddSegment({}, MakeStackSegment(r), /*extra=*/64);
    }
    target = m.AddCode({MakeIns(Opcode::kNop), MakeIns(Opcode::kNop)},
                       MakeProcedureSegment(1, 1, 5, /*gate_count=*/1));
    code = m.AddCode({MakeInsPr(Opcode::kCall, 2, 0), MakeIns(Opcode::kNop)},
                     MakeProcedureSegment(4, 4));
    Arm();
  }

  void Arm() {
    m.SetIpr(4, code, 0);
    m.SetPr(2, 4, target, 0);
    m.SetPr(kPrStack, 4, 4, 16);
  }

  // Crosses twice; the second crossing fetches no descriptor, so its
  // target's SDW came from the SDW cache.
  void WarmCallSite() {
    ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
    Arm();
    const uint64_t fetches = m.cpu().counters().sdw_fetches;
    ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
    EXPECT_EQ(m.cpu().counters().sdw_fetches, fetches);
    Arm();
  }

  // Re-encodes the target's descriptor with all gates withdrawn.
  void WithdrawGates() {
    Sdw sdw = *m.dseg().Fetch(target);
    sdw.access.gate_count = 0;
    m.dseg().Store(target, sdw);
  }
};

TEST(CrossingCacheInvalidate, DescriptorSnoopRevalidatesWarmCallSite) {
  for (const EngineTier tier : kEngineTiers) {
    SCOPED_TRACE(EngineTierName(tier));
    GateRig rig(tier);
    rig.WarmCallSite();
    rig.WithdrawGates();
    rig.m.cpu().InvalidateSdw(rig.target);
    // The cached "gate ok" descriptor must not answer for the edited SDW.
    EXPECT_EQ(rig.m.StepTrap(), TrapCause::kGateViolation);
  }
}

TEST(CrossingCacheInvalidate, SdwCacheFlushRevalidatesWarmCallSite) {
  for (const EngineTier tier : kEngineTiers) {
    SCOPED_TRACE(EngineTierName(tier));
    GateRig rig(tier);
    rig.WarmCallSite();
    rig.WithdrawGates();
    rig.m.cpu().FlushSdwCache();  // the flush alone must refetch the SDW
    EXPECT_EQ(rig.m.StepTrap(), TrapCause::kGateViolation);
  }
}

// RETURN side: every RET fetches the return target's SDW, so a withdrawn
// descriptor must stop the return even after the SDW cache held it.
TEST(CrossingCacheInvalidate, WithdrawnReturnTargetTrapsAfterWarmMemo) {
  for (const EngineTier tier : kEngineTiers) {
    SCOPED_TRACE(EngineTierName(tier));
    BareMachine m;
    m.cpu().set_engine_tier(tier);
    const Segno retseg = m.AddCode({MakeInsPr(Opcode::kRet, 7, 0)}, MakeProcedureSegment(1, 1));
    const Segno target =
        m.AddCode({MakeIns(Opcode::kNop), MakeIns(Opcode::kNop)}, MakeProcedureSegment(4, 4));
    const auto arm = [&] {
      m.cpu().regs().ipr = Ipr{1, retseg, 0};
      for (PointerRegister& pr : m.cpu().regs().pr) {
        pr = PointerRegister{1, 0, 0};
      }
      m.cpu().regs().pr[kPrReturn] = PointerRegister{4, target, 0};
    };

    arm();
    ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
    arm();
    const uint64_t fetches = m.cpu().counters().sdw_fetches;
    ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
    EXPECT_EQ(m.cpu().counters().sdw_fetches, fetches);  // the target's SDW was cached

    Sdw sdw = *m.dseg().Fetch(target);
    sdw.present = false;
    m.dseg().Store(target, sdw);
    m.cpu().InvalidateSdw(target);
    arm();
    EXPECT_EQ(m.StepTrap(), TrapCause::kMissingSegment);
  }
}

// ---------------------------------------------------------------------------
// Resolved link words. The hot loops below reach their data through a
// link word in their own procedure segment (`aos L,*`, the `.its` idiom),
// so the block engine resolves that first hop when it builds the block.
// ---------------------------------------------------------------------------

// `op L,*` with L an IPR-relative word number; `reg` names the PR of EPP.
Instruction ViaLink(Opcode op, Wordno link, uint8_t reg = 0) {
  Instruction ins = MakeInsReg(op, reg, static_cast<int32_t>(link));
  ins.indirect = true;
  return ins;
}

Word Its(Segno segno, Wordno wordno, bool indirect = false) {
  return EncodeIndirectWord(IndirectWord{4, indirect, segno, wordno});
}

// Drives the superblock engine (Step on the other tiers) until the cycle
// bound or a trap.
void RunTo(BareMachine& m, uint64_t bound) {
  while (m.cpu().cycles() < bound && !m.cpu().trap_pending()) {
    m.cpu().StepBlock(bound);
  }
}

// Whether the block held at (segno, start) resolved op `index`'s first
// hop at build. Only the blocks tier builds blocks.
bool HopResolved(const Cpu& cpu, Segno segno, Wordno start, size_t index) {
  const BlockCache::Block* b = cpu.block_cache().Lookup(segno, start);
  return b != nullptr && index < b->count && b->ops[index].hop;
}

// Runs `scenario(machine, tier)` on a fresh bare machine per tier and
// expects every tier's face to match the reference tier's.
template <class Scenario>
std::vector<RunSignature> ExpectHopScenarioAgrees(Scenario scenario) {
  return ExpectSameRunOnEveryTier([&](EngineTier tier) {
    BareMachine m;
    m.cpu().set_engine_tier(tier);
    scenario(m, tier);
    return TwinSignature(m.cpu());
  });
}

// A hot loop re-points its own `.its` word: after ten passes it stores Q
// (a pointer to c1) over `cnt`, and the remaining thirty passes count c1.
// A hop that survived the store would keep counting c0. The store comes
// after ten passes, so it meets a block that resolved the hop on an
// earlier pass. Returns whether the loop's block resolved its first hop.
bool RunItsRewriteLoop(BareMachine& m, const SegmentAccess& code_access) {
  const Segno data = m.AddSegment({0, 0, 0, 10, 40}, UserData());  // c0 c1 iter half limit
  constexpr Wordno kCnt = 15, kIter = 16, kHalf = 17, kLimit = 18, kC0 = 19, kC1 = 20;
  std::vector<Word> words;
  for (const Instruction& ins :
       {ViaLink(Opcode::kLda, kCnt), MakeIns(Opcode::kAdai, 1), ViaLink(Opcode::kSta, kCnt),
        ViaLink(Opcode::kAos, kIter), ViaLink(Opcode::kLda, kIter),
        ViaLink(Opcode::kSba, kHalf), MakeIns(Opcode::kTnz, 9),
        MakeIns(Opcode::kStq, kCnt),  // iter == half: re-point cnt at c1
        MakeIns(Opcode::kTra, 0), ViaLink(Opcode::kLda, kIter), ViaLink(Opcode::kSba, kLimit),
        MakeIns(Opcode::kTmi, 0), ViaLink(Opcode::kLda, kC0), ViaLink(Opcode::kLdq, kC1),
        MakeIns(Opcode::kMme)}) {
    words.push_back(EncodeInstruction(ins));
  }
  for (const Wordno target : {0u, 2u, 3u, 4u, 0u, 1u}) {
    words.push_back(Its(data, target));
  }
  const Segno code = m.AddSegment(words, code_access);
  m.SetIpr(4, code, 0);
  m.cpu().regs().q = Its(data, 1);
  RunTo(m, 100'000);
  EXPECT_TRUE(m.cpu().trap_pending());
  EXPECT_EQ(m.cpu().trap_state().cause, TrapCause::kMasterModeEntry);
  EXPECT_EQ(m.cpu().regs().a, 10u);  // c0: the passes before the store
  EXPECT_EQ(m.cpu().regs().q, 30u);  // c1: the passes after it
  return HopResolved(m.cpu(), code, 0, 0);
}

TEST(ResolvedHop, GuestStoreIntoItsWordRetiresHop) {
  ExpectHopScenarioAgrees([](BareMachine& m, EngineTier tier) {
    SegmentAccess writable_code = UserCode();
    writable_code.flags.write = true;
    EXPECT_EQ(RunItsRewriteLoop(m, writable_code), tier == EngineTier::kBlocks);
  });
}

// With checks off a segment without the execute flag still runs, but a
// store through its SDW is not a code store and retires nothing, so its
// link words must not be resolved.
TEST(ResolvedHop, ChecksOffNonExecutableSegmentIsNotResolved) {
  ExpectHopScenarioAgrees([](BareMachine& m, EngineTier) {
    m.cpu().set_checks_enabled(false);
    EXPECT_FALSE(RunItsRewriteLoop(m, UserData()));
  });
}

// The same hazard for decodes: with checks off a loop runs from a
// read/write segment and, after twenty passes, stores over its own hot
// `aos c0` an `aos c1` (held in Q). The store goes through an SDW without
// the execute flag and retires nothing, so a block decoded from that
// segment would keep counting c0 (A=40 Q=0 instead of A=20 Q=20).
TEST(CodeStore, ChecksOffNonExecutableSegmentRunsItsPatchedWord) {
  ExpectSameRunOnEveryTier([](EngineTier tier) {
    BareMachine m;
    m.cpu().set_engine_tier(tier);
    m.cpu().set_checks_enabled(false);
    constexpr Wordno kC0 = 12, kC1 = 13, kIter = 14, kHalf = 15, kLimit = 16;
    std::vector<Word> words;
    for (const Instruction& ins :
         {MakeIns(Opcode::kAos, kC0),  // patched to `aos c1`
          MakeIns(Opcode::kAos, kIter), MakeIns(Opcode::kLda, kIter),
          MakeIns(Opcode::kSba, kHalf), MakeIns(Opcode::kTnz, 6),
          MakeIns(Opcode::kStq, 0),  // iter == half: patch w0
          MakeIns(Opcode::kLda, kIter), MakeIns(Opcode::kSba, kLimit),
          MakeIns(Opcode::kTmi, 0), MakeIns(Opcode::kLda, kC0), MakeIns(Opcode::kLdq, kC1),
          MakeIns(Opcode::kMme)}) {
      words.push_back(EncodeInstruction(ins));
    }
    words.insert(words.end(), {0, 0, 0, 20, 40});  // c0 c1 iter half limit
    const Segno code = m.AddSegment(words, UserData());
    m.SetIpr(4, code, 0);
    m.cpu().regs().q = EncodeInstruction(MakeIns(Opcode::kAos, kC1));
    RunTo(m, 100'000);
    EXPECT_EQ(m.cpu().trap_state().cause, TrapCause::kMasterModeEntry);
    EXPECT_EQ(m.cpu().regs().a, 20u);
    EXPECT_EQ(m.cpu().regs().q, 20u);
    return TwinSignature(m.cpu());
  });
}

// A `.link` word traps on first use; the supervisor snaps it through
// SupervisorWriteRaw, and the re-executed loop resolves the snapped word.
RunSignature RunLinkFaultLoop(EngineTier tier) {
  constexpr char kSource[] = R"(
        .segment main
start:  lda   lk,*          ; the first pass takes the link fault
        adai  1
        sta   lk,*
        aos   it,*
        lda   it,*
        sba   lim,*
        tmi   start
        lda   lk,*
        mme   0
lk:     .link 4, counts, 0
it:     .its  4, counts, 1
lim:    .its  4, counts, 2

        .segment counts
        .word 0
        .word 0
        .word 30
)";
  MachineConfig config;
  ApplyTier(tier, &config);
  Machine machine(config);
  EXPECT_TRUE(machine.ok());
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(UserCode());
  acls["counts"] = AccessControlList::Public(UserData());
  EXPECT_TRUE(machine.LoadProgramSource(kSource, acls));
  Process* p = machine.Login("linker");
  EXPECT_NE(p, nullptr);
  machine.supervisor().InitiateAll(p);
  EXPECT_TRUE(machine.Start(p, "main", "start", kUserRing));
  machine.trace().set_enabled(true);
  machine.Run(200'000);
  return SignatureOf(machine);
}

TEST(ResolvedHop, LinkFaultSnapThenReexecution) {
  const std::vector<RunSignature> runs = ExpectSameRunOnEveryTier(RunLinkFaultLoop);
  const RunSignature& blocks = runs[0];
  EXPECT_EQ(blocks.counters.TrapCount(TrapCause::kLinkFault), 1u);
  EXPECT_GT(blocks.counters.block_ops, 0u);
  ASSERT_EQ(blocks.processes.size(), 1u);
  EXPECT_NE(blocks.processes[0].find("code=30"), std::string::npos) << blocks.processes[0];
}

// Withdrawing the procedure segment's read flag (announced by
// InvalidateSdw) must make the next indirect read of its link word trap.
TEST(ResolvedHop, ProcedureAclEditRetiresHop) {
  const std::vector<RunSignature> runs = ExpectHopScenarioAgrees([](BareMachine& m,
                                                                    EngineTier tier) {
    const Segno data = m.AddSegment({0}, UserData());
    const Segno code = m.AddSegment({EncodeInstruction(ViaLink(Opcode::kAos, 2)),
                                     EncodeInstruction(MakeIns(Opcode::kTra, 0)), Its(data, 0)},
                                    UserCode());
    m.SetIpr(4, code, 0);
    RunTo(m, 3'000);
    ASSERT_FALSE(m.cpu().trap_pending());
    EXPECT_EQ(HopResolved(m.cpu(), code, 0, 0), tier == EngineTier::kBlocks);
    Sdw sdw = *m.dseg().Fetch(code);
    sdw.access.flags.read = false;
    m.dseg().Store(code, sdw);
    m.cpu().InvalidateSdw(code);
    RunTo(m, 6'000);
  });
  EXPECT_EQ(runs[0].traps, std::vector<std::string>{"read_violation"});
}

// Checks off: no tier builds a block, so no hop is resolved, and Figure 5
// still raises the ring to SDW.R1 on the per-instruction path. An R1 edit
// between passes must reach the pointer EPP loads.
TEST(ResolvedHop, ChecksOffHopFollowsR1Edit) {
  const std::vector<RunSignature> runs = ExpectHopScenarioAgrees([](BareMachine& m,
                                                                    EngineTier tier) {
    m.cpu().set_checks_enabled(false);
    const Segno data = m.AddSegment({0}, UserData());
    const Segno code = m.AddSegment({EncodeInstruction(ViaLink(Opcode::kEpp, 3, /*reg=*/2)),
                                     EncodeInstruction(ViaLink(Opcode::kAos, 3)),
                                     EncodeInstruction(MakeIns(Opcode::kTra, 0)), Its(data, 0)},
                                    UserCode());
    m.SetIpr(4, code, 0);
    RunTo(m, 3'000);
    EXPECT_EQ(m.cpu().regs().pr[2].ring, 4);
    EXPECT_FALSE(HopResolved(m.cpu(), code, 0, 0));
    EXPECT_EQ(m.cpu().counters().block_builds, 0u) << EngineTierName(tier);
    Sdw sdw = *m.dseg().Fetch(code);
    sdw.access.brackets = Brackets{6, 6, 6};
    m.dseg().Store(code, sdw);
    m.cpu().InvalidateSdw(code);
    RunTo(m, 6'000);
    EXPECT_EQ(m.cpu().regs().pr[2].ring, 6);
  });
  EXPECT_EQ(runs[0].counters.checks_indirect, 0u);
}

// An injector attached to a warm machine draws once per hop, so ops whose
// hop was resolved before it arrived must take the full formation: the
// MaybeCorruptIndirectRing stream, and the trap its first raised ring
// causes, then land at the same cycle on every tier.
TEST(ResolvedHop, InjectorAttachedMidRunDrawsEveryHop) {
  ExpectHopScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const Segno data = m.AddSegment({0}, UserData());
    const Segno code = m.AddSegment({EncodeInstruction(ViaLink(Opcode::kAos, 3)),
                                     EncodeInstruction(ViaLink(Opcode::kLda, 3)),
                                     EncodeInstruction(MakeIns(Opcode::kTra, 0)), Its(data, 0)},
                                    UserCode());
    m.SetIpr(4, code, 0);
    RunTo(m, 3'000);
    EXPECT_EQ(HopResolved(m.cpu(), code, 0, 0), tier == EngineTier::kBlocks);
    FaultConfig config;
    config.set_rate(FaultSite::kIndirectRingCorruption, 5'000);  // 0.5% per hop
    config.seed = 11;
    FaultInjector injector(config);
    m.cpu().set_fault_injector(&injector);
    RunTo(m, 1'000'000);
    m.cpu().set_fault_injector(nullptr);
    EXPECT_EQ(injector.injected(FaultSite::kIndirectRingCorruption), 1u);
    ASSERT_TRUE(m.cpu().trap_pending());
  });
}

// A 65-word chain headed by the procedure segment's link word: the
// resolved hop is the first, so the limit must fire when the 65th word
// is due, as on the full path. The chain grows between passes through a
// data-segment store, which leaves the block and its hop in place.
TEST(ResolvedHop, DeepChainHitsIndirectionLimitAtSameHop) {
  const std::vector<RunSignature> runs = ExpectHopScenarioAgrees([](BareMachine& m,
                                                                    EngineTier tier) {
    constexpr Segno kData = 0;  // the bare machine's first segment
    constexpr Wordno kTarget = kMaxIndirectionDepth;
    // Word k < 63 points at word k + 1 and goes on; word 63 ends the
    // chain at the target. Word 0 starts out ending it directly.
    std::vector<Word> chain;
    for (Wordno k = 0; k + 1 < kMaxIndirectionDepth; ++k) {
      chain.push_back(Its(kData, k + 1, /*indirect=*/true));
    }
    chain.push_back(Its(kData, kTarget));
    chain.push_back(777);
    chain[0] = Its(kData, kTarget);
    const Segno data = m.AddSegment(chain, UserData());
    ASSERT_EQ(data, kData);
    const Segno code = m.AddSegment(
        {EncodeInstruction(ViaLink(Opcode::kLda, 3)), EncodeInstruction(MakeIns(Opcode::kAdai, 1)),
         EncodeInstruction(MakeIns(Opcode::kTra, 0)), Its(data, 0, /*indirect=*/true)},
        UserCode());
    m.SetIpr(4, code, 0);
    RunTo(m, 3'000);
    ASSERT_FALSE(m.cpu().trap_pending());
    EXPECT_EQ(m.cpu().regs().a, 778u);
    EXPECT_EQ(HopResolved(m.cpu(), code, 0, 0), tier == EngineTier::kBlocks);
    ASSERT_EQ(m.cpu().SupervisorWriteRaw(data, 0, Its(data, 1, /*indirect=*/true)),
              TrapCause::kNone);
    RunTo(m, 6'000);
  });
  EXPECT_EQ(runs[0].traps, std::vector<std::string>{"indirection_limit"});
}

// A paged procedure segment builds no block (its words have no address
// fixed by the verdict), so no hop is resolved; the page moving under the
// hot loop (a relocated frame whose link word points elsewhere) must be
// seen.
TEST(ResolvedHop, PagedProcedureSegmentIsNotResolved) {
  ExpectHopScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const Segno data = m.AddSegment({0, 0}, UserData());
    constexpr Segno kCode = 10;
    const AbsAddr table = *AllocatePageTable(&m.memory(), 1);
    const auto install = [&](Wordno counter) {
      const AbsAddr frame = *InstallZeroPage(&m.memory(), table, 0);
      m.memory().Write(frame + 0, EncodeInstruction(ViaLink(Opcode::kAos, 2)));
      m.memory().Write(frame + 1, EncodeInstruction(MakeIns(Opcode::kTra, 0)));
      m.memory().Write(frame + 2, Its(data, counter));
    };
    install(0);
    Sdw sdw;
    sdw.present = true;
    sdw.paged = true;
    sdw.base = table;
    sdw.bound = 3;
    sdw.access = UserCode();
    m.dseg().Store(kCode, sdw);
    m.cpu().InvalidateSdw(kCode);
    m.SetIpr(4, kCode, 0);
    RunTo(m, 3'000);
    EXPECT_FALSE(HopResolved(m.cpu(), kCode, 0, 0));
    EXPECT_EQ(m.cpu().block_cache().Lookup(kCode, 0), nullptr);
    EXPECT_EQ(m.cpu().counters().block_builds, 0u) << EngineTierName(tier);
    install(1);  // the page moves; no call announces the PTW store
    RunTo(m, 6'000);
    EXPECT_GT(m.Peek(data, 0), 0u);
    EXPECT_GT(m.Peek(data, 1), 0u);
  });
}

// ---------------------------------------------------------------------------
// Resolved operands. The hot loops below reach their data through link
// words whose I bit is clear (resolved hops) and their limits through
// direct operands, so each such op's final address is fixed at build and
// the block op keeps its validated reference.
// ---------------------------------------------------------------------------

constexpr uint8_t kMemoRead = BlockCache::Op::kMemoRead;
constexpr uint8_t kMemoWrite = BlockCache::Op::kMemoWrite;

// Whether op `index` of the block at (segno, start) holds an operand memo
// for `kind` at the current block-cache version. Only the blocks tier
// builds blocks.
bool OperandMemoised(const Cpu& cpu, Segno segno, Wordno start, size_t index, uint8_t kind) {
  const BlockCache::Block* b = cpu.block_cache().Lookup(segno, start);
  return b != nullptr && index < b->count && (b->ops[index].memo & kind) != 0 &&
         b->ops[index].memo_version == cpu.block_cache().version();
}

// TwinSignature plus the saved IPR of the pending trap, so a trap taken
// one instruction early or late on some tier shows.
RunSignature TrapSiteSignature(const Cpu& cpu) {
  RunSignature sig = TwinSignature(cpu);
  if (cpu.trap_pending()) {
    const Ipr& at = cpu.trap_state().regs.ipr;
    sig.traps.push_back(std::to_string(at.segno) + "|" + std::to_string(at.wordno));
  }
  return sig;
}

template <class Scenario>
std::vector<RunSignature> ExpectOperandScenarioAgrees(
    Scenario scenario, CycleModel cycle_model = CycleModel::Default()) {
  return ExpectSameRunOnEveryTier([&](EngineTier tier) {
    BareMachine m(64, 0, cycle_model);
    m.cpu().set_engine_tier(tier);
    scenario(m, tier);
    return TrapSiteSignature(m.cpu());
  });
}

// The supervisor's SDW edit: rewrite the descriptor, then announce it.
template <class Edit>
void EditSdw(BareMachine& m, Segno segno, Edit edit) {
  Sdw sdw = *m.dseg().Fetch(segno);
  edit(sdw);
  m.dseg().Store(segno, sdw);
  m.cpu().InvalidateSdw(segno);
}

Word Encode(const Instruction& ins) { return EncodeInstruction(ins); }

// The counting loop every event lands in. Its data segment is the bare
// machine's first, so a colliding segment number is 16.
//
//   w0: lda cnt,*    w1: adai 1     w2: sta cnt,*   w3: aos iter,*
//   w4: lda iter,*   w5: sba lim    w6: tmi 0       w7: lda cnt,*   w8: mme
//
// w0, w2, w3 and w4 are resolved hops and w5 is direct: the block at w0
// memoises all five. It ends with A = cnt = lim.
struct MemoLoop {
  Segno data = 0;
  Segno code = 0;
};
constexpr Wordno kLoopLimit = 200;

MemoLoop AddMemoLoop(BareMachine& m, SegmentAccess data_access = UserData(),
                     SegmentAccess code_access = UserCode()) {
  MemoLoop loop;
  loop.data = m.AddSegment({0, 0}, data_access);  // cnt iter
  loop.code = m.AddSegment(
      {Encode(ViaLink(Opcode::kLda, 10)), Encode(MakeIns(Opcode::kAdai, 1)),
       Encode(ViaLink(Opcode::kSta, 10)), Encode(ViaLink(Opcode::kAos, 11)),
       Encode(ViaLink(Opcode::kLda, 11)), Encode(MakeIns(Opcode::kSba, 9)),
       Encode(MakeIns(Opcode::kTmi, 0)), Encode(ViaLink(Opcode::kLda, 10)),
       Encode(MakeIns(Opcode::kMme)), kLoopLimit, Its(loop.data, 0), Its(loop.data, 1)},
      code_access);
  m.SetIpr(4, loop.code, 0);
  return loop;
}

// Steps single instructions, the same on every tier, until the IPR is at
// `wordno`: an event landing there meets the memoised block at its start,
// not a fresh block built mid-loop with no memo.
void StepToWord(BareMachine& m, Wordno wordno) {
  for (int i = 0; i < 100 && m.cpu().regs().ipr.wordno != wordno; ++i) {
    m.cpu().Step();
  }
  ASSERT_EQ(m.cpu().regs().ipr.wordno, wordno);
}

// Runs the loop until it is hot and stops it at w0: on the blocks tier
// every fixed operand of the block at w0 is memoised.
void WarmMemoLoop(BareMachine& m, const MemoLoop& loop, EngineTier tier) {
  RunTo(m, 2'000);
  StepToWord(m, 0);
  ASSERT_FALSE(m.cpu().trap_pending());
  const bool blocks = tier == EngineTier::kBlocks;
  EXPECT_EQ(OperandMemoised(m.cpu(), loop.code, 0, 0, kMemoRead), blocks);
  EXPECT_EQ(OperandMemoised(m.cpu(), loop.code, 0, 2, kMemoWrite), blocks);
  EXPECT_EQ(OperandMemoised(m.cpu(), loop.code, 0, 3, kMemoRead | kMemoWrite), blocks);
  EXPECT_EQ(OperandMemoised(m.cpu(), loop.code, 0, 5, kMemoRead), blocks);
}

// The loop's last `lda cnt,*` left cnt in A and the MME pending.
void ExpectLoopFinished(BareMachine& m, Word cnt) {
  ASSERT_TRUE(m.cpu().trap_pending());
  EXPECT_EQ(m.cpu().trap_state().cause, TrapCause::kMasterModeEntry);
  EXPECT_EQ(m.cpu().regs().a, cnt);
}

TEST(ResolvedOperand, NarrowedWriteBracketTrapsNextMemoisedStore) {
  const std::vector<RunSignature> runs =
      ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
        const MemoLoop loop = AddMemoLoop(m);
        WarmMemoLoop(m, loop, tier);
        EditSdw(m, loop.data, [](Sdw& sdw) { sdw.access.brackets.r1 = 3; });
        RunTo(m, 100'000);
      });
  ASSERT_EQ(runs[0].traps.size(), 2u);
  EXPECT_EQ(runs[0].traps[0], "write_violation");
}

// The supervisor moves the data segment and poisons its old words: a kept
// absolute address would count on from the poison.
TEST(ResolvedOperand, RelocatedSegmentIsReadAtItsNewBase) {
  ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const MemoLoop loop = AddMemoLoop(m);
    WarmMemoLoop(m, loop, tier);
    const AbsAddr old_base = m.dseg().Fetch(loop.data)->base;
    const AbsAddr new_base = *m.memory().Allocate(2);
    for (Wordno w = 0; w < 2; ++w) {
      m.memory().Write(new_base + w, m.memory().Read(old_base + w));
      m.memory().Write(old_base + w, 1'000);
    }
    EditSdw(m, loop.data, [&](Sdw& sdw) { sdw.base = new_base; });
    RunTo(m, 100'000);
    ExpectLoopFinished(m, kLoopLimit);
  });
}

TEST(ResolvedOperand, ShrunkBoundTrapsTheMemoisedOperand) {
  const std::vector<RunSignature> runs =
      ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
        const MemoLoop loop = AddMemoLoop(m);
        WarmMemoLoop(m, loop, tier);
        EditSdw(m, loop.data, [](Sdw& sdw) { sdw.bound = 1; });  // iter falls outside
        RunTo(m, 100'000);
      });
  ASSERT_EQ(runs[0].traps.size(), 2u);
  EXPECT_EQ(runs[0].traps[0], "bounds_violation");
}

// An SDW edited without InvalidateSdw stays in force from the SDW cache,
// on every tier, until something evicts it. Here the loop itself evicts
// it at iter == 100 by reading segment 16, which shares the data
// segment's SDW-cache slot; the next store then refetches the narrowed
// descriptor and traps.
TEST(ResolvedOperand, CollidingSegnoEvictsTheSdwUnderTheMemo) {
  const std::vector<RunSignature> runs =
      ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
        const Segno data = m.AddSegment({0, 0}, UserData());  // cnt iter
        //   w0-w4 as in MemoLoop, w5: sba half, w6: tnz 0, w7: lda other,*, w8: tra 0
        const Segno code = m.AddSegment(
            {Encode(ViaLink(Opcode::kLda, 10)), Encode(MakeIns(Opcode::kAdai, 1)),
             Encode(ViaLink(Opcode::kSta, 10)), Encode(ViaLink(Opcode::kAos, 11)),
             Encode(ViaLink(Opcode::kLda, 11)), Encode(MakeIns(Opcode::kSba, 9)),
             Encode(MakeIns(Opcode::kTnz, 0)), Encode(ViaLink(Opcode::kLda, 12)),
             Encode(MakeIns(Opcode::kTra, 0)), 100, Its(data, 0), Its(data, 1), Its(16, 0)},
            UserCode());
        while (m.AddSegment({7}, UserData()) < 16) {
        }
        ASSERT_EQ(data % SdwCache::kEntries, 16 % SdwCache::kEntries);
        m.SetIpr(4, code, 0);
        RunTo(m, 2'000);
        ASSERT_FALSE(m.cpu().trap_pending());
        EXPECT_EQ(OperandMemoised(m.cpu(), code, 0, 2, kMemoWrite), tier == EngineTier::kBlocks);
        Sdw sdw = *m.dseg().Fetch(data);
        sdw.access.brackets.r1 = 3;
        m.dseg().Store(data, sdw);  // announced to no one
        RunTo(m, 100'000);
        EXPECT_EQ(m.Peek(data, 1), 100u);  // stores went on until the eviction
      });
  ASSERT_EQ(runs[0].traps.size(), 2u);
  EXPECT_EQ(runs[0].traps[0], "write_violation");
}

// A DBR reload to a copy of the descriptor segment whose data SDW names a
// copy of the data, with iter 50 passes further on: the loop ends 50
// passes early. A kept reference would count on in the old words.
TEST(ResolvedOperand, DbrReloadRetiresEveryMemo) {
  ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const MemoLoop loop = AddMemoLoop(m);
    WarmMemoLoop(m, loop, tier);
    const DbrValue dbr = m.dseg().dbr();
    DescriptorSegment copy = *DescriptorSegment::Create(&m.memory(), dbr.bound, dbr.stack_base);
    for (Segno s = 0; s < dbr.bound; ++s) {
      copy.Store(s, *m.dseg().Fetch(s));
    }
    Sdw data = *m.dseg().Fetch(loop.data);
    data.base = *m.memory().Allocate(2);
    m.memory().Write(data.base + 0, m.Peek(loop.data, 0));
    m.memory().Write(data.base + 1, m.Peek(loop.data, 1) + 50);
    copy.Store(loop.data, data);
    m.cpu().SetDbr(copy.dbr());
    RunTo(m, 100'000);
    ASSERT_TRUE(m.cpu().trap_pending());
    EXPECT_EQ(m.cpu().trap_state().cause, TrapCause::kMasterModeEntry);
    EXPECT_NEAR(static_cast<double>(m.cpu().regs().a), kLoopLimit - 50, 1);
  });
}

// With checks off every verdict vouches for the store into a segment
// whose write bracket excludes ring 4, and no tier builds a block; once
// checks are back on, the next store must trap, from a block on the
// blocks tier.
TEST(ResolvedOperand, ChecksToggledBetweenSlices) {
  const std::vector<RunSignature> runs =
      ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
        AddMemoLoop(m, MakeDataSegment(3, 4));
        m.cpu().set_checks_enabled(false);
        RunTo(m, 2'000);
        StepToWord(m, 0);
        ASSERT_FALSE(m.cpu().trap_pending());
        EXPECT_EQ(m.cpu().counters().block_builds, 0u) << EngineTierName(tier);
        m.cpu().set_checks_enabled(true);
        RunTo(m, 100'000);
        EXPECT_EQ(m.cpu().counters().block_ops > 0, tier == EngineTier::kBlocks);
      });
  ASSERT_EQ(runs[0].traps.size(), 2u);
  EXPECT_EQ(runs[0].traps[0], "write_violation");
}

// The data segment becomes paged, then its page moves to a frame whose
// words differ: a paged operand has no address fixed by its verdict, so
// it is never memoised, and the move, which no call announces, must be
// seen.
TEST(ResolvedOperand, SegmentBecomesPagedAndItsPageMoves) {
  ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const MemoLoop loop = AddMemoLoop(m);
    WarmMemoLoop(m, loop, tier);
    const AbsAddr table = *AllocatePageTable(&m.memory(), 1);
    const AbsAddr first = *InstallZeroPage(&m.memory(), table, 0);
    m.memory().Write(first + 0, m.Peek(loop.data, 0));
    m.memory().Write(first + 1, m.Peek(loop.data, 1));
    EditSdw(m, loop.data, [&](Sdw& sdw) {
      sdw.paged = true;
      sdw.base = table;
    });
    RunTo(m, 3'000);
    ASSERT_FALSE(m.cpu().trap_pending());
    EXPECT_FALSE(OperandMemoised(m.cpu(), loop.code, 0, 0, kMemoRead));
    EXPECT_FALSE(OperandMemoised(m.cpu(), loop.code, 0, 2, kMemoWrite));
    const AbsAddr second = *InstallZeroPage(&m.memory(), table, 0);
    m.memory().Write(second + 0, m.memory().Read(first + 0) + 1'000);
    m.memory().Write(second + 1, m.memory().Read(first + 1));
    RunTo(m, 100'000);
    ExpectLoopFinished(m, kLoopLimit + 1'000);
  });
}

// AOS on a word ring 4 may read but not write: each pass memoises the read
// and traps on the write, and the harness resumes after the AOS. The read
// memo must never answer the write.
TEST(ResolvedOperand, AosWithReadAllowedAndWriteDenied) {
  const std::vector<RunSignature> runs =
      ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
        const Segno ro = m.AddSegment({41}, MakeDataSegment(3, 4));
        const Segno data = m.AddSegment({0}, UserData());
        //   w0: aos ro,*  w1: aos iter,*  w2: lda iter,*  w3: sba lim  w4: tmi 0  w5: mme
        const Segno code = m.AddSegment(
            {Encode(ViaLink(Opcode::kAos, 7)), Encode(ViaLink(Opcode::kAos, 8)),
             Encode(ViaLink(Opcode::kLda, 8)), Encode(MakeIns(Opcode::kSba, 6)),
             Encode(MakeIns(Opcode::kTmi, 0)), Encode(MakeIns(Opcode::kMme)), 50, Its(ro, 0),
             Its(data, 0)},
            UserCode());
        m.SetIpr(4, code, 0);
        bool memoised = false;
        for (int pass = 0; pass < 100; ++pass) {
          RunTo(m, m.cpu().cycles() + 10'000);
          if (m.cpu().trap_state().cause != TrapCause::kWriteViolation) {
            break;
          }
          memoised |= OperandMemoised(m.cpu(), code, 0, 0, kMemoRead);
          EXPECT_FALSE(OperandMemoised(m.cpu(), code, 0, 0, kMemoWrite));
          TrapState trap = m.cpu().TakeTrap();
          ++trap.regs.ipr.wordno;
          m.cpu().Rett(trap.regs);
        }
        EXPECT_EQ(memoised, tier == EngineTier::kBlocks);
        EXPECT_EQ(m.cpu().trap_state().cause, TrapCause::kMasterModeEntry);
        EXPECT_EQ(m.Peek(ro, 0), 41u);
      });
  EXPECT_EQ(runs[0].counters.TrapCount(TrapCause::kWriteViolation), 50u);
}

// A memoised store into an executable segment retires its decodes. The
// loop stores Q over its own hot `aos c0` on every pass; the harness sets
// Q to `aos c1` mid-run, and from the next store on c1 counts.
TEST(ResolvedOperand, StoreIntoExecutableSegmentRetiresItsDecodes) {
  ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier) {
    constexpr Wordno kC0 = 9, kC1 = 10, kIter = 11, kLimit = 12;
    SegmentAccess writable_code = UserCode();
    writable_code.flags.write = true;
    const Segno code = m.AddSegment(
        {Encode(MakeIns(Opcode::kAos, kC0)),  // rewritten by the store below
         Encode(MakeIns(Opcode::kStq, 0)), Encode(MakeIns(Opcode::kAos, kIter)),
         Encode(MakeIns(Opcode::kLda, kIter)), Encode(MakeIns(Opcode::kSba, kLimit)),
         Encode(MakeIns(Opcode::kTmi, 0)), Encode(MakeIns(Opcode::kLda, kC0)),
         Encode(MakeIns(Opcode::kLdq, kC1)), Encode(MakeIns(Opcode::kMme)), 0, 0, 0, 100},
        writable_code);
    m.SetIpr(4, code, 0);
    m.cpu().regs().q = Encode(MakeIns(Opcode::kAos, kC0));
    RunTo(m, 1'500);
    ASSERT_FALSE(m.cpu().trap_pending());
    const Word before = m.Peek(code, kC0);
    m.cpu().regs().q = Encode(MakeIns(Opcode::kAos, kC1));
    RunTo(m, 100'000);
    EXPECT_EQ(m.cpu().trap_state().cause, TrapCause::kMasterModeEntry);
    EXPECT_GE(m.cpu().regs().a, before);
    EXPECT_LE(m.cpu().regs().a, before + 1);
    EXPECT_EQ(m.cpu().regs().a + m.cpu().regs().q, 100u);
  });
}

// A store into the descriptor segment edits an SDW behind the SDW cache,
// so NoteStore invalidates it. Here the loop stores, through a segment
// that aliases the descriptor segment, over its own SDW's access word;
// once the harness puts a narrowed write bracket in Q, the store after
// the one that wrote it must trap.
TEST(ResolvedOperand, StoreIntoDescriptorSegmentRetiresItsOwnVerdict) {
  const std::vector<RunSignature> runs =
      ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier) {
        const Segno data = m.AddSegment({0}, UserData());
        const Segno alias = m.AddSegment({}, UserData());
        //   w0: stq own,*  w1: aos iter,*  w2: lda iter,*  w3: sba lim  w4: tmi 0  w5: mme
        const Segno code = m.AddSegment(
            {Encode(ViaLink(Opcode::kStq, 7)), Encode(ViaLink(Opcode::kAos, 8)),
             Encode(ViaLink(Opcode::kLda, 8)), Encode(MakeIns(Opcode::kSba, 6)),
             Encode(MakeIns(Opcode::kTmi, 0)), Encode(MakeIns(Opcode::kMme)), 200,
             Its(alias, 2 * alias + 1), Its(data, 0)},
            UserCode());
        EditSdw(m, alias, [&](Sdw& sdw) {
          sdw.base = m.dseg().dbr().base;
          sdw.bound = 2 * m.dseg().bound();
        });
        Sdw sdw = *m.dseg().Fetch(alias);
        Word w0 = 0, w1 = 0;
        EncodeSdw(sdw, &w0, &w1);
        m.cpu().regs().q = w1;  // the same access word: each store changes nothing
        m.SetIpr(4, code, 0);
        RunTo(m, 2'000);
        ASSERT_FALSE(m.cpu().trap_pending());
        sdw.access.brackets.r1 = 3;
        EncodeSdw(sdw, &w0, &w1);
        m.cpu().regs().q = w1;
        RunTo(m, 100'000);
      });
  ASSERT_EQ(runs[0].traps.size(), 2u);
  EXPECT_EQ(runs[0].traps[0], "write_violation");
}

// A guest store onto a page-table word. The loop reads a paged segment's
// word and stores Q over that segment's PTW through an unpaged segment
// aliasing the page table, on every pass. Mid-run the harness puts a PTW
// for another frame in Q, and once the memoised store has written it the
// next read's walk must see the new frame's word.
TEST(ResolvedOperand, MemoisedStoreIntoPageTableDropsTheTranslation) {
  ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const AbsAddr table = *AllocatePageTable(&m.memory(), 1);
    Word ptw[3] = {};
    for (Word value : {3, 2, 1}) {  // frame 1 is installed last, so mapped first
      const AbsAddr frame = *InstallZeroPage(&m.memory(), table, 0);
      m.memory().Write(frame, value);
      ptw[value - 1] = m.memory().Read(table);
    }
    const Segno iter = m.AddSegment({0, 0}, UserData());  // iter total
    const Segno paged = m.AddSegment({}, UserData());
    const Segno ptws = m.AddSegment({}, UserData());
    EditSdw(m, paged, [&](Sdw& sdw) {
      sdw.paged = true;
      sdw.base = table;
      sdw.bound = 1;
    });
    EditSdw(m, ptws, [&](Sdw& sdw) {
      sdw.base = table;
      sdw.bound = 1;
    });
    //   w0: lda word,*   w1: ada total,*  w2: sta total,*  w3: stq ptw,*
    //   w4: aos iter,*   w5: lda iter,*   w6: sba lim      w7: tmi 0
    //   w8: lda total,*  w9: mme
    const Segno code = m.AddSegment(
        {Encode(ViaLink(Opcode::kLda, 11)), Encode(ViaLink(Opcode::kAda, 12)),
         Encode(ViaLink(Opcode::kSta, 12)), Encode(ViaLink(Opcode::kStq, 13)),
         Encode(ViaLink(Opcode::kAos, 14)), Encode(ViaLink(Opcode::kLda, 14)),
         Encode(MakeIns(Opcode::kSba, 10)), Encode(MakeIns(Opcode::kTmi, 0)),
         Encode(ViaLink(Opcode::kLda, 12)), Encode(MakeIns(Opcode::kMme)), 100,
         Its(paged, 0), Its(iter, 1), Its(ptws, 0), Its(iter, 0)},
        UserCode());
    m.SetIpr(4, code, 0);
    m.cpu().regs().q = ptw[1];  // frame 2 from the first store on
    RunTo(m, 2'000);
    ASSERT_FALSE(m.cpu().trap_pending());
    StepToWord(m, 0);
    EXPECT_EQ(OperandMemoised(m.cpu(), code, 0, 3, kMemoWrite), tier == EngineTier::kBlocks);
    EXPECT_LT(m.Peek(iter, 0), 90u);
    m.cpu().regs().q = ptw[2];  // frame 3
    RunTo(m, 100'000);
    EXPECT_EQ(m.cpu().trap_state().cause, TrapCause::kMasterModeEntry);
    // The first pass read frame 1 and the rest at least 2; more than 199
    // means frame 3 was read.
    EXPECT_GT(m.cpu().regs().a, 1 + 2 * 99u);
  });
}

// An injector attached to a warm machine may corrupt the ring of a link
// word, so a hop op then takes the full formation and must neither use
// nor fill its memo: the first raised ring traps on every tier.
TEST(ResolvedOperand, InjectorAttachedMidRunBypassesHopMemos) {
  const std::vector<RunSignature> runs =
      ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
        const MemoLoop loop = AddMemoLoop(m);
        WarmMemoLoop(m, loop, tier);
        FaultConfig config;
        config.set_rate(FaultSite::kIndirectRingCorruption, 20'000);  // 2% per hop
        config.seed = 5;
        FaultInjector injector(config);
        m.cpu().set_fault_injector(&injector);
        RunTo(m, 100'000);
        m.cpu().set_fault_injector(nullptr);
        // The corruption only raises a ring, past the data's brackets.
        EXPECT_EQ(injector.injected(FaultSite::kIndirectRingCorruption), 1u);
      });
  ASSERT_EQ(runs[0].traps.size(), 2u);
  EXPECT_TRUE(runs[0].traps[0] == "read_violation" || runs[0].traps[0] == "write_violation")
      << runs[0].traps[0];
}

// A read of the same segment at another ring bumps no version: the SDW is
// unchanged, so the memo stays right, and the resident descriptor answers
// both rings, so neither fast tier walks it again. From iter == 100 on,
// each pass ends with a read of the data at ring 5 (a link word with
// RING=5) right before the memoised ring-4 `lda cnt,*`.
TEST(ResolvedOperand, ReadAtAnotherRingKeepsTheMemo) {
  const std::vector<RunSignature> runs =
      ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier tier) {
        const Segno data = m.AddSegment({0, 0}, MakeDataSegment(4, 5));  // cnt iter
        //   w0-w4 as in MemoLoop, w5: sba lim  w6: tpl 12  w7: lda iter,*  w8: sba half
        //   w9: tmi 0  w10: lda r5,*  w11: tra 0  w12: lda cnt,*  w13: mme
        const Segno code = m.AddSegment(
            {Encode(ViaLink(Opcode::kLda, 16)), Encode(MakeIns(Opcode::kAdai, 1)),
             Encode(ViaLink(Opcode::kSta, 16)), Encode(ViaLink(Opcode::kAos, 17)),
             Encode(ViaLink(Opcode::kLda, 17)), Encode(MakeIns(Opcode::kSba, 15)),
             Encode(MakeIns(Opcode::kTpl, 12)), Encode(ViaLink(Opcode::kLda, 17)),
             Encode(MakeIns(Opcode::kSba, 14)), Encode(MakeIns(Opcode::kTmi, 0)),
             Encode(ViaLink(Opcode::kLda, 18)), Encode(MakeIns(Opcode::kTra, 0)),
             Encode(ViaLink(Opcode::kLda, 16)), Encode(MakeIns(Opcode::kMme)), 100, 200,
             Its(data, 0), Its(data, 1), EncodeIndirectWord(IndirectWord{5, false, data, 1})},
            UserCode());
        m.SetIpr(4, code, 0);
        RunTo(m, 2'000);
        ASSERT_FALSE(m.cpu().trap_pending());
        EXPECT_EQ(OperandMemoised(m.cpu(), code, 0, 0, kMemoRead), tier == EngineTier::kBlocks);
        RunTo(m, 100'000);
        EXPECT_EQ(OperandMemoised(m.cpu(), code, 0, 0, kMemoRead), tier == EngineTier::kBlocks);
        ExpectLoopFinished(m, 200);
      });
  EXPECT_EQ(runs[0].counters.verdict_misses, runs[1].counters.verdict_misses);
}

// LDBR reads two words, so it takes no memo: a kept first word would be
// read again as the second. The LDBR's decode is cached by a ring-4 pass
// that traps on it (privileged), so that the ring-0 pass runs it inside a
// block; its operand pair reloads the DBR it already has.
TEST(ResolvedOperand, LdbrInABlockReadsBothWordsOfItsPair) {
  const std::vector<RunSignature> runs =
      ExpectOperandScenarioAgrees([](BareMachine& m, EngineTier) {
        const DbrValue dbr = m.dseg().dbr();
        //   w0: adai 1  w1: ldbr pair  w2: mme  w3, w4: pair
        const Segno code = m.AddSegment(
            {Encode(MakeIns(Opcode::kAdai, 1)), Encode(MakeIns(Opcode::kLdbr, 3)),
             Encode(MakeIns(Opcode::kMme)), dbr.base,
             dbr.bound | (Word{dbr.stack_base} << kSegnoBits)},
            MakeProcedureSegment(0, 4));
        m.SetIpr(4, code, 0);
        RunTo(m, 1'000);
        ASSERT_EQ(m.cpu().trap_state().cause, TrapCause::kPrivilegedViolation);
        m.cpu().TakeTrap();
        m.SetIpr(0, code, 0);
        RunTo(m, 2'000);
        EXPECT_EQ(m.cpu().trap_state().cause, TrapCause::kMasterModeEntry);
        EXPECT_EQ(m.cpu().regs().dbr, dbr);
      });
  EXPECT_GT(runs[0].counters.block_ops, 0u);
}

// ---------------------------------------------------------------------------
// Resolved transfers. A TRA, TZE, TNZ, TMI or TPL whose final TPR is fixed
// at build keeps the verdict its validated transfer check answered from
// (kMemoTransfer), and a later execution at the same version charges the
// check without the reference. The loops below branch between two
// procedure segments through resolved hops and a direct transfer; each
// retires what such a memo stands for mid-loop, and every tier must trap
// at the same instruction or finish the same way.
// ---------------------------------------------------------------------------

constexpr uint8_t kMemoTransfer = BlockCache::Op::kMemoTransfer;

// ExpectOperandScenarioAgrees on machines whose access check costs a
// cycle (the default model charges none), so a memo hit that skips the
// check's charge shows in the cycle count.
template <class Scenario>
std::vector<RunSignature> ExpectCheckedScenarioAgrees(Scenario scenario) {
  CycleModel checked = CycleModel::Default();
  checked.access_check = 1;
  return ExpectOperandScenarioAgrees(scenario, checked);
}

// The pending trap's cause and saved IPR. A service trap (MME) saves the
// IPR of the instruction after it.
void ExpectTrapAt(const Cpu& cpu, TrapCause cause, Segno segno, Wordno wordno) {
  ASSERT_TRUE(cpu.trap_pending());
  EXPECT_EQ(cpu.trap_state().cause, cause);
  EXPECT_EQ(cpu.trap_state().regs.ipr.segno, segno);
  EXPECT_EQ(cpu.trap_state().regs.ipr.wordno, wordno);
}

Word Mme(int32_t code) { return Encode(MakeIns(Opcode::kMme, code)); }

// The branch loop. B, the target segment, is added first (so a colliding
// segment number is 16), then the data, then A.
//
//   A: w0: aos iter,*  w1: lda iter,*  w2: sba lim  w3: tmi into,*  w4: lda iter,*
//      w5: mme 0       w6: lim         w7: iter     w8: into -> B|2
//   B: w0, w1: mme 9   w2: nop         w3: tra 5    w4: mme 9       w5: tra back,*
//      w6: back -> A|0
//
// Once hot, the blocks tier keeps all three taken transfers: A's `tmi
// into,*` (op 3 of the block at A|0) and B's `tra back,*` (op 0 at B|5)
// through resolved hops, and B's `tra 5` (op 1 at B|2) direct. The loop
// ends at A|5 with A = lim.
struct BranchLoop {
  Segno target = 0;
  Segno data = 0;
  Segno code = 0;
};
constexpr Wordno kEntry = 2;
constexpr Word kBranchLimit = 200;

BranchLoop AddBranchLoop(BareMachine& m, SegmentAccess target_access = UserCode()) {
  BranchLoop loop;
  loop.target = m.AddSegment({Mme(9), Mme(9), Encode(MakeIns(Opcode::kNop)),
                              Encode(MakeIns(Opcode::kTra, 5)), Mme(9),
                              Encode(ViaLink(Opcode::kTra, 6)), 0},
                             target_access);
  loop.data = m.AddSegment({0}, UserData());
  loop.code = m.AddSegment(
      {Encode(ViaLink(Opcode::kAos, 7)), Encode(ViaLink(Opcode::kLda, 7)),
       Encode(MakeIns(Opcode::kSba, 6)), Encode(ViaLink(Opcode::kTmi, 8)),
       Encode(ViaLink(Opcode::kLda, 7)), Mme(0), kBranchLimit, Its(loop.data, 0),
       Its(loop.target, kEntry)},
      UserCode());
  m.Poke(loop.target, 6, Its(loop.code, 0));
  m.SetIpr(4, loop.code, 0);
  return loop;
}

// Runs the loop until it is hot and stops it at A|0: on the blocks tier
// every taken transfer of the loop is memoised.
void WarmBranchLoop(BareMachine& m, const BranchLoop& loop, EngineTier tier) {
  RunTo(m, 2'000);
  StepToWord(m, 0);
  ASSERT_FALSE(m.cpu().trap_pending());
  ASSERT_EQ(m.cpu().regs().ipr.segno, loop.code);
  const bool blocks = tier == EngineTier::kBlocks;
  EXPECT_EQ(OperandMemoised(m.cpu(), loop.code, 0, 3, kMemoTransfer), blocks);
  EXPECT_EQ(OperandMemoised(m.cpu(), loop.target, kEntry, 1, kMemoTransfer), blocks);
  EXPECT_EQ(OperandMemoised(m.cpu(), loop.target, 5, 0, kMemoTransfer), blocks);
}

// B's bound shrinks to its entry word: A's next `tmi into,*` must check
// the new bound and trap, not jump on its memo into B.
TEST(ResolvedTransfer, ShrunkBoundTrapsTheMemoisedTransfer) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const BranchLoop loop = AddBranchLoop(m);
    WarmBranchLoop(m, loop, tier);
    EditSdw(m, loop.target, [](Sdw& sdw) { sdw.bound = kEntry; });
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kBoundsViolation, loop.code, 3);
  });
}

// The supervisor moves B and poisons its old words with `mme 9`: the loop
// must run on from the new base.
TEST(ResolvedTransfer, RelocatedTargetRunsFromItsNewBase) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const BranchLoop loop = AddBranchLoop(m);
    WarmBranchLoop(m, loop, tier);
    const Sdw old_sdw = *m.dseg().Fetch(loop.target);
    const AbsAddr new_base = *m.memory().Allocate(old_sdw.bound);
    for (Wordno w = 0; w < old_sdw.bound; ++w) {
      m.memory().Write(new_base + w, m.memory().Read(old_sdw.base + w));
      m.memory().Write(old_sdw.base + w, Mme(9));
    }
    EditSdw(m, loop.target, [&](Sdw& sdw) { sdw.base = new_base; });
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kMasterModeEntry, loop.code, 6);
    EXPECT_EQ(m.cpu().regs().a, kBranchLimit);
  });
}

// A DBR reload to a copy of the descriptor segment in which ring 4 may no
// longer execute B: the first transfer into B after the reload traps.
TEST(ResolvedTransfer, DbrReloadRetiresEveryTransferMemo) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const BranchLoop loop = AddBranchLoop(m);
    WarmBranchLoop(m, loop, tier);
    const DbrValue dbr = m.dseg().dbr();
    DescriptorSegment copy = *DescriptorSegment::Create(&m.memory(), dbr.bound, dbr.stack_base);
    for (Segno s = 0; s < dbr.bound; ++s) {
      copy.Store(s, *m.dseg().Fetch(s));
    }
    Sdw target = *m.dseg().Fetch(loop.target);
    target.access = MakeProcedureSegment(3, 3);
    copy.Store(loop.target, target);
    m.cpu().SetDbr(copy.dbr());
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kExecuteViolation, loop.code, 3);
  });
}

// With checks off every transfer vouches, so ring 4 runs into a B it may
// not execute, and no tier builds a block; once checks are back on, the
// next transfer must trap, from a block on the blocks tier.
TEST(ResolvedTransfer, ChecksToggledBetweenSlices) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const BranchLoop loop = AddBranchLoop(m, MakeProcedureSegment(3, 3));
    m.cpu().set_checks_enabled(false);
    RunTo(m, 2'000);
    StepToWord(m, 0);
    ASSERT_FALSE(m.cpu().trap_pending());
    ASSERT_EQ(m.cpu().regs().ipr.segno, loop.code);
    EXPECT_EQ(m.cpu().counters().block_builds, 0u) << EngineTierName(tier);
    m.cpu().set_checks_enabled(true);
    RunTo(m, 100'000);
    EXPECT_EQ(m.cpu().counters().block_ops > 0, tier == EngineTier::kBlocks);
    ExpectTrapAt(m.cpu(), TrapCause::kExecuteViolation, loop.code, 3);
  });
}

// B's SDW is narrowed so that ring 4 may not execute it, announced to no
// one: it stays in force from the SDW cache until the loop itself evicts
// it at iter == half by reading segment 16, which shares B's SDW-cache
// slot. The next transfer into B refetches the narrowed descriptor and
// traps.
//
//   A: w0: aos iter,*  w1: lda iter,*  w2: sba half  w3: tze 6  w4: tra into,*
//      w5: mme 9       w6: lda other,* w7: tra 4     w8: half   w9: iter
//      w10: into -> B|2  w11: other -> 16|0
//   B: w0, w1: mme 9   w2: nop         w3: tra back,*  w4: back -> A|0
TEST(ResolvedTransfer, CollidingSegnoEvictsTheTargetSdw) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const Segno target =
        m.AddSegment({Mme(9), Mme(9), Encode(MakeIns(Opcode::kNop)),
                      Encode(ViaLink(Opcode::kTra, 4)), 0},
                     UserCode());
    const Segno data = m.AddSegment({0}, UserData());
    const Segno code = m.AddSegment(
        {Encode(ViaLink(Opcode::kAos, 9)), Encode(ViaLink(Opcode::kLda, 9)),
         Encode(MakeIns(Opcode::kSba, 8)), Encode(MakeIns(Opcode::kTze, 6)),
         Encode(ViaLink(Opcode::kTra, 10)), Mme(9), Encode(ViaLink(Opcode::kLda, 11)),
         Encode(MakeIns(Opcode::kTra, 4)), 100, Its(data, 0), Its(target, kEntry), Its(16, 0)},
        UserCode());
    m.Poke(target, 4, Its(code, 0));
    while (m.AddSegment({7}, UserData()) < 16) {
    }
    ASSERT_EQ(target % SdwCache::kEntries, 16 % SdwCache::kEntries);
    m.SetIpr(4, code, 0);
    RunTo(m, 2'000);
    ASSERT_FALSE(m.cpu().trap_pending());
    EXPECT_EQ(OperandMemoised(m.cpu(), code, 4, 0, kMemoTransfer), tier == EngineTier::kBlocks);
    Sdw sdw = *m.dseg().Fetch(target);
    sdw.access = MakeProcedureSegment(3, 3);
    m.dseg().Store(target, sdw);  // announced to no one
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kExecuteViolation, code, 4);
    EXPECT_EQ(m.Peek(data, 0), 100u);  // transfers went on until the eviction
  });
}

// A verdict lives only as long as its SDW-cache slot holds the segment it
// was derived from. D (segment n) and E (segment n + 16) share a slot and
// may both be written and executed by ring 4's code, except that E's
// write bracket ends at ring 3. D's hot loop fills the slot's verdict at
// ring 4 (execute, read and write all allowed), then calls E: the CALL's
// descriptor fetch puts E's SDW in the slot without deriving a verdict
// (only a validated reference does). E's first instruction stores into E
// and must trap, at E|0. A verdict that outlived D's SDW would vouch for
// both the fetch and the store.
//
//   D: w0: aos cnt,*  w1: lda cnt,*  w2: sba lim  w3: tmi 0  w4: call into,*
//      w5: mme 0      w6: lim = 20   w7: cnt -> counter|0    w8: into -> E|0
//   E: w0: sta 2      w1: mme 9      w2: 0
TEST(SdwSlotReuse, CallIntoACollidingSegmentTrapsItsNarrowerWrite) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    SegmentAccess wide = MakeProcedureSegment(4, 4);
    wide.flags.write = true;
    SegmentAccess narrow = MakeProcedureSegment(3, 4, 4, /*gate_count=*/1);
    narrow.flags.write = true;
    const Segno counter = m.AddSegment({0}, UserData());
    const Segno d = m.AddSegment(
        {Encode(ViaLink(Opcode::kAos, 7)), Encode(ViaLink(Opcode::kLda, 7)),
         Encode(MakeIns(Opcode::kSba, 6)), Encode(MakeIns(Opcode::kTmi, 0)),
         Encode(ViaLink(Opcode::kCall, 8)), Mme(0), 20, Its(counter, 0), 0},
        wide);
    while (m.AddSegment({7}, UserData()) + 1 < d + SdwCache::kEntries) {
    }
    const Segno e = m.AddSegment({Encode(MakeIns(Opcode::kSta, 2)), Mme(9), 0}, narrow);
    ASSERT_EQ(e, d + SdwCache::kEntries);
    m.Poke(d, 8, Its(e, 0));
    m.SetIpr(4, d, 0);
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kWriteViolation, e, 0);
    EXPECT_EQ(m.Peek(counter, 0), 20u);
    EXPECT_EQ(m.Peek(e, 2), 0u);
    EXPECT_EQ(m.cpu().counters().block_ops > 0, tier == EngineTier::kBlocks);
  });
}

// An injector attached to a warm machine may corrupt the ring of a link
// word, so a hop op then takes the full formation and must neither use
// nor fill its memo: the first raised ring traps on every tier, at a
// transfer or at an operand.
TEST(ResolvedTransfer, InjectorAttachedMidRun) {
  const std::vector<RunSignature> runs =
      ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
        const BranchLoop loop = AddBranchLoop(m);
        WarmBranchLoop(m, loop, tier);
        FaultConfig config;
        config.set_rate(FaultSite::kIndirectRingCorruption, 20'000);  // 2% per hop
        config.seed = 5;
        FaultInjector injector(config);
        m.cpu().set_fault_injector(&injector);
        RunTo(m, 100'000);
        m.cpu().set_fault_injector(nullptr);
        EXPECT_EQ(injector.injected(FaultSite::kIndirectRingCorruption), 1u);
        ASSERT_TRUE(m.cpu().trap_pending());
      });
  ASSERT_EQ(runs[0].traps.size(), 2u);
  EXPECT_TRUE(runs[0].traps[0] == "transfer_ring_violation" ||
              runs[0].traps[0] == "read_violation" || runs[0].traps[0] == "write_violation")
      << runs[0].traps[0];
}

// A's link into B carries RING=5, so `tmi into,*` runs at an effective
// ring above IPR.RING. With checks off it transfers, on the
// per-instruction path: no tier builds a block. With checks on the block
// at A|0 resolves the hop, but only a transfer the execute verdict answers
// at the ring of execution is memoised, so it traps.
TEST(ResolvedTransfer, HopAboveTheRingOfExecutionIsNeverMemoised) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const BranchLoop loop = AddBranchLoop(m);
    m.Poke(loop.code, 8, EncodeIndirectWord(IndirectWord{5, false, loop.target, kEntry}));
    m.cpu().set_checks_enabled(false);
    RunTo(m, 2'000);
    StepToWord(m, 0);
    ASSERT_FALSE(m.cpu().trap_pending());
    EXPECT_FALSE(HopResolved(m.cpu(), loop.code, 0, 3));
    EXPECT_FALSE(OperandMemoised(m.cpu(), loop.code, 0, 3, kMemoTransfer));
    EXPECT_EQ(m.cpu().counters().block_builds, 0u) << EngineTierName(tier);
    m.cpu().set_checks_enabled(true);
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kTransferRingViolation, loop.code, 3);
  });
}

// A `tze into,*` taken on even passes and not on odd ones: the memo the
// taken passes keep must survive the passes that fall through, and the
// fall-through must never transfer.
//
//   A: w0: aos iter,*  w1: lda iter,*  w2: ana one  w3: tze into,*  w4: aos odd,*
//      w5: lda iter,*  w6: sba lim     w7: tmi 0    w8: lda odd,*   w9: mme 0
//      w10: one  w11: lim  w12: iter  w13: odd  w14: into -> B|2
//   B: w0, w1: mme 9   w2: nop  w3: tra back,*  w4: back -> A|5
TEST(ResolvedTransfer, ConditionalBranchFlipsDirection) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const Segno target =
        m.AddSegment({Mme(9), Mme(9), Encode(MakeIns(Opcode::kNop)),
                      Encode(ViaLink(Opcode::kTra, 4)), 0},
                     UserCode());
    const Segno data = m.AddSegment({0, 0}, UserData());  // iter odd
    const Segno code = m.AddSegment(
        {Encode(ViaLink(Opcode::kAos, 12)), Encode(ViaLink(Opcode::kLda, 12)),
         Encode(MakeIns(Opcode::kAna, 10)), Encode(ViaLink(Opcode::kTze, 14)),
         Encode(ViaLink(Opcode::kAos, 13)), Encode(ViaLink(Opcode::kLda, 12)),
         Encode(MakeIns(Opcode::kSba, 11)), Encode(MakeIns(Opcode::kTmi, 0)),
         Encode(ViaLink(Opcode::kLda, 13)), Mme(0), 1, kBranchLimit, Its(data, 0),
         Its(data, 1), Its(target, kEntry)},
        UserCode());
    m.Poke(target, 4, Its(code, 5));
    m.SetIpr(4, code, 0);
    RunTo(m, 2'000);
    ASSERT_FALSE(m.cpu().trap_pending());
    const bool blocks = tier == EngineTier::kBlocks;
    EXPECT_EQ(OperandMemoised(m.cpu(), code, 0, 3, kMemoTransfer), blocks);
    EXPECT_EQ(OperandMemoised(m.cpu(), code, 4, 3, kMemoTransfer), blocks);
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kMasterModeEntry, code, 10);
    EXPECT_EQ(m.cpu().regs().a, kBranchLimit / 2);
    EXPECT_EQ(OperandMemoised(m.cpu(), code, 0, 3, kMemoTransfer), blocks);
  });
}

// B is paged. A transfer checks only B's bound, but its memo stands for a
// verdict on an unpaged segment, so a transfer into a paged one is never
// memoised. B's page then moves to a frame whose entry word is `mme 7`,
// and the next transfer must run it.
TEST(ResolvedTransfer, PagedTargetIsNeverMemoised) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const BranchLoop loop = AddBranchLoop(m);
    const Sdw unpaged = *m.dseg().Fetch(loop.target);
    const AbsAddr table = *AllocatePageTable(&m.memory(), 1);
    const auto install = [&](Word entry) {
      const AbsAddr frame = *InstallZeroPage(&m.memory(), table, 0);
      for (Wordno w = 0; w < unpaged.bound; ++w) {
        m.memory().Write(frame + w, m.memory().Read(unpaged.base + w));
      }
      m.memory().Write(frame + kEntry, entry);
    };
    install(Encode(MakeIns(Opcode::kNop)));
    EditSdw(m, loop.target, [&](Sdw& sdw) {
      sdw.paged = true;
      sdw.base = table;
    });
    RunTo(m, 3'000);
    ASSERT_FALSE(m.cpu().trap_pending());
    EXPECT_EQ(HopResolved(m.cpu(), loop.code, 0, 3), tier == EngineTier::kBlocks);
    EXPECT_FALSE(OperandMemoised(m.cpu(), loop.code, 0, 3, kMemoTransfer));
    install(Mme(7));  // the page moves; no call announces the PTW store
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kMasterModeEntry, loop.target, kEntry + 1);
    EXPECT_EQ(m.cpu().trap_state().code, 7);
  });
}

// ---------------------------------------------------------------------------
// PR-relative operands in the loop. A block op whose operand is PR-relative
// (`lda pr1|0`, `sta pr3|1`, `lda pr1|0,*`, `lda pr1|0,x1`) runs in
// RunBlocks' loop when the verdicts answer every reference it makes, and
// reads a paged segment's PTW on every execution (DESIGN.md §7, "Ops run in
// the loop"). Each loop below warms its verdicts, shows that its ops then
// run in the loop (block_op_fallbacks stays put on the blocks tier), and
// lands an event that the in-loop form must leave to Execute or must see.
// Every tier must trap at the same instruction or finish the same way,
// with a cycle charged per check.
// ---------------------------------------------------------------------------

// An indirect word whose RING field is `ring`.
Word ItsAt(Ring ring, Segno segno, Wordno wordno, bool indirect = false) {
  return EncodeIndirectWord(IndirectWord{ring, indirect, segno, wordno});
}

Instruction ViaPr(Opcode op, uint8_t prnum, int32_t offset, bool indirect = false,
                  uint8_t tag = 0) {
  Instruction ins = MakeInsPr(op, prnum, offset, indirect);
  ins.tag = tag;
  return ins;
}

// Runs the loop until it is hot and stops it at w0, then runs another
// stretch of it, in which the blocks tier hands no op to Execute. The loop
// must not reach its event in either stretch.
void WarmPrLoop(BareMachine& m, EngineTier tier) {
  RunTo(m, 2'000);
  StepToWord(m, 0);
  ASSERT_FALSE(m.cpu().trap_pending());
  const Counters before = m.cpu().counters();
  RunTo(m, m.cpu().cycles() + 1'000);
  StepToWord(m, 0);
  ASSERT_FALSE(m.cpu().trap_pending());
  const Counters after = m.cpu().counters();
  EXPECT_EQ(after.block_op_fallbacks, before.block_op_fallbacks);
  EXPECT_EQ(after.block_ops > before.block_ops, tier == EngineTier::kBlocks);
}

// The argument loop, run in ring 1: each pass reads `secret` directly,
// then its argument through PR1's list word, keeps it, and counts.
//
//   w0: lda pr2|0    w1: lda pr1|0,*  w2: sta pr3|1  w3: lda pr3|0  w4: adai 1
//   w5: sta pr3|0    w6: sba lim      w7: tmi 0      w8: mme 0      w9: lim
//
// PR2 addresses `secret` (ring 1 only), PR3 the ring-1 scratch (iter, arg).
// The list word starts out naming `open`, which ring 4 may read, so once
// hot the block at w0 runs every op in the loop with the verdicts for
// (secret, 1), (list, 1) and (open, 4).
struct ArgLoop {
  Segno secret = 0;
  Segno open = 0;
  Segno list = 0;
  Segno scratch = 0;
  Segno code = 0;
};
constexpr Word kArgLimit = 1'000;
constexpr Word kSecret = 41;
constexpr Word kOpen = 7;

ArgLoop AddArgLoop(BareMachine& m, SegmentAccess list_access, Ring its_ring) {
  ArgLoop loop;
  loop.secret = m.AddSegment({kSecret}, MakeDataSegment(1, 1));
  loop.open = m.AddSegment({kOpen}, UserData());
  loop.list = m.AddSegment({ItsAt(its_ring, loop.open, 0)}, list_access);
  loop.scratch = m.AddSegment({0, 0}, MakeDataSegment(1, 1));
  loop.code = m.AddSegment(
      {Encode(ViaPr(Opcode::kLda, 2, 0)), Encode(ViaPr(Opcode::kLda, 1, 0, /*indirect=*/true)),
       Encode(ViaPr(Opcode::kSta, 3, 1)), Encode(ViaPr(Opcode::kLda, 3, 0)),
       Encode(MakeIns(Opcode::kAdai, 1)), Encode(ViaPr(Opcode::kSta, 3, 0)),
       Encode(MakeIns(Opcode::kSba, 9)), Encode(MakeIns(Opcode::kTmi, 0)), Mme(0), kArgLimit},
      MakeProcedureSegment(1, 1));
  m.SetIpr(1, loop.code, 0);
  m.SetPr(1, 1, loop.list, 0);
  m.SetPr(2, 1, loop.secret, 0);
  m.SetPr(3, 1, loop.scratch, 0);
  return loop;
}

// Warms the argument loop, then re-points its list word, as a caller that
// may write the list could, at `forge(loop)`; the next `lda pr1|0,*` must
// trap with `cause` at w1 on every tier.
template <class Forge>
void ExpectForgedArgumentTraps(SegmentAccess list_access, Ring its_ring, Forge forge,
                               TrapCause cause) {
  ExpectCheckedScenarioAgrees([&](BareMachine& m, EngineTier tier) {
    const ArgLoop loop = AddArgLoop(m, list_access, its_ring);
    WarmPrLoop(m, tier);
    EXPECT_EQ(m.Peek(loop.scratch, 1), kOpen);
    ASSERT_EQ(m.cpu().SupervisorWriteRaw(loop.list, 0, forge(m, loop)), TrapCause::kNone);
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), cause, loop.code, 1);
    EXPECT_EQ(m.Peek(loop.scratch, 1), kOpen);  // never the secret
  });
}

// A list ring 4 may write, whose word claims ring 1: Figure 5 raises the
// ring to the list's SDW.R1, so the read of `secret` is made at ring 4.
// The ring-1 verdict for `secret` that w0 keeps warm must not answer it.
TEST(PrRelativeInLoop, WriteBracketOfTheListRaisesTheArgumentRing) {
  ExpectForgedArgumentTraps(
      UserData(), /*its_ring=*/1,
      [](BareMachine&, const ArgLoop& loop) { return ItsAt(1, loop.secret, 0); },
      TrapCause::kReadViolation);
}

// A list only ring 1 may write, whose word carries ring 4: the word's
// IND.RING raises the ring to 4.
TEST(PrRelativeInLoop, RingOfTheIndirectWordRaisesTheArgumentRing) {
  ExpectForgedArgumentTraps(
      MakeDataSegment(1, 4), /*its_ring=*/4,
      [](BareMachine&, const ArgLoop& loop) { return ItsAt(4, loop.secret, 0); },
      TrapCause::kReadViolation);
}

// An unsnapped link (F bit) in place of the argument traps on the full
// path at w1.
TEST(PrRelativeInLoop, UnsnappedLinkWordTraps) {
  ExpectForgedArgumentTraps(
      UserData(), /*its_ring=*/1,
      [](BareMachine&, const ArgLoop& loop) {
        IndirectWord link{1, false, loop.open, 0};
        link.fault = true;
        return EncodeIndirectWord(link);
      },
      TrapCause::kLinkFault);
}

// The list word goes on (I bit) down a 64-word chain: the chase from w1
// takes 65 words, so the limit fires at the same hop as on the full path.
TEST(PrRelativeInLoop, ChainedArgumentHitsIndirectionLimitAtSameHop) {
  ExpectForgedArgumentTraps(
      UserData(), /*its_ring=*/1,
      [](BareMachine& m, const ArgLoop& loop) {
        const Segno chain = loop.code + 1;  // the next segment AddSegment hands out
        std::vector<Word> words;
        for (Wordno k = 0; k + 1 < kMaxIndirectionDepth; ++k) {
          words.push_back(ItsAt(4, chain, k + 1, /*indirect=*/true));
        }
        words.push_back(ItsAt(4, loop.open, 0));
        EXPECT_EQ(m.AddSegment(words, UserData()), chain);
        return ItsAt(1, chain, 0, /*indirect=*/true);
      },
      TrapCause::kIndirectionLimit);
}

// The paged loop, run in ring 4 over D, a two-page data segment: each pass
// adds 1 to D|5 (page 0) through PR1, reads D|1030 (page 1) through the
// word at D|2000 (page 1, so the hop walks too), stores it at D|1025
// through PR1 indexed by x1, and counts in an unpaged scratch (PR3).
//
//   w0: lda pr1|5     w1: adai 1     w2: sta pr1|5   w3: lda pr1|2000,*
//   w4: sta pr1|0,x1  w5: lda pr3|0  w6: adai 1      w7: sta pr3|0
//   w8: sba lim       w9: tmi 0      w10: lda pr1|5  w11: mme 0   w12: lim
struct PagedLoop {
  AbsAddr table = 0;
  Segno data = 0;
  Segno code = 0;
};
constexpr Word kPagedLimit = 500;

void AddPagedLoop(BareMachine& m, PagedLoop& loop) {
  loop.table = *AllocatePageTable(&m.memory(), 2);
  for (uint64_t page = 0; page < 2; ++page) {
    InstallZeroPage(&m.memory(), loop.table, page);
  }
  loop.data = m.AddSegment({}, UserData());
  EditSdw(m, loop.data, [&](Sdw& sdw) {
    sdw.paged = true;
    sdw.base = loop.table;
    sdw.bound = 2 * kPageWords;
  });
  ASSERT_EQ(m.cpu().SupervisorWriteRaw(loop.data, 1030, 99), TrapCause::kNone);
  ASSERT_EQ(m.cpu().SupervisorWriteRaw(loop.data, 2000, Its(loop.data, 1030)), TrapCause::kNone);
  const Segno scratch = m.AddSegment({0}, UserData());
  loop.code = m.AddSegment(
      {Encode(ViaPr(Opcode::kLda, 1, 5)), Encode(MakeIns(Opcode::kAdai, 1)),
       Encode(ViaPr(Opcode::kSta, 1, 5)), Encode(ViaPr(Opcode::kLda, 1, 2000, true)),
       Encode(ViaPr(Opcode::kSta, 1, 0, false, /*tag=*/1)), Encode(ViaPr(Opcode::kLda, 3, 0)),
       Encode(MakeIns(Opcode::kAdai, 1)), Encode(ViaPr(Opcode::kSta, 3, 0)),
       Encode(MakeIns(Opcode::kSba, 12)), Encode(MakeIns(Opcode::kTmi, 0)),
       Encode(ViaPr(Opcode::kLda, 1, 5)), Mme(0), kPagedLimit},
      UserCode());
  m.SetIpr(4, loop.code, 0);
  m.SetPr(1, 4, loop.data, 0);
  m.SetPr(3, 4, scratch, 0);
  m.cpu().regs().x[1] = 1025;
}

// Page 1 goes absent behind the processor's back: the next hop through
// D|2000 must take the missing-page trap at w3.
TEST(PrRelativeInLoop, PagedOperandWhosePageGoesAbsent) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    PagedLoop loop;
    ASSERT_NO_FATAL_FAILURE(AddPagedLoop(m, loop));
    WarmPrLoop(m, tier);
    m.memory().Write(loop.table + 1, EncodePtw(Ptw{}));
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kMissingPage, loop.code, 3);
  });
}

// Page 0 moves to a frame whose counter is 1000 higher, announced to no
// one: the next walk must find the new frame.
TEST(PrRelativeInLoop, PagedOperandWhosePtwMoves) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    PagedLoop loop;
    ASSERT_NO_FATAL_FAILURE(AddPagedLoop(m, loop));
    WarmPrLoop(m, tier);
    const AbsAddr old_frame = DecodePtw(m.memory().Read(loop.table)).frame;
    const AbsAddr new_frame = *InstallZeroPage(&m.memory(), loop.table, 0);
    for (Wordno w = 0; w < kPageWords; ++w) {
      m.memory().Write(new_frame + w, m.memory().Read(old_frame + w));
    }
    m.memory().Write(new_frame + 5, m.memory().Read(old_frame + 5) + 1'000);
    RunTo(m, 1'000'000);
    ExpectTrapAt(m.cpu(), TrapCause::kMasterModeEntry, loop.code, 12);
    EXPECT_EQ(m.cpu().regs().a, kPagedLimit + 1'000);
    Word stored = 0;
    ASSERT_EQ(m.cpu().SupervisorReadRaw(loop.data, 1025, &stored), TrapCause::kNone);
    EXPECT_EQ(stored, 99u);
  });
}

// `lda pr1|0,x1` with x1 = iter walks D, whose bound is 300: the pass
// with x1 = 300 must trap at w4.
//
//   w0: lda pr3|0   w1: adai 1   w2: sta pr3|0   w3: ldx x1, pr3|0
//   w4: lda pr1|0,x1  w5: sta pr3|1  w6: sba lim  w7: tmi 0  w8: mme 0  w9: lim
TEST(PrRelativeInLoop, TaggedOperandPastTheBoundTraps) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    const Segno data = m.AddSegment(std::vector<Word>(300, 5), UserData());
    const Segno scratch = m.AddSegment({0, 0}, UserData());
    const Segno code = m.AddSegment(
        {Encode(ViaPr(Opcode::kLda, 3, 0)), Encode(MakeIns(Opcode::kAdai, 1)),
         Encode(ViaPr(Opcode::kSta, 3, 0)), Encode(MakeInsPrReg(Opcode::kLdx, 3, /*reg=*/1, 0)),
         Encode(ViaPr(Opcode::kLda, 1, 0, false, /*tag=*/1)), Encode(ViaPr(Opcode::kSta, 3, 1)),
         Encode(MakeIns(Opcode::kSba, 9)), Encode(MakeIns(Opcode::kTmi, 0)), Mme(0), 1'000},
        UserCode());
    m.SetIpr(4, code, 0);
    m.SetPr(1, 4, data, 0);
    m.SetPr(3, 4, scratch, 0);
    WarmPrLoop(m, tier);
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kBoundsViolation, code, 4);
    EXPECT_EQ(m.cpu().regs().x[1], 300u);
    EXPECT_EQ(m.Peek(scratch, 1), 5u);
  });
}

// A PR-relative store into executable code retires its decodes. Each pass
// adds w0's immediate into `sum` and stores Q over w0 through PR3, which
// addresses the (writable) code; the harness puts `ldai 2` in Q mid-run,
// and from the next store on each pass adds 2.
//
//   w0: ldai 1      w1: ada pr1|1   w2: sta pr1|1   w3: stq pr3|0   w4: lda pr1|0
//   w5: adai 1      w6: sta pr1|0   w7: sba pr3|11  w8: tmi 0       w9: lda pr1|1
//   w10: mme 0      w11: lim
TEST(PrRelativeInLoop, StoreIntoExecutableCodeRetiresTheBlock) {
  ExpectCheckedScenarioAgrees([](BareMachine& m, EngineTier tier) {
    constexpr Word kLimit = 200;
    SegmentAccess writable_code = UserCode();
    writable_code.flags.write = true;
    const Segno data = m.AddSegment({0, 0}, UserData());  // iter sum
    const Segno code = m.AddSegment(
        {Encode(MakeIns(Opcode::kLdai, 1)), Encode(ViaPr(Opcode::kAda, 1, 1)),
         Encode(ViaPr(Opcode::kSta, 1, 1)), Encode(ViaPr(Opcode::kStq, 3, 0)),
         Encode(ViaPr(Opcode::kLda, 1, 0)), Encode(MakeIns(Opcode::kAdai, 1)),
         Encode(ViaPr(Opcode::kSta, 1, 0)), Encode(ViaPr(Opcode::kSba, 3, 11)),
         Encode(MakeIns(Opcode::kTmi, 0)), Encode(ViaPr(Opcode::kLda, 1, 1)), Mme(0), kLimit},
        writable_code);
    m.SetIpr(4, code, 0);
    m.SetPr(1, 4, data, 0);
    m.SetPr(3, 4, code, 0);
    m.cpu().regs().q = Encode(MakeIns(Opcode::kLdai, 1));
    RunTo(m, 1'500);
    ASSERT_FALSE(m.cpu().trap_pending());
    const Word passes = m.Peek(data, 0);
    // Every store retires the block it runs in, so each pass rebuilds its
    // blocks and their memos: only the memoless `tmi 0` goes to Execute.
    EXPECT_LE(m.cpu().counters().block_op_fallbacks, passes + 1);
    EXPECT_EQ(m.cpu().counters().block_ops > 0, tier == EngineTier::kBlocks);
    m.cpu().regs().q = Encode(MakeIns(Opcode::kLdai, 2));
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kMasterModeEntry, code, 11);
    // The pass under way at the switch, and at most one more, still add 1.
    EXPECT_GE(m.cpu().regs().a, 2 * kLimit - passes - 2);
    EXPECT_LE(m.cpu().regs().a, 2 * kLimit - passes - 1);
  });
}

// ---------------------------------------------------------------------------
// Live-decode build.
// ---------------------------------------------------------------------------

// The number of ops in the block held at (segno, start), 0 if none.
size_t BlockLength(const Cpu& cpu, Segno segno, Wordno start) {
  const BlockCache::Block* b = cpu.block_cache().Lookup(segno, start);
  return b == nullptr ? 0 : b->count;
}

// The blocks tier's first instruction walks the code segment's descriptor
// and fills its verdict; every instruction after it decodes into a block
// on its first and only pass.
constexpr Word kOps = 20;

TEST(LiveDecode, FirstPassRunsInBlocks) {
  ExpectSameRunOnEveryTier([](EngineTier tier) {
    BareMachine m;
    m.cpu().set_engine_tier(tier);
    std::vector<Word> words(kOps, Encode(MakeIns(Opcode::kAdai, 1)));
    words.push_back(Mme(0));
    const Segno code = m.AddSegment(words, UserCode());
    m.SetIpr(4, code, 0);
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kMasterModeEntry, code, kOps + 1);
    EXPECT_EQ(m.cpu().regs().a, kOps);
    const Counters& c = m.cpu().counters();
    EXPECT_EQ(c.instructions, kOps + 1);
    if (tier == EngineTier::kBlocks) {
      EXPECT_GE(c.block_ops, c.instructions - 1);
    } else {
      EXPECT_EQ(c.block_ops, 0u);
    }
    return TrapSiteSignature(m.cpu());
  });
}

// The build stops before a word that does not decode: the block at w1 ends
// at w5, and the illegal w6 traps from the per-instruction path at the
// same cycle on every tier.
TEST(LiveDecode, BuildStopsBeforeAnIllegalOpcode) {
  ExpectSameRunOnEveryTier([](EngineTier tier) {
    BareMachine m;
    m.cpu().set_engine_tier(tier);
    std::vector<Word> words(6, Encode(MakeIns(Opcode::kAdai, 1)));
    words.push_back(uint64_t{255} << 56);  // no such opcode
    words.push_back(Mme(0));
    const Segno code = m.AddSegment(words, UserCode());
    m.SetIpr(4, code, 0);
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kIllegalOpcode, code, 6);
    EXPECT_EQ(m.cpu().regs().a, 6u);
    EXPECT_EQ(BlockLength(m.cpu(), code, 1), tier == EngineTier::kBlocks ? 5u : 0u);
    return TrapSiteSignature(m.cpu());
  });
}

// A code segment whose bound runs past the core store: its last four
// words in store are three `adai 1` and an `lda` beyond the bound, which
// traps, and w4 lies past the store. The build at w1 must stop at the
// store's end rather than read w4, which would latch a physical-store
// fault that no per-instruction run ever takes.
TEST(LiveDecode, BuildStopsBeforeAWordPastTheStore) {
  ExpectSameRunOnEveryTier([](EngineTier tier) {
    BareMachine m;
    m.cpu().set_engine_tier(tier);
    const Segno code = m.AddSegment({0}, UserCode());
    const AbsAddr base = m.memory().size() - 4;
    for (Wordno w = 0; w < 3; ++w) {
      m.memory().Write(base + w, Encode(MakeIns(Opcode::kAdai, 1)));
    }
    m.memory().Write(base + 3, Encode(MakeIns(Opcode::kLda, 100)));
    EditSdw(m, code, [base](Sdw& sdw) {
      sdw.base = base;
      sdw.bound = 8;
    });
    m.SetIpr(4, code, 0);
    RunTo(m, 100'000);
    ExpectTrapAt(m.cpu(), TrapCause::kBoundsViolation, code, 3);
    EXPECT_EQ(m.cpu().regs().a, 3u);
    EXPECT_EQ(m.memory().fault_count(), 0u);
    EXPECT_EQ(BlockLength(m.cpu(), code, 1), tier == EngineTier::kBlocks ? 3u : 0u);
    return TrapSiteSignature(m.cpu());
  });
}

}  // namespace
}  // namespace rings
