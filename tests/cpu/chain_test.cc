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
// A hop that survived the store would keep counting c0. The store waits
// for the loop to be hot because blocks form only from decodes an earlier
// pass left in the insn cache. Returns whether the loop's block resolved
// its first hop.
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
// the execute flag and retires nothing, so a decode cached from that
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

// Checks off: the verdict vouches for every read, so the hop resolves
// whatever the brackets say, and Figure 5 still raises the ring to
// SDW.R1. An R1 edit between passes must reach the pointer EPP loads.
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
    EXPECT_EQ(HopResolved(m.cpu(), code, 0, 0), tier == EngineTier::kBlocks);
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

// A paged procedure segment's link word has no address fixed by the
// block's verdict, so no hop is resolved; the page moving under the hot
// loop (a relocated frame whose link word points elsewhere) must be seen.
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
    if (tier == EngineTier::kBlocks) {
      EXPECT_NE(m.cpu().block_cache().Lookup(kCode, 0), nullptr);
    }
    install(1);  // the supervisor relocates the page and announces the PTW
    m.cpu().NotePtwStore(table);
    RunTo(m, 6'000);
    EXPECT_GT(m.Peek(data, 0), 0u);
    EXPECT_GT(m.Peek(data, 1), 0u);
  });
}

}  // namespace
}  // namespace rings
