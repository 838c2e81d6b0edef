// Block-to-block chaining and the CALL/RETURN crossing cache: directed
// coverage of every invalidation site. Each site test runs a chained
// twin against a reference-tier twin through the same mid-run invalidation
// and requires the full architectural face (cycles, registers, the
// pending trap, every non-host counter, compared by the one run
// comparator) to stay bit-identical — a patched successor link or
// crossing memo that survived the site would execute stale decode or skip
// a revalidation and split the twins. The five sites:
//
//   1. SDW cache epoch flush        (Cpu::FlushSdwCache)
//   2. descriptor snoop             (Cpu::InvalidateSdw)
//   3. store into executable code   (Cpu::NoteStore, guest stores)
//   4. injected descriptor drop     (fault boundary, kSdwCacheDrop)
//   5. DBR reload                   (Cpu::SetDbr)
//
// The crossing-cache tests are sharper still: they restrict the target
// descriptor between crossings so a stale memo would *grant* a crossing
// the edited SDW forbids, and assert the trap fires.
#include <gtest/gtest.h>

#include <string>

#include "src/fault/fault_injector.h"
#include "src/fleet/fingerprint.h"
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
// The CALL/RETURN crossing cache. A monomorphic gate-call site is warmed
// until the memo answers, then the target descriptor is restricted; a
// stale memo would grant the crossing the edited SDW forbids.
// ---------------------------------------------------------------------------

struct GateRig {
  BareMachine m{64, 0};
  Segno target = 0;
  Segno code = 0;

  GateRig() {
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

  // Warms the call site until the crossing cache answers.
  void WarmMemo() {
    ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
    EXPECT_GT(m.cpu().counters().crossing_misses, 0u);
    Arm();
    ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
    EXPECT_GT(m.cpu().counters().crossing_hits, 0u);
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
  GateRig rig;
  rig.WarmMemo();
  rig.WithdrawGates();
  rig.m.cpu().InvalidateSdw(rig.target);
  // The memoized "gate ok" verdict must not answer for the edited SDW.
  EXPECT_EQ(rig.m.StepTrap(), TrapCause::kGateViolation);
}

TEST(CrossingCacheInvalidate, SdwCacheFlushRevalidatesWarmCallSite) {
  GateRig rig;
  rig.WarmMemo();
  rig.WithdrawGates();
  rig.m.cpu().FlushSdwCache();  // epoch bump alone must retire the memo
  EXPECT_EQ(rig.m.StepTrap(), TrapCause::kGateViolation);
}

// RETURN side: the slow path fetches the return target's SDW on every
// RET; the memo skips that fetch, so a stale memo would return into a
// segment whose descriptor has since been withdrawn.
TEST(CrossingCacheInvalidate, WithdrawnReturnTargetTrapsAfterWarmMemo) {
  BareMachine m;
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
  ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_GT(m.cpu().counters().crossing_hits, 0u);

  Sdw sdw = *m.dseg().Fetch(target);
  sdw.present = false;
  m.dseg().Store(target, sdw);
  m.cpu().InvalidateSdw(target);
  arm();
  EXPECT_EQ(m.StepTrap(), TrapCause::kMissingSegment);
}

}  // namespace
}  // namespace rings
