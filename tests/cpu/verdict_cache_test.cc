// The access-verdict and decoded-instruction caches (the host-side fast
// path): unit behavior of the caches themselves, plus bare-machine checks
// that the fast path engages, never changes simulated cycles, retires
// verdicts on flush/ring/epoch changes, and sees self-modifying code.
#include <gtest/gtest.h>

#include "src/cpu/insn_cache.h"
#include "src/cpu/verdict_cache.h"
#include "tests/testutil.h"

namespace rings {
namespace {

// ---------------------------------------------------------------------------
// VerdictCache unit behavior.
// ---------------------------------------------------------------------------

Sdw TestSdw(const SegmentAccess& access, AbsAddr base = 1000, uint64_t bound = 16) {
  Sdw sdw;
  sdw.present = true;
  sdw.base = base;
  sdw.bound = bound;
  sdw.access = access;
  return sdw;
}

TEST(VerdictCacheUnit, FillComputesPerRingVerdicts) {
  VerdictCache cache;
  // Data segment: write bracket [0,2], read bracket [0,4].
  cache.Fill(7, 4, 1, TestSdw(MakeDataSegment(2, 4)));
  const VerdictCache::Entry* e = cache.Lookup(7, 4, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->read_ok);
  EXPECT_FALSE(e->write_ok);  // ring 4 above the write bracket
  EXPECT_FALSE(e->execute_ok);
  EXPECT_TRUE(e->indirect_ok);
  EXPECT_EQ(e->base, 1000u);
  EXPECT_EQ(e->bound, 16u);
  EXPECT_FALSE(e->paged);
  EXPECT_FALSE(e->flags_execute);

  cache.Fill(7, 2, 1, TestSdw(MakeDataSegment(2, 4)));
  e = cache.Lookup(7, 2, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->write_ok);  // ring 2 is inside the write bracket
}

TEST(VerdictCacheUnit, LookupDemandsExactSegnoRingEpoch) {
  VerdictCache cache;
  cache.Fill(7, 4, 3, TestSdw(MakeDataSegment(2, 4)));
  EXPECT_NE(cache.Lookup(7, 4, 3), nullptr);
  // A different ring was never vouched for.
  EXPECT_EQ(cache.Lookup(7, 3, 3), nullptr);
  // A flush-epoch bump retires the verdict.
  EXPECT_EQ(cache.Lookup(7, 4, 4), nullptr);
  // A different segment mapping to the same slot misses.
  EXPECT_EQ(cache.Lookup(7 + static_cast<Segno>(VerdictCache::kEntries), 4, 3), nullptr);
}

TEST(VerdictCacheUnit, InvalidateSegmentSlotAndFlush) {
  VerdictCache cache;
  cache.Fill(7, 4, 1, TestSdw(MakeDataSegment(2, 4)));
  cache.InvalidateSegment(7);
  EXPECT_EQ(cache.Lookup(7, 4, 1), nullptr);

  cache.Fill(7, 4, 1, TestSdw(MakeDataSegment(2, 4)));
  cache.InvalidateSlot(7 % VerdictCache::kEntries);
  EXPECT_EQ(cache.Lookup(7, 4, 1), nullptr);

  cache.Fill(7, 4, 1, TestSdw(MakeDataSegment(2, 4)));
  cache.Flush();
  EXPECT_EQ(cache.Lookup(7, 4, 1), nullptr);
}

TEST(VerdictCacheUnit, ExecuteVerdictTracksBracketFloor) {
  VerdictCache cache;
  // Procedure segment executable only in [2,3].
  cache.Fill(9, 4, 1, TestSdw(MakeProcedureSegment(2, 3)));
  const VerdictCache::Entry* e = cache.Lookup(9, 4, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->execute_ok);  // ring 4 above the execute bracket
  EXPECT_TRUE(e->flags_execute);
  EXPECT_EQ(e->r1, 2u);

  cache.Fill(9, 3, 1, TestSdw(MakeProcedureSegment(2, 3)));
  e = cache.Lookup(9, 3, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->execute_ok);
}

// ---------------------------------------------------------------------------
// InsnCache unit behavior.
// ---------------------------------------------------------------------------

TEST(InsnCacheUnit, PutLookupFlushInvalidate) {
  InsnCache cache;
  const Instruction ins = MakeIns(Opcode::kLdai, 42);
  cache.Put(12, 5, 2000, ins);

  const InsnCache::Entry* e = cache.Lookup(12, 5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->addr, 2000u);
  EXPECT_EQ(e->ins, ins);
  EXPECT_EQ(cache.Lookup(12, 6), nullptr);
  EXPECT_EQ(cache.Lookup(13, 5), nullptr);

  cache.InvalidateSegment(12);
  EXPECT_EQ(cache.Lookup(12, 5), nullptr);

  cache.Put(12, 5, 2000, ins);
  cache.Flush();
  EXPECT_EQ(cache.Lookup(12, 5), nullptr);
}

// ---------------------------------------------------------------------------
// Bare-machine behavior of the combined fast path.
// ---------------------------------------------------------------------------

// A three-instruction loop reading and writing a data segment. Returns
// the machine for counter/cycle inspection after `steps` instructions.
struct LoopRig {
  BareMachine m;
  Segno data = 0;
  Segno code = 0;

  explicit LoopRig(bool fast_path, int steps = 300) {
    m.cpu().set_engine_tier(fast_path ? EngineTier::kBlocks : EngineTier::kReference);
    data = m.AddSegment({100, 200}, MakeDataSegment(4, 4));
    code = m.AddCode(
        {
            MakeInsPr(Opcode::kLda, 2, 0),
            MakeInsPr(Opcode::kSta, 2, 1),
            MakeIns(Opcode::kTra, 0),
        },
        UserCode());
    m.SetIpr(4, code, 0);
    m.SetPr(2, 4, data, 0);
    Steps(steps);
  }

  void Steps(int steps) {
    for (int i = 0; i < steps; ++i) {
      ASSERT_EQ(m.StepTrap(), TrapCause::kNone) << "step " << i;
    }
  }
};

TEST(FastPathBare, SimulatedCostIdenticalOnAndOff) {
  LoopRig on(true);
  LoopRig off(false);
  EXPECT_GT(on.m.cpu().counters().verdict_hits, 0u);
  EXPECT_GT(on.m.cpu().counters().insn_cache_hits, 0u);
  EXPECT_EQ(off.m.cpu().counters().verdict_hits, 0u);
  EXPECT_EQ(on.m.cpu().cycles(), off.m.cpu().cycles());
  EXPECT_EQ(on.m.cpu().counters().instructions, off.m.cpu().counters().instructions);
  EXPECT_EQ(on.m.cpu().counters().memory_reads, off.m.cpu().counters().memory_reads);
  EXPECT_EQ(on.m.cpu().counters().memory_writes, off.m.cpu().counters().memory_writes);
  EXPECT_EQ(on.m.cpu().counters().sdw_fetches, off.m.cpu().counters().sdw_fetches);
  EXPECT_EQ(on.m.cpu().counters().sdw_cache_hits, off.m.cpu().counters().sdw_cache_hits);
  EXPECT_EQ(on.m.cpu().counters().TotalChecks(), off.m.cpu().counters().TotalChecks());
  EXPECT_EQ(on.m.cpu().regs().a, off.m.cpu().regs().a);
}

TEST(FastPathBare, DisengagesWhileSdwCacheDisabled) {
  BareMachine m;
  m.cpu().sdw_cache().set_enabled(false);
  const Segno data = m.AddSegment({100, 200}, MakeDataSegment(4, 4));
  const Segno code = m.AddCode(
      {
          MakeInsPr(Opcode::kLda, 2, 0),
          MakeIns(Opcode::kTra, 0),
      },
      UserCode());
  m.SetIpr(4, code, 0);
  m.SetPr(2, 4, data, 0);
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(m.StepTrap(), TrapCause::kNone);
  }
  EXPECT_EQ(m.cpu().counters().verdict_hits, 0u);
  EXPECT_EQ(m.cpu().counters().insn_cache_hits, 0u);
  EXPECT_EQ(m.cpu().regs().a, 100u);
}

TEST(FastPathBare, FlushSdwCacheRetiresVerdicts) {
  LoopRig rig(true, 30);
  const Counters before = rig.m.cpu().counters();
  rig.m.cpu().FlushSdwCache();
  // The next pass must re-derive every verdict (slow path) and still run.
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(rig.m.StepTrap(), TrapCause::kNone);
  }
  const Counters& after = rig.m.cpu().counters();
  EXPECT_GT(after.verdict_misses, before.verdict_misses);
  EXPECT_GT(after.sdw_fetches, before.sdw_fetches);
}

TEST(FastPathBare, VerdictsArePerRing) {
  // Write bracket [0,2]: denied at ring 4 even with a warm read verdict.
  BareMachine m4;
  const Segno data4 = m4.AddSegment({100, 200}, MakeDataSegment(2, 4));
  const Segno code4 = m4.AddCode(
      {
          MakeInsPr(Opcode::kLda, 2, 0),
          MakeInsPr(Opcode::kLda, 2, 1),
          MakeInsPr(Opcode::kSta, 2, 0),
      },
      MakeProcedureSegment(4, 4));
  m4.SetIpr(4, code4, 0);
  m4.SetPr(2, 4, data4, 0);
  EXPECT_EQ(m4.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m4.StepTrap(), TrapCause::kNone);  // warm verdict for (data, 4)
  EXPECT_EQ(m4.StepTrap(), TrapCause::kWriteViolation);

  // The same brackets allow the write from ring 2.
  BareMachine m2;
  const Segno data2 = m2.AddSegment({100, 200}, MakeDataSegment(2, 4));
  const Segno code2 = m2.AddCode(
      {
          MakeInsPr(Opcode::kLda, 2, 0),
          MakeInsPr(Opcode::kSta, 2, 0),
      },
      MakeProcedureSegment(2, 2));
  m2.SetIpr(2, code2, 0);
  m2.SetPr(2, 2, data2, 0);
  EXPECT_EQ(m2.StepTrap(), TrapCause::kNone);
  m2.cpu().regs().a = 55;
  EXPECT_EQ(m2.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m2.Peek(data2, 0), 55u);
}

TEST(FastPathBare, SelfModifyingStoreInvalidatesCachedDecode) {
  // [0] tra 2 / [2] nop / [3] sta ->code[2] / [4] tra 2: the second trip
  // through word 2 must execute the newly stored `ldai 77`, not the
  // cached nop decode.
  BareMachine m;
  SegmentAccess access = MakeProcedureSegment(4, 4);
  access.flags.write = true;
  const Segno code = m.AddCode(
      {
          MakeIns(Opcode::kTra, 2),
          MakeIns(Opcode::kNop),
          MakeIns(Opcode::kNop),
          MakeInsPr(Opcode::kSta, 3, 2),
          MakeIns(Opcode::kTra, 2),
      },
      access);
  m.SetIpr(4, code, 0);
  m.SetPr(3, 4, code, 0);
  m.cpu().regs().a = EncodeInstruction(MakeIns(Opcode::kLdai, 77));
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(m.StepTrap(), TrapCause::kNone) << "step " << i;
  }
  // tra, nop, sta, tra, then the patched instruction.
  EXPECT_EQ(m.cpu().regs().a, 77u);
  EXPECT_GT(m.cpu().counters().insn_cache_invalidations, 0u);
}

TEST(FastPathBare, Works645Flags) {
  // In the 645 base the fast path must honor flags-only validation.
  BareMachine m;
  m.cpu().set_mode(ProtectionMode::kFlags645);
  SegmentAccess readonly = MakeDataSegment(0, 4);
  readonly.flags.write = false;
  const Segno data = m.AddSegment({100, 200}, readonly);
  // Execute bracket reaching ring 0: the 645 base validates everything at
  // ring 0 (flags only), like the compiled per-ring descriptor segments.
  const Segno code = m.AddCode(
      {
          MakeInsPr(Opcode::kLda, 2, 0),
          MakeInsPr(Opcode::kLda, 2, 1),
          MakeInsPr(Opcode::kSta, 2, 0),
      },
      MakeProcedureSegment(0, 4));
  m.SetIpr(4, code, 0);
  m.SetPr(2, 4, data, 0);
  EXPECT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.StepTrap(), TrapCause::kNone);
  EXPECT_EQ(m.cpu().regs().a, 200u);
  EXPECT_EQ(m.StepTrap(), TrapCause::kWriteViolation);
}

}  // namespace
}  // namespace rings
