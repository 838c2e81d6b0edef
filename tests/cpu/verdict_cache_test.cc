// The access verdicts the SDW cache keeps per slot (the host-side fast
// path): unit behavior of the verdict API, plus bare-machine checks that
// the fast path engages, never changes simulated cycles, retires verdicts
// on flush/ring changes, and sees self-modifying code.
#include <gtest/gtest.h>

#include "src/core/access.h"
#include "src/cpu/sdw_cache.h"
#include "tests/testutil.h"

namespace rings {
namespace {

// ---------------------------------------------------------------------------
// SdwCache verdict unit behavior.
// ---------------------------------------------------------------------------

Sdw TestSdw(const SegmentAccess& access, AbsAddr base = 1000, uint64_t bound = 16) {
  Sdw sdw;
  sdw.present = true;
  sdw.base = base;
  sdw.bound = bound;
  sdw.access = access;
  return sdw;
}

// Makes `sdw` resident for `segno` and fills its verdict for `ring`.
void InsertAndFill(SdwCache& cache, Segno segno, Ring ring, const Sdw& sdw) {
  cache.Insert(segno, sdw);
  ASSERT_TRUE(cache.FillVerdict(segno, ring));
}

TEST(SdwCacheVerdict, FillComputesPerRingVerdicts) {
  SdwCache cache;
  // Data segment: write bracket [0,2], read bracket [0,4].
  InsertAndFill(cache, 7, 4, TestSdw(MakeDataSegment(2, 4)));
  SdwCache::Memo m = cache.Vouching(7, 4);
  ASSERT_NE(m.sdw, nullptr);
  EXPECT_TRUE(m.verdict.read_ok);
  EXPECT_FALSE(m.verdict.write_ok);  // ring 4 above the write bracket
  EXPECT_FALSE(m.verdict.execute_ok);
  // The read bit answers Figure 5's indirect read too.
  EXPECT_TRUE(CheckIndirectRead(m.sdw->access, 4).ok());
  EXPECT_EQ(m.sdw->base, 1000u);
  EXPECT_EQ(m.sdw->bound, 16u);
  EXPECT_FALSE(m.sdw->paged);
  EXPECT_FALSE(m.sdw->access.flags.execute);

  ASSERT_TRUE(cache.FillVerdict(7, 2));
  m = cache.Vouching(7, 2);
  ASSERT_NE(m.sdw, nullptr);
  EXPECT_TRUE(m.verdict.write_ok);  // ring 2 is inside the write bracket
}

TEST(SdwCacheVerdict, ProbeDemandsExactSegnoAndRing) {
  SdwCache cache;
  InsertAndFill(cache, 7, 4, TestSdw(MakeDataSegment(2, 4)));
  EXPECT_NE(cache.Vouching(7, 4).sdw, nullptr);
  // A different ring was never vouched for.
  EXPECT_EQ(cache.Vouching(7, 3).sdw, nullptr);
  // A different segment mapping to the same slot misses.
  EXPECT_EQ(cache.Vouching(7 + static_cast<Segno>(SdwCache::kEntries), 4).sdw, nullptr);
  // Flush retires the verdict, and the descriptor coming back brings no
  // verdict with it.
  cache.Flush();
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);
  cache.Insert(7, TestSdw(MakeDataSegment(2, 4)));
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);
  // Only a resident descriptor can be vouched for, and a disabled cache
  // holds none.
  EXPECT_FALSE(cache.FillVerdict(8, 4));
  cache.set_enabled(false);
  cache.Insert(7, TestSdw(MakeDataSegment(2, 4)));
  EXPECT_FALSE(cache.FillVerdict(7, 4));
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);
}

TEST(SdwCacheVerdict, InvalidateSegmentSlotAndFlush) {
  SdwCache cache;
  InsertAndFill(cache, 7, 4, TestSdw(MakeDataSegment(2, 4)));
  cache.Invalidate(7);
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);

  InsertAndFill(cache, 7, 4, TestSdw(MakeDataSegment(2, 4)));
  cache.InvalidateIndex(7 % SdwCache::kEntries);
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);

  InsertAndFill(cache, 7, 4, TestSdw(MakeDataSegment(2, 4)));
  cache.Flush();
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);

  // Invalidating another segment that maps to the slot leaves it alone.
  InsertAndFill(cache, 7, 4, TestSdw(MakeDataSegment(2, 4)));
  cache.Invalidate(7 + static_cast<Segno>(SdwCache::kEntries));
  EXPECT_NE(cache.Vouching(7, 4).sdw, nullptr);
}

TEST(SdwCacheVerdict, ExecuteVerdictTracksBracketFloor) {
  SdwCache cache;
  // Procedure segment executable only in [2,3].
  InsertAndFill(cache, 9, 4, TestSdw(MakeProcedureSegment(2, 3)));
  SdwCache::Memo m = cache.Vouching(9, 4);
  ASSERT_NE(m.sdw, nullptr);
  EXPECT_FALSE(m.verdict.execute_ok);  // ring 4 above the execute bracket
  EXPECT_TRUE(m.sdw->access.flags.execute);
  EXPECT_EQ(m.sdw->access.brackets.r1, 2u);

  ASSERT_TRUE(cache.FillVerdict(9, 3));
  m = cache.Vouching(9, 3);
  ASSERT_NE(m.sdw, nullptr);
  EXPECT_TRUE(m.verdict.execute_ok);
}

// The verdict may not outlive the descriptor it was derived from: an
// Insert into the slot drops it, whether it displaces another segment or
// replaces the same segment's descriptor. Re-inserting the displaced
// segment must not bring its old verdict back.
TEST(SdwCacheVerdict, InsertDisplacingTheSlotDropsItsVerdict) {
  SdwCache cache;
  const Segno rival = 7 + static_cast<Segno>(SdwCache::kEntries);
  InsertAndFill(cache, 7, 4, TestSdw(MakeDataSegment(4, 4)));
  cache.Insert(rival, TestSdw(MakeReadOnlyDataSegment(5), 2000));
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);
  EXPECT_EQ(cache.Vouching(rival, 4).sdw, nullptr);
  cache.Insert(7, TestSdw(MakeDataSegment(4, 4)));
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);

  // The same segment's descriptor edited to deny writes: the write verdict
  // filled from the old one is gone, and the refill denies.
  ASSERT_TRUE(cache.FillVerdict(7, 4));
  ASSERT_TRUE(cache.Vouching(7, 4).verdict.write_ok);
  cache.Insert(7, TestSdw(MakeReadOnlyDataSegment(5)));
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);
  ASSERT_TRUE(cache.FillVerdict(7, 4));
  EXPECT_FALSE(cache.Vouching(7, 4).verdict.write_ok);
}

// A dropped associative register (fault injection) takes its verdict with
// it: when the descriptor is fetched again, it comes back without one.
TEST(SdwCacheVerdict, InvalidateIndexDropsItsVerdict) {
  SdwCache cache;
  InsertAndFill(cache, 7, 4, TestSdw(MakeDataSegment(4, 4)));
  InsertAndFill(cache, 8, 4, TestSdw(MakeDataSegment(4, 4), 2000));
  cache.InvalidateIndex(7 % SdwCache::kEntries);
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);
  EXPECT_NE(cache.Vouching(8, 4).sdw, nullptr);  // other slots keep theirs
  cache.Insert(7, TestSdw(MakeDataSegment(4, 4)));
  EXPECT_EQ(cache.Vouching(7, 4).sdw, nullptr);
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
  // Every fetch after the first is a memo-hit Reference<kFetch>, on top
  // of the operand hits: the verdict cache answers more references than
  // there are instructions.
  EXPECT_GT(on.m.cpu().counters().verdict_hits, on.m.cpu().counters().instructions);
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
  // Through the block engine's entry: with the SDW cache off it must
  // degrade to one per-instruction step per call.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(m.cpu().StepBlock(UINT64_MAX));
  }
  EXPECT_EQ(m.cpu().counters().instructions, 50u);
  EXPECT_EQ(m.cpu().counters().verdict_hits, 0u);
  EXPECT_EQ(m.cpu().counters().block_ops, 0u);
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
  // through word 2 must execute the newly stored `ldai 77`, not the nop
  // decoded into the block built at word 2 on the first trip. A bound one
  // cycle ahead makes each StepBlock run one block op, so the run stops
  // right after the patched word.
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
    ASSERT_TRUE(m.cpu().StepBlock(m.cpu().cycles() + 1)) << "step " << i;
  }
  // tra, nop, sta, tra, then the patched instruction: each a block op but
  // the first, whose walk fills the code segment's verdict.
  EXPECT_EQ(m.cpu().regs().a, 77u);
  EXPECT_EQ(m.cpu().counters().block_ops, 4u);
  EXPECT_GT(m.cpu().counters().block_invalidations, 0u);
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
