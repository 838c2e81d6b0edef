// The probe the fast path answers references from: the present
// descriptor resident in the SDW cache (SdwCache::Resident), checked by the
// reference kind's Check* predicate (Cpu::ProbeAnswers), with no outcome
// stored beside it. Unit behavior of the probe, an exhaustive comparison
// with the predicates, plus bare-machine checks that the fast path
// engages, never changes simulated cycles, retires with the descriptors,
// answers every ring from one walk, and sees self-modifying code.
#include <gtest/gtest.h>

#include "src/core/access.h"
#include "src/cpu/sdw_cache.h"
#include "tests/testutil.h"

namespace rings {
namespace {

// ---------------------------------------------------------------------------
// The probe's unit behavior.
// ---------------------------------------------------------------------------

Sdw TestSdw(const SegmentAccess& access, AbsAddr base = 1000, uint64_t bound = 16) {
  Sdw sdw;
  sdw.present = true;
  sdw.base = base;
  sdw.bound = bound;
  sdw.access = access;
  return sdw;
}

// A processor with nothing but a store and its SDW cache: enough to probe.
struct ProbeRig {
  PhysicalMemory memory{1024};
  Cpu cpu{&memory};

  SdwCache& cache() { return cpu.sdw_cache(); }
  bool Answers(RefKind kind, Segno segno, Ring ring) const {
    return cpu.ProbeAnswers(kind, segno, ring, ring);
  }
};

TEST(SdwCacheVerdict, ProbeComputesPerRingVerdicts) {
  ProbeRig rig;
  // Data segment: write bracket [0,2], read bracket [0,4].
  rig.cache().Insert(7, TestSdw(MakeDataSegment(2, 4)));
  EXPECT_TRUE(rig.Answers(RefKind::kRead, 7, 4));
  EXPECT_TRUE(rig.Answers(RefKind::kIndirect, 7, 4));  // Figure 5 reads like Figure 6
  EXPECT_FALSE(rig.Answers(RefKind::kWrite, 7, 4));    // ring 4 above the write bracket
  EXPECT_FALSE(rig.Answers(RefKind::kFetch, 7, 4));
  EXPECT_FALSE(rig.Answers(RefKind::kTransfer, 7, 4));
  const Sdw* sdw = rig.cache().Resident(7);
  ASSERT_NE(sdw, nullptr);
  EXPECT_EQ(sdw->base, 1000u);
  EXPECT_EQ(sdw->bound, 16u);
  EXPECT_FALSE(sdw->paged);
  EXPECT_FALSE(sdw->access.flags.execute);
  // The same descriptor answers ring 2's write: no walk at that ring.
  EXPECT_TRUE(rig.Answers(RefKind::kWrite, 7, 2));
}

TEST(SdwCacheVerdict, ProbeDemandsExactSegnoAndRing) {
  ProbeRig rig;
  rig.cache().Insert(7, TestSdw(MakeDataSegment(2, 4)));
  // Each ring gets what the brackets give it.
  EXPECT_TRUE(rig.Answers(RefKind::kRead, 7, 4));
  EXPECT_FALSE(rig.Answers(RefKind::kRead, 7, 5));
  EXPECT_FALSE(rig.Answers(RefKind::kWrite, 7, 3));
  // A different segment mapping to the same slot misses.
  const Segno rival = 7 + static_cast<Segno>(SdwCache::kEntries);
  EXPECT_EQ(rig.cache().Resident(rival), nullptr);
  EXPECT_FALSE(rig.Answers(RefKind::kRead, rival, 4));
  // Only a resident descriptor answers: after a flush nothing does, and
  // the descriptor coming back answers at once.
  EXPECT_FALSE(rig.Answers(RefKind::kRead, 8, 4));
  rig.cache().Flush();
  EXPECT_FALSE(rig.Answers(RefKind::kRead, 7, 4));
  rig.cache().Insert(7, TestSdw(MakeDataSegment(2, 4)));
  EXPECT_TRUE(rig.Answers(RefKind::kRead, 7, 4));
  // A descriptor that is not present answers nothing, at any ring.
  Sdw absent = TestSdw(MakeDataSegment(4, 4));
  absent.present = false;
  rig.cache().Insert(7, absent);
  EXPECT_EQ(rig.cache().Resident(7), nullptr);
  EXPECT_FALSE(rig.Answers(RefKind::kRead, 7, 0));
  // A disabled cache holds none.
  rig.cache().set_enabled(false);
  rig.cache().Insert(7, TestSdw(MakeDataSegment(2, 4)));
  EXPECT_EQ(rig.cache().Resident(7), nullptr);
  EXPECT_FALSE(rig.Answers(RefKind::kRead, 7, 4));
}

TEST(SdwCacheVerdict, InvalidateSegmentSlotAndFlush) {
  ProbeRig rig;
  rig.cache().Insert(7, TestSdw(MakeDataSegment(2, 4)));
  rig.cache().Invalidate(7);
  EXPECT_FALSE(rig.Answers(RefKind::kRead, 7, 4));

  rig.cache().Insert(7, TestSdw(MakeDataSegment(2, 4)));
  rig.cache().InvalidateIndex(7 % SdwCache::kEntries);
  EXPECT_FALSE(rig.Answers(RefKind::kRead, 7, 4));

  rig.cache().Insert(7, TestSdw(MakeDataSegment(2, 4)));
  rig.cache().Flush();
  EXPECT_FALSE(rig.Answers(RefKind::kRead, 7, 4));

  // Invalidating another segment that maps to the slot leaves it alone.
  rig.cache().Insert(7, TestSdw(MakeDataSegment(2, 4)));
  rig.cache().Invalidate(7 + static_cast<Segno>(SdwCache::kEntries));
  EXPECT_TRUE(rig.Answers(RefKind::kRead, 7, 4));
}

TEST(SdwCacheVerdict, ExecuteVerdictTracksBracketFloor) {
  ProbeRig rig;
  // Procedure segment executable only in [2,3].
  rig.cache().Insert(9, TestSdw(MakeProcedureSegment(2, 3)));
  EXPECT_FALSE(rig.Answers(RefKind::kFetch, 9, 4));  // above the execute bracket
  EXPECT_TRUE(rig.Answers(RefKind::kFetch, 9, 3));
  EXPECT_TRUE(rig.Answers(RefKind::kFetch, 9, 2));
  EXPECT_FALSE(rig.Answers(RefKind::kFetch, 9, 1));  // below its floor
  // Figure 7: a transfer is answered only at the ring of execution.
  EXPECT_TRUE(rig.cpu.ProbeAnswers(RefKind::kTransfer, 9, 3, 3));
  EXPECT_FALSE(rig.cpu.ProbeAnswers(RefKind::kTransfer, 9, 3, 4));
}

// An answer may not outlive the descriptor it comes from: an Insert into
// the slot replaces what answers, whether it displaces another segment or
// replaces the same segment's descriptor.
TEST(SdwCacheVerdict, InsertDisplacingTheSlotDropsItsVerdict) {
  ProbeRig rig;
  const Segno rival = 7 + static_cast<Segno>(SdwCache::kEntries);
  rig.cache().Insert(7, TestSdw(MakeDataSegment(4, 4)));
  rig.cache().Insert(rival, TestSdw(MakeReadOnlyDataSegment(5), 2000));
  EXPECT_FALSE(rig.Answers(RefKind::kRead, 7, 4));
  EXPECT_TRUE(rig.Answers(RefKind::kRead, rival, 4));
  EXPECT_FALSE(rig.Answers(RefKind::kWrite, rival, 4));  // the rival's own rule
  rig.cache().Insert(7, TestSdw(MakeDataSegment(4, 4)));
  EXPECT_FALSE(rig.Answers(RefKind::kRead, rival, 4));

  // The same segment's descriptor edited to deny writes: the write the
  // old one allowed is no longer answered.
  ASSERT_TRUE(rig.Answers(RefKind::kWrite, 7, 4));
  rig.cache().Insert(7, TestSdw(MakeReadOnlyDataSegment(5)));
  EXPECT_FALSE(rig.Answers(RefKind::kWrite, 7, 4));
  EXPECT_TRUE(rig.Answers(RefKind::kRead, 7, 4));
}

// A dropped associative register (fault injection) answers nothing more;
// when the descriptor is fetched again, the new one answers.
TEST(SdwCacheVerdict, InvalidateIndexDropsItsVerdict) {
  ProbeRig rig;
  rig.cache().Insert(7, TestSdw(MakeDataSegment(4, 4)));
  rig.cache().Insert(8, TestSdw(MakeDataSegment(4, 4), 2000));
  rig.cache().InvalidateIndex(7 % SdwCache::kEntries);
  EXPECT_FALSE(rig.Answers(RefKind::kRead, 7, 4));
  EXPECT_TRUE(rig.Answers(RefKind::kRead, 8, 4));  // other slots keep theirs
  rig.cache().Insert(7, TestSdw(MakeReadOnlyDataSegment(5)));
  EXPECT_TRUE(rig.Answers(RefKind::kRead, 7, 4));
  EXPECT_FALSE(rig.Answers(RefKind::kWrite, 7, 4));
}

// The probe is the general path's predicate, not a copy of it: for every
// well-formed bracket triple, every flag set, presence, every ring and
// every kind (and, for a transfer, every effective ring), it answers
// exactly when the descriptor is present and the kind's Check* allows.
// With the checks off it answers every present descriptor.
TEST(DerivedVerdict, ProbeMatchesTheChecksExhaustively) {
  ProbeRig rig;
  constexpr Segno kSeg = 9;
  uint64_t probes = 0;
  for (unsigned r1 = 0; r1 <= kMaxRing; ++r1) {
    for (unsigned r2 = r1; r2 <= kMaxRing; ++r2) {
      for (unsigned r3 = r2; r3 <= kMaxRing; ++r3) {
        for (unsigned flags = 0; flags < 8; ++flags) {
          for (const bool present : {false, true}) {
            SegmentAccess access;
            access.brackets = *Brackets::Make(r1, r2, r3);
            access.flags = {(flags & 1) != 0, (flags & 2) != 0, (flags & 4) != 0};
            access.gate_count = 1;
            Sdw sdw = TestSdw(access);
            sdw.present = present;
            rig.cache().Insert(kSeg, sdw);
            SCOPED_TRACE(access.brackets.ToString() + " " + access.flags.ToString() +
                         (present ? " present" : " absent"));
            for (Ring ring = 0; ring <= kMaxRing; ++ring) {
              const std::pair<RefKind, bool> kinds[] = {
                  {RefKind::kFetch, CheckExecute(access, ring).ok()},
                  {RefKind::kIndirect, CheckIndirectRead(access, ring).ok()},
                  {RefKind::kRead, CheckRead(access, ring).ok()},
                  {RefKind::kWrite, CheckWrite(access, ring).ok()},
              };
              for (const auto& [kind, allowed] : kinds) {
                ++probes;
                ASSERT_EQ(rig.Answers(kind, kSeg, ring), present && allowed)
                    << "kind " << static_cast<int>(kind) << " ring " << unsigned(ring);
              }
              for (Ring effective = 0; effective <= kMaxRing; ++effective) {
                ++probes;
                ASSERT_EQ(rig.cpu.ProbeAnswers(RefKind::kTransfer, kSeg, ring, effective),
                          present && CheckTransfer(access, ring, effective).ok())
                    << "transfer ring " << unsigned(ring) << " effective " << unsigned(effective);
              }
            }
            rig.cpu.set_checks_enabled(false);
            for (Ring ring = 0; ring <= kMaxRing; ++ring) {
              ASSERT_EQ(rig.Answers(RefKind::kWrite, kSeg, ring), present);
            }
            rig.cpu.set_checks_enabled(true);
          }
        }
      }
    }
  }
  EXPECT_EQ(probes, 120u * 8 * 2 * 8 * (4 + 8));  // 120 well-formed triples
}

// A ring-4 caller and its ring-1 gate read one data segment on every pass:
//
//   caller (ring 4)                       gate (ring 1, one gate word)
//   w0: aos cnt,*   w1: call gate,*       w0: lda cnt1,*   w1: ret pr7|0
//   w2: lda cnt,*   w3: sba lim           w2: cnt1 (RING=1 -> data|0)
//   w4: tmi 0       w5: mme
//   w7: cnt (-> data|0)  w8: gate  w9: lim
//
// Returns the run's face and the verdict misses it took.
Instruction ViaLink(Opcode op, Wordno link) {
  Instruction ins = MakeIns(op, static_cast<int32_t>(link));
  ins.indirect = true;
  return ins;
}

RunSignature RunRingLoop(EngineTier tier, Word passes, uint64_t* misses) {
  BareMachine m;
  m.cpu().set_engine_tier(tier);
  for (Ring r = 0; r < kRingCount; ++r) {
    m.AddSegment({}, MakeStackSegment(r), 64);
  }
  const Segno data = m.AddSegment({0}, UserData());
  const Segno gate = m.AddSegment(
      {EncodeInstruction(ViaLink(Opcode::kLda, 2)),
       EncodeInstruction(MakeInsPr(Opcode::kRet, 7, 0)),
       EncodeIndirectWord(IndirectWord{1, false, data, 0})},
      MakeProcedureSegment(1, 1, 5, /*gate_count=*/1));
  const Segno caller = m.AddSegment(
      {EncodeInstruction(ViaLink(Opcode::kAos, 7)), EncodeInstruction(ViaLink(Opcode::kCall, 8)),
       EncodeInstruction(ViaLink(Opcode::kLda, 7)), EncodeInstruction(MakeIns(Opcode::kSba, 9)),
       EncodeInstruction(MakeIns(Opcode::kTmi, 0)), EncodeInstruction(MakeIns(Opcode::kMme)), 0,
       EncodeIndirectWord(IndirectWord{4, false, data, 0}),
       EncodeIndirectWord(IndirectWord{4, false, gate, 0}), passes},
      UserCode());
  m.SetIpr(4, caller, 0);
  m.SetPr(kPrStack, 4, 4, 16);
  while (m.cpu().cycles() < 1'000'000 && !m.cpu().trap_pending()) {
    m.cpu().StepBlock(1'000'000);
  }
  EXPECT_EQ(m.cpu().trap_state().cause, TrapCause::kMasterModeEntry);
  EXPECT_EQ(m.Peek(data, 0), passes);
  EXPECT_EQ(m.cpu().counters().calls_downward, passes);
  EXPECT_EQ(m.cpu().counters().returns_upward, passes);
  *misses = m.cpu().counters().verdict_misses;
  RunSignature sig = CpuSignature(m.cpu());
  sig.traps.push_back(std::string(TrapCauseName(m.cpu().trap_state().cause)));
  return sig;
}

// One walk of the data segment answers both rings: after the first pass
// every reference is answered from a resident descriptor, so a run of
// twenty passes misses no more often than a run of one.
TEST(DerivedVerdict, OneWalkAnswersEveryRing) {
  uint64_t misses = 0;
  ExpectSameRunOnEveryTier([&](EngineTier tier) { return RunRingLoop(tier, 20, &misses); });
  for (const EngineTier tier : {EngineTier::kCached, EngineTier::kBlocks}) {
    uint64_t one_pass = 0;
    uint64_t twenty_passes = 0;
    RunRingLoop(tier, 1, &one_pass);
    RunRingLoop(tier, 20, &twenty_passes);
    EXPECT_GT(one_pass, 0u) << EngineTierName(tier);
    EXPECT_EQ(twenty_passes, one_pass) << EngineTierName(tier);
  }
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
  // of the operand hits: the probe answers more references than there are
  // instructions.
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
  // The next pass must walk every descriptor again (slow path) and still
  // run.
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(rig.m.StepTrap(), TrapCause::kNone);
  }
  const Counters& after = rig.m.cpu().counters();
  EXPECT_GT(after.verdict_misses, before.verdict_misses);
  EXPECT_GT(after.sdw_fetches, before.sdw_fetches);
}

TEST(FastPathBare, VerdictsArePerRing) {
  // Write bracket [0,2]: denied at ring 4 even with the descriptor warm.
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
  EXPECT_EQ(m4.StepTrap(), TrapCause::kNone);  // answered by the resident data SDW
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
  // the first, whose walk makes the code segment's descriptor resident.
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
