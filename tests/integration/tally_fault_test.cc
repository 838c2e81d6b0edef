// Counter exactness at every dispatch exit. The processor's hit paths
// tally their counters during a dispatch and settle the tally when Step or
// StepBlock returns (see Cpu::counters()). So after every Machine::Run
// slice, however short, a machine on each engine tier must match a
// reference-tier machine through the one run comparator: cycles,
// architectural counters, trap counts, SDW-cache statistics, registers,
// process states and tty output. A slice of 1 cycle stops the block engine
// after every instruction; slices of 7 and 64 cycles stop it mid-block,
// after a chain, at a due I/O completion, and on every trap, bailout and
// fallback to the per-instruction path the guests provoke.
#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/trap_cause.h"
#include "src/fleet/fingerprint.h"
#include "src/kasm/assembler.h"
#include "src/mem/descriptor_segment.h"
#include "src/mem/page_table.h"
#include "src/sys/machine.h"
#include "tests/testutil.h"

namespace rings {
namespace {

using GuestFactory = std::unique_ptr<Machine> (*)(const MachineConfig& config);

// Loads `source` into `machine`, then starts one process per (segment,
// entry) pair.
std::unique_ptr<Machine> Start(std::unique_ptr<Machine> machine, const char* source,
                               const std::map<std::string, AccessControlList>& acls,
                               std::initializer_list<std::pair<const char*, const char*>> starts) {
  std::string error;
  if (!machine->LoadProgramSource(source, acls, &error)) {
    ADD_FAILURE() << "load failed: " << error;
    return nullptr;
  }
  for (const auto& [segment, entry] : starts) {
    Process* p = machine->Login(segment);
    machine->supervisor().InitiateAll(p);
    if (!machine->Start(p, segment, entry, kUserRing)) {
      ADD_FAILURE() << "start failed: " << segment;
      return nullptr;
    }
  }
  return machine;
}

// Registers `bigdata`, a paged data segment whose pages start absent.
bool AddPagedData(Machine& machine, size_t pages) {
  return machine.registry()
      .CreatePagedSegment("bigdata", pages * kPageWords,
                          AccessControlList::Public(MakeDataSegment(4, 4)), /*populate=*/false)
      .has_value();
}

// A gate-crossing call loop: downward CALLs into a ring-1 gate, indirect
// operands, and same-segment transfers.
constexpr char kCallLoopSource[] = R"(
        .segment main
start:
loop:   epp   pr2, gptr,*
        call  pr2|0
        aos   cnt,*
        lda   cnt,*
        sba   limit
        tmi   loop
        mme   0
limit:  .word 120
cnt:    .its  4, counter, 0
gptr:   .its  4, target, 0

        .segment counter
        .word 0

        .segment target
        .gates 1
entry:  ret   pr7|0
)";

std::unique_ptr<Machine> CallLoop(const MachineConfig& config) {
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["counter"] = AccessControlList::Public(MakeDataSegment(4, 4));
  acls["target"] = AccessControlList::Public(MakeProcedureSegment(1, 1, 7, 1));
  return Start(std::make_unique<Machine>(config), kCallLoopSource, acls, {{"main", "start"}});
}

// A demand-paged walk, run from paged code: every fetch walks the page
// table, and the data pages start absent (missing-page traps,
// supervisor page fills). The loader makes only unpaged segments, so the
// code is assembled into a paged segment by hand and reaches its data
// through PR1.
constexpr char kPagedWalkSource[] = R"(
        .segment pcode
pstart: aos   pr1|10
        lda   pr1|2100
        adai  1
        sta   pr1|2100
        lda   pr1|1100
        sta   pr1|1100
        lda   pr1|10
        sba   plim
        tmi   pstart
        mme   0
plim:   .word 150
)";

std::unique_ptr<Machine> PagedWalk(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  EXPECT_TRUE(AddPagedData(*machine, 3));
  const Program program = AssembleOrDie(kPagedWalkSource);
  const std::vector<Word>& code = program.segments[0].words;
  EXPECT_TRUE(machine->registry()
                  .CreatePagedSegment("pcode", code.size(),
                                      AccessControlList::Public(MakeProcedureSegment(4, 4)),
                                      /*populate=*/true, code)
                  .has_value());
  Process* p = machine->Login("pager");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "pcode", "", kUserRing)) {
    ADD_FAILURE() << "start failed";
    return nullptr;
  }
  p->saved_regs.pr[1] = PointerRegister{kUserRing, machine->registry().Find("bigdata")->segno, 0};
  return machine;
}

// Two processes under a short quantum: one writes the typewriter through
// the ring-1 service gate (I/O completions bound the block engine), the
// other spins on a counter.
constexpr char kTtySource[] = R"(
        .segment writer
wstart: epp   pr1, arglist
        epp   pr2, gateptr,*
        call  pr2|0
        aos   wcnt,*
        lda   wcnt,*
        sba   wlim
        tmi   wstart
        mme   0
arglist: .word 1
        .its  4, writer, buf
        .word 1
buf:    .word 88
wlim:   .word 12
wcnt:   .its  4, wdata, 0
gateptr: .its 4, sup_gates, 1

        .segment wdata
        .block 1

        .segment spinner
sstart: aos   scnt,*
        lda   scnt,*
        sba   slim
        tmi   sstart
        mme   0
slim:   .word 300
scnt:   .its  4, sdata, 0

        .segment sdata
        .block 1
)";

std::unique_ptr<Machine> TwoProcessTty(const MachineConfig& config) {
  MachineConfig short_quantum = config;
  short_quantum.quantum = 150;
  std::map<std::string, AccessControlList> acls;
  acls["writer"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["wdata"] = AccessControlList::Public(MakeDataSegment(4, 4));
  acls["spinner"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["sdata"] = AccessControlList::Public(MakeDataSegment(4, 4));
  return Start(std::make_unique<Machine>(short_quantum), kTtySource, acls,
               {{"writer", "wstart"}, {"spinner", "sstart"}});
}

// Three processes under deterministic fault injection: a call loop, a
// paged walk and a spinner. Dropped descriptor registers, corrupted SDWs
// and indirect words, and spurious missing-page traps land in the middle
// of blocks and chains; a process the damage kills leaves the others
// running.
constexpr char kFaultSource[] = R"(
        .segment caller
cstart: epp   pr2, gptr,*
        call  pr2|0
        aos   ccnt,*
        lda   ccnt,*
        sba   clim
        tmi   cstart
        mme   0
clim:   .word 150
ccnt:   .its  4, cdata, 0
gptr:   .its  4, target, 0

        .segment cdata
        .block 1

        .segment target
        .gates 1
entry:  ret   pr7|0

        .segment pager
pstart: aos   pcnt,*
        lda   far,*
        adai  1
        sta   far,*
        lda   pcnt,*
        sba   plim
        tmi   pstart
        mme   0
plim:   .word 150
pcnt:   .its  4, bigdata, 10
far:    .its  4, bigdata, 1100

        .segment spinner
sstart: aos   scnt,*
        lda   scnt,*
        sba   slim
        tmi   sstart
        mme   0
slim:   .word 300
scnt:   .its  4, sdata, 0

        .segment sdata
        .block 1
)";

std::unique_ptr<Machine> FaultInjected(const MachineConfig& config) {
  MachineConfig faulty = config;
  faulty.quantum = 200;
  faulty.fault = FaultConfig::Uniform(0xB0B, 2'000);
  auto machine = std::make_unique<Machine>(faulty);
  EXPECT_TRUE(AddPagedData(*machine, 2));
  std::map<std::string, AccessControlList> acls;
  acls["caller"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["cdata"] = AccessControlList::Public(MakeDataSegment(4, 4));
  acls["target"] = AccessControlList::Public(MakeProcedureSegment(1, 1, 7, 1));
  acls["pager"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["spinner"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["sdata"] = AccessControlList::Public(MakeDataSegment(4, 4));
  return Start(std::move(machine), kFaultSource, acls,
               {{"caller", "cstart"}, {"pager", "pstart"}, {"spinner", "sstart"}});
}

// The call loop with validation switched off, as the overhead benchmark
// runs it: every hit then charges no check.
std::unique_ptr<Machine> UncheckedCallLoop(const MachineConfig& config) {
  std::unique_ptr<Machine> machine = CallLoop(config);
  if (machine != nullptr) {
    machine->cpu().set_checks_enabled(false);
  }
  return machine;
}

// One process in ring 4 and one in ring 5 run the same counting loop over
// one shared data segment. Every data operand is a resolved hop and the
// limit a direct operand, so the block engine memoises them all. The
// supervisor edits the data SDW twice mid-run (SharedDataEdits): it
// narrows the write bracket to ring 4, which traps the ring-5 process at
// its next store, and later it moves the segment, poisoning its old words.
constexpr char kSharedDataSource[] = R"(
        .segment worker
start:  lda   cnt,*
        adai  1
        sta   cnt,*
        aos   iter,*
        lda   iter,*
        sba   limit
        tmi   start
        mme   0
limit:  .word 600
cnt:    .its  4, shared, 0
iter:   .its  4, shared, 1

        .segment shared
        .block 2
)";

std::unique_ptr<Machine> SharedDataLoop(const MachineConfig& config) {
  MachineConfig short_quantum = config;
  short_quantum.quantum = 150;
  auto machine = std::make_unique<Machine>(short_quantum);
  std::map<std::string, AccessControlList> acls;
  acls["worker"] = AccessControlList::Public(MakeProcedureSegment(4, 5));
  acls["shared"] = AccessControlList::Public(MakeDataSegment(5, 5));
  std::string error;
  if (!machine->LoadProgramSource(kSharedDataSource, acls, &error)) {
    ADD_FAILURE() << "load failed: " << error;
    return nullptr;
  }
  for (const Ring ring : {kUserRing, Ring{kUserRing + 1}}) {
    Process* p = machine->Login("worker");
    machine->supervisor().InitiateAll(p);
    if (!machine->Start(p, "worker", "start", ring)) {
      ADD_FAILURE() << "start failed in ring " << int{ring};
      return nullptr;
    }
  }
  return machine;
}

// The supervisor's edit of `shared`'s SDW in every process's descriptor
// segment, announced to the processor.
template <class Edit>
void EditSharedSdw(Machine& machine, Edit edit) {
  const Segno segno = machine.registry().Find("shared")->segno;
  for (const auto& process : machine.supervisor().processes()) {
    DescriptorSegment dseg(&machine.memory(), process->dbr);
    Sdw sdw = *dseg.Fetch(segno);
    edit(sdw);
    dseg.Store(segno, sdw);
  }
  machine.cpu().InvalidateSdw(segno);
}

void NarrowSharedWriteBracket(Machine& machine) {
  EditSharedSdw(machine, [](Sdw& sdw) { sdw.access.brackets.r1 = kUserRing; });
}

void MoveSharedSegment(Machine& machine) {
  const AbsAddr to = *machine.memory().Allocate(2);
  EditSharedSdw(machine, [&](Sdw& sdw) {
    if (sdw.base != to) {
      for (Wordno w = 0; w < 2; ++w) {
        machine.memory().Write(to + w, machine.memory().Read(sdw.base + w));
        machine.memory().Write(sdw.base + w, 1'000'000);
      }
      sdw.base = to;
    }
  });
}

// A supervisor action applied to both machines between slices, once, after
// the first slice that ends at or past `at` cycles.
struct SliceEdit {
  uint64_t at;
  void (*apply)(Machine&);
};
constexpr SliceEdit kSharedDataEdits[] = {{4'000, &NarrowSharedWriteBracket},
                                          {9'000, &MoveSharedSegment}};

// One process in ring 4 and one in ring 5 run a loop over one shared data
// segment that uses every opcode the block engine runs in its own loop
// (Cpu::RunInLoop): the register-only and immediate forms, EPP, loads,
// arithmetic and stores through resolved hops and direct operands (memo
// hits once hot), one load through a pointer register (never memoised),
// AOS, and each non-crossing transfer both taken and not taken, directly
// and through a hop. The short quantum switches rings every few passes,
// so the blocks are rebuilt and every memo refilled at first execution.
constexpr char kInLoopSource[] = R"(
        .segment inloop
start:  nop
        ldai  3
        ldqi  5
        ldxi  x1, 1
        adai  2
        als   3
        ars   1
        nega
        xaq
        epp   pr2, cnt,*
        epp   pr3, one
        lda   pr2|0
        ldq   iter,*
        ldx   x2, one
        ada   one
        sba   one
        mpy   two
        ana   mask
        ora   one
        era   one
        sta   tmp,*
        stq   tmp,*
        stx   x2, tmp,*
        stz   tmp,*
        aos   cnt,*
        lda   cnt,*
        ana   one
        tze   even
        tnz   odd
        mme   1
even:   tnz   bad
        lda   cnt,*
        tmi   bad
        tpl   nextp,*
        mme   2
odd:    lda   cnt,*
        nega
        tpl   bad
        tmi   next
        mme   3
next:   aos   iter,*
        lda   iter,*
        sba   limit
        tmi   start
        tra   donep,*
bad:    mme   4
done:   mme   0
one:    .word 1
two:    .word 2
mask:   .word 7
limit:  .word 100
cnt:    .its  4, shared, 0
iter:   .its  4, shared, 1
tmp:    .its  4, shared, 2
nextp:  .its  4, inloop, next
donep:  .its  4, inloop, done

        .segment shared
        .block 3
)";

std::unique_ptr<Machine> InLoopGuest(const MachineConfig& config) {
  MachineConfig short_quantum = config;
  short_quantum.quantum = 150;
  // Every check costs a cycle (the default model charges none), so an
  // in-loop form that skips a check's charge shows in the cycle count.
  short_quantum.cycle_model.access_check = 1;
  auto machine = std::make_unique<Machine>(short_quantum);
  std::map<std::string, AccessControlList> acls;
  acls["inloop"] = AccessControlList::Public(MakeProcedureSegment(4, 5));
  acls["shared"] = AccessControlList::Public(MakeDataSegment(5, 5));
  std::string error;
  if (!machine->LoadProgramSource(kInLoopSource, acls, &error)) {
    ADD_FAILURE() << "load failed: " << error;
    return nullptr;
  }
  for (const Ring ring : {kUserRing, Ring{kUserRing + 1}}) {
    Process* p = machine->Login("inloop");
    machine->supervisor().InitiateAll(p);
    if (!machine->Start(p, "inloop", "start", ring)) {
      ADD_FAILURE() << "start failed in ring " << int{ring};
      return nullptr;
    }
  }
  return machine;
}

// One process in ring 4 whose code is unpaged runs PR-relative loads and
// stores, direct, indexed and through `,*` words, over an unpaged data
// segment (PR1) and a demand-paged one (PR2); the `,*` words lie in the
// code (PR3) and name a word of each. The block engine runs these ops in
// its own loop once their verdicts are warm (DESIGN.md §7, "Ops run in the
// loop"), reading the paged segment's PTWs as it goes, and the missing-page
// traps of the first touches come from Execute.
constexpr char kPrRelativeSource[] = R"(
        .segment prloop
start:  epp   pr1, uptr,*
        epp   pr2, pptr,*
        epp   pr3, args
loop:   lda   pr1|0
        adai  1
        sta   pr1|0
        ldx   x1, pr1|0
        lda   pr2|0, x1
        ada   pr3|0,*
        sta   pr2|0, x1
        sta   pr3|1,*
        ldq   pr3|1,*
        stq   pr1|1
        lda   pr1|0
        sba   limit
        tmi   loop
        mme   0
limit:  .word 200
uptr:   .its  4, udata, 0
pptr:   .its  4, bigdata, 900
args:   .its  4, udata, 2
        .its  4, bigdata, 2100

        .segment udata
        .word 0
        .word 0
        .word 3
)";

std::unique_ptr<Machine> PrRelativeGuest(const MachineConfig& config) {
  MachineConfig checked = config;
  // Every check costs a cycle, so a form that skips a check's charge shows.
  checked.cycle_model.access_check = 1;
  auto machine = std::make_unique<Machine>(checked);
  EXPECT_TRUE(AddPagedData(*machine, 3));
  std::map<std::string, AccessControlList> acls;
  acls["prloop"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["udata"] = AccessControlList::Public(MakeDataSegment(4, 4));
  return Start(std::move(machine), kPrRelativeSource, acls, {{"prloop", "start"}});
}

MachineConfig TierConfig(EngineTier tier) {
  MachineConfig config{.memory_words = size_t{1} << 20};
  ApplyTier(tier, &config);
  return config;
}

// Runs the guest on a reference-tier machine and a `tier` machine in
// `slice`-cycle Run calls until both are idle, comparing after every
// slice and applying `edits` to both. Returns the `tier` machine's final
// counters.
Counters RunInSlices(GuestFactory guest, EngineTier tier, uint64_t slice,
                     std::span<const SliceEdit> edits) {
  std::unique_ptr<Machine> reference = guest(TierConfig(EngineTier::kReference));
  std::unique_ptr<Machine> machine = guest(TierConfig(tier));
  if (reference == nullptr || machine == nullptr) {
    ADD_FAILURE() << "guest did not boot";
    return {};
  }
  constexpr uint64_t kMaxCycles = 400'000;
  size_t applied = 0;
  for (uint64_t n = 0; reference->cpu().cycles() < kMaxCycles; ++n) {
    const RunResult want = reference->Run(slice);
    const RunResult got = machine->Run(slice);
    const testing::AssertionResult same = SameRun(SignatureOf(*reference), SignatureOf(*machine));
    if (!same) {
      ADD_FAILURE() << "after slice " << n << " (cycle " << reference->cpu().cycles()
                    << "): " << same.message();
      return machine->cpu().counters();
    }
    EXPECT_EQ(want.idle, got.idle) << "slice " << n;
    if (want.idle) {
      break;
    }
    for (; applied < edits.size() && reference->cpu().cycles() >= edits[applied].at; ++applied) {
      edits[applied].apply(*reference);
      edits[applied].apply(*machine);
    }
  }
  EXPECT_EQ(applied, edits.size()) << "the guest finished before every edit";
  EXPECT_LT(reference->cpu().cycles(), kMaxCycles) << "guest did not finish";
  return machine->cpu().counters();
}

// Checks every other tier at slices of 1, 7 and 64 cycles. Returns the
// blocks tier's counters of the last (64-cycle) run. `in_blocks` is false
// for a guest whose code no block may hold (run with the checks off, or
// from a paged segment): the blocks tier must then run it all on the
// per-instruction path.
Counters ExpectExactAtEverySlice(GuestFactory guest, std::span<const SliceEdit> edits = {},
                                 bool in_blocks = true) {
  Counters counters;
  for (const EngineTier tier : kEngineTiers) {
    if (tier == EngineTier::kReference) {
      continue;
    }
    for (const uint64_t slice : {1, 7, 64}) {
      SCOPED_TRACE("tier " + std::string(EngineTierName(tier)) + " slice " +
                   std::to_string(slice));
      const Counters got = RunInSlices(guest, tier, slice, edits);
      if (tier == EngineTier::kBlocks) {
        // The engine under test must actually run: blocks, chains and the
        // memo hits the tally stands in for; or, for code no block holds,
        // only the memo hits.
        if (in_blocks) {
          EXPECT_GT(got.block_ops, 0u);
        } else {
          EXPECT_EQ(got.block_builds, 0u);
        }
        EXPECT_GT(got.verdict_hits, 0u);
        counters = got;
      }
    }
  }
  return counters;
}

TEST(TallyExactness, CallLoop) {
  const Counters counters = ExpectExactAtEverySlice(&CallLoop);
  EXPECT_GT(counters.calls_downward, 0u);
}

TEST(TallyExactness, CallLoopWithChecksOff) {
  const Counters counters =
      ExpectExactAtEverySlice(&UncheckedCallLoop, {}, /*in_blocks=*/false);
  EXPECT_EQ(counters.checks_fetch + counters.checks_read + counters.checks_indirect, 0u);
}

TEST(TallyExactness, DemandPagedWalk) {
  const Counters counters = ExpectExactAtEverySlice(&PagedWalk, {}, /*in_blocks=*/false);
  EXPECT_GT(counters.TrapCount(TrapCause::kMissingPage), 0u);
  // Paged fetches and paged operands both walk the page table.
  EXPECT_GT(counters.page_walks, counters.instructions);
}

TEST(TallyExactness, TwoProcessTty) {
  const Counters counters = ExpectExactAtEverySlice(&TwoProcessTty);
  EXPECT_GT(counters.TrapCount(TrapCause::kIoCompletion), 0u);
  EXPECT_GT(counters.TrapCount(TrapCause::kTimerRunout), 0u);
}

TEST(TallyExactness, SharedDataSdwEditedUnderMemoisedOperands) {
  const Counters counters = ExpectExactAtEverySlice(&SharedDataLoop, kSharedDataEdits);
  EXPECT_EQ(counters.TrapCount(TrapCause::kWriteViolation), 1u);
}

TEST(TallyExactness, InLoopForms) {
  const Counters counters = ExpectExactAtEverySlice(&InLoopGuest);
  EXPECT_GT(counters.TrapCount(TrapCause::kTimerRunout), 2u);
  EXPECT_GT(counters.checks_transfer, 0u);
  EXPECT_GT(counters.checks_write, 0u);
  // Both processes reach their `mme 0`: no branch went the wrong way into
  // an `mme` that kills.
  std::unique_ptr<Machine> machine = InLoopGuest(TierConfig(EngineTier::kBlocks));
  ASSERT_NE(machine, nullptr);
  for (int i = 0; i < 100 && !machine->Run(10'000).idle; ++i) {
  }
  for (const auto& process : machine->supervisor().processes()) {
    EXPECT_EQ(process->state, ProcessState::kExited) << ProcessStatusLine(*process);
  }
}

TEST(TallyExactness, PrRelativeOperands) {
  const Counters counters = ExpectExactAtEverySlice(&PrRelativeGuest);
  EXPECT_GT(counters.TrapCount(TrapCause::kMissingPage), 0u);
  EXPECT_GT(counters.page_walks, 0u);
  // Most of the loop's ten PR-relative ops per pass run in the loop; the
  // rest of the fallbacks are the first touches and the missing-page
  // traps.
  EXPECT_LT(counters.block_op_fallbacks * 10, counters.block_ops);
}

TEST(TallyExactness, FaultInjection) {
  const Counters counters = ExpectExactAtEverySlice(&FaultInjected);
  EXPECT_GT(counters.block_bailouts, 0u);
  EXPECT_GT(counters.spurious_pages_ignored, 0u);
}

}  // namespace
}  // namespace rings
