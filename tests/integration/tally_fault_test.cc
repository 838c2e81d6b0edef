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
#include <string>
#include <vector>

#include "src/core/trap_cause.h"
#include "src/fleet/fingerprint.h"
#include "src/kasm/assembler.h"
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

// A demand-paged walk, run from paged code: every fetch translates
// through the TLB, and the data pages start absent (missing-page traps,
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

MachineConfig TierConfig(EngineTier tier) {
  MachineConfig config{.memory_words = size_t{1} << 20};
  ApplyTier(tier, &config);
  return config;
}

// Runs the guest on a reference-tier machine and a `tier` machine in
// `slice`-cycle Run calls until both are idle, comparing after every
// slice. Returns the `tier` machine's final counters.
Counters RunInSlices(GuestFactory guest, EngineTier tier, uint64_t slice) {
  std::unique_ptr<Machine> reference = guest(TierConfig(EngineTier::kReference));
  std::unique_ptr<Machine> machine = guest(TierConfig(tier));
  if (reference == nullptr || machine == nullptr) {
    ADD_FAILURE() << "guest did not boot";
    return {};
  }
  constexpr uint64_t kMaxCycles = 400'000;
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
  }
  EXPECT_LT(reference->cpu().cycles(), kMaxCycles) << "guest did not finish";
  return machine->cpu().counters();
}

// Checks every other tier at slices of 1, 7 and 64 cycles. Returns the
// blocks tier's counters of the last (64-cycle) run.
Counters ExpectExactAtEverySlice(GuestFactory guest) {
  Counters counters;
  for (const EngineTier tier : kEngineTiers) {
    if (tier == EngineTier::kReference) {
      continue;
    }
    for (const uint64_t slice : {1, 7, 64}) {
      SCOPED_TRACE("tier " + std::string(EngineTierName(tier)) + " slice " +
                   std::to_string(slice));
      const Counters got = RunInSlices(guest, tier, slice);
      if (tier == EngineTier::kBlocks) {
        // The engine under test must actually run: blocks, chains and the
        // memo hits the tally stands in for.
        EXPECT_GT(got.block_ops, 0u);
        EXPECT_GT(got.verdict_hits, 0u);
        counters = got;
      }
    }
  }
  return counters;
}

TEST(TallyExactness, CallLoop) {
  const Counters counters = ExpectExactAtEverySlice(&CallLoop);
  EXPECT_GT(counters.crossing_hits, 0u);
}

TEST(TallyExactness, CallLoopWithChecksOff) {
  const Counters counters = ExpectExactAtEverySlice(&UncheckedCallLoop);
  EXPECT_EQ(counters.checks_fetch + counters.checks_read + counters.checks_indirect, 0u);
}

TEST(TallyExactness, DemandPagedWalk) {
  const Counters counters = ExpectExactAtEverySlice(&PagedWalk);
  EXPECT_GT(counters.TrapCount(TrapCause::kMissingPage), 0u);
  // Paged fetches and paged operands both answered through the TLB.
  EXPECT_GT(counters.tlb_hits, counters.block_ops);
}

TEST(TallyExactness, TwoProcessTty) {
  const Counters counters = ExpectExactAtEverySlice(&TwoProcessTty);
  EXPECT_GT(counters.TrapCount(TrapCause::kIoCompletion), 0u);
  EXPECT_GT(counters.TrapCount(TrapCause::kTimerRunout), 0u);
}

TEST(TallyExactness, FaultInjection) {
  const Counters counters = ExpectExactAtEverySlice(&FaultInjected);
  EXPECT_GT(counters.block_bailouts, 0u);
  EXPECT_GT(counters.spurious_pages_ignored, 0u);
}

}  // namespace
}  // namespace rings
