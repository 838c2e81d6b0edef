// Adversarial end-to-end scenarios: every attack the paper's mechanisms
// are designed to stop, mounted by real guest code on the full machine.
// Each runs on every engine tier, and every tier must end it the same way,
// down to the cycle (the one run comparator, tests/testutil.h): a host
// layer that answered a reference the per-instruction path denies would
// split the runs.
#include <gtest/gtest.h>

#include "src/fleet/fingerprint.h"
#include "src/sys/machine.h"
#include "tests/testutil.h"

namespace rings {
namespace {

struct Outcome {
  ProcessState state;
  TrapCause cause;
  int64_t exit_code;
};

// Runs `scenario(machine)`, which loads and starts one process and returns
// it, to completion on a machine of each engine tier; expects every tier's
// run to match the reference tier's and returns the process's outcome.
template <class Scenario>
Outcome RunOnEveryTier(Scenario scenario) {
  Outcome outcome{};
  ExpectSameRunOnEveryTier([&](EngineTier tier) {
    MachineConfig config;
    ApplyTier(tier, &config);
    Machine machine(config);
    const Process* p = scenario(machine);
    if (p == nullptr) {
      ADD_FAILURE() << "the scenario did not start on tier " << EngineTierName(tier);
      return RunSignature{};
    }
    machine.Run();
    outcome = Outcome{p->state, p->kill_cause, p->exit_code};
    return SignatureOf(machine);
  });
  return outcome;
}

Outcome RunProgram(const std::string& source, std::map<std::string, AccessControlList> acls,
                   Ring ring = kUserRing, const std::string& entry_seg = "main") {
  return RunOnEveryTier([&](Machine& machine) -> const Process* {
    EXPECT_TRUE(machine.LoadProgramSource(source, acls));
    Process* p = machine.Login("mallory");
    machine.supervisor().InitiateAll(p);
    EXPECT_TRUE(machine.Start(p, entry_seg, "start", ring));
    return p;
  });
}

TEST(Security, CannotJumpIntoSupervisorCodeDirectly) {
  // TRA into a ring-1 segment from ring 4: the advance check refuses (the
  // execute bracket does not include ring 4 and TRA cannot change rings).
  const Outcome o = RunProgram(R"(
        .segment main
start:  tra   gptr,*
        mme   0
gptr:   .its  4, sup_gates, 0
)",
                               {{"main", AccessControlList::Public(MakeProcedureSegment(4, 4))}});
  EXPECT_EQ(o.state, ProcessState::kKilled);
  EXPECT_EQ(o.cause, TrapCause::kExecuteViolation);
}

TEST(Security, CannotCallPastTheGateList) {
  // CALL at a supervisor word beyond the gate list: gate violation, even
  // though the gate extension covers ring 4.
  const Outcome o = RunProgram(R"(
        .segment main
start:  epp   pr2, gptr,*
        call  pr2|0
        mme   0
gptr:   .its  4, sup_gates, 12    ; inside the segment, past the 6 gates
)",
                               {{"main", AccessControlList::Public(MakeProcedureSegment(4, 4))}});
  EXPECT_EQ(o.state, ProcessState::kKilled);
  EXPECT_EQ(o.cause, TrapCause::kGateViolation);
}

TEST(Security, CannotForgeLowRingPointerViaEpp) {
  // EPP can only copy TPR, whose ring is the max of everything involved —
  // a ring-4 program cannot manufacture a ring-0 pointer and use it to
  // write supervisor data. The PR keeps ring >= 4; the write is denied.
  const Outcome o = RunProgram(R"(
        .segment main
start:  epp   pr3, sptr,*    ; pr3 ring can only be >= 4
        ldai  1
        sta   pr3|0
        mme   0
sptr:   .its  0, supdata, 0  ; claims ring 0 in the stored word

        .segment supdata
        .word 7
)",
                               {{"main", AccessControlList::Public(MakeProcedureSegment(4, 4))},
                                {"supdata", AccessControlList::Public(MakeDataSegment(1, 1))}});
  EXPECT_EQ(o.state, ProcessState::kKilled);
  // The .its claims ring 0, but TPR.RING = max(IPR.RING=4, 0) = 4, and the
  // indirect word's *segment* is readable; the final store is denied.
  EXPECT_EQ(o.cause, TrapCause::kWriteViolation);
}

TEST(Security, LowRingFieldInIndirectWordDoesNotLowerValidation) {
  // Writing ring 0 into an indirect word in one's own segment and
  // referencing through it: TPR.RING still >= the ring of execution.
  const Outcome o = RunProgram(R"(
        .segment main
start:  lda   wptr,*
        mme   0
wptr:   .its  0, supdata, 0  ; forged low ring number

        .segment supdata
        .word 7
)",
                               {{"main", AccessControlList::Public(MakeProcedureSegment(4, 4))},
                                {"supdata", AccessControlList::Public(MakeDataSegment(1, 1))}});
  EXPECT_EQ(o.state, ProcessState::kKilled);
  EXPECT_EQ(o.cause, TrapCause::kReadViolation);
}

TEST(Security, StackOfLowerRingInaccessible) {
  // Ring-4 code reaching into the ring-1 stack segment (segno 1). Stack
  // segments are per-process and unnamed, so the pointer is planted in
  // the process's saved registers rather than via .its.
  const Outcome o = RunOnEveryTier([](Machine& machine) -> const Process* {
    std::map<std::string, AccessControlList> acls;
    acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
    EXPECT_TRUE(machine.LoadProgramSource(R"(
        .segment main
start:  lda   pr3|0
        mme   0
)",
                                          acls));
    Process* p = machine.Login("mallory");
    machine.supervisor().InitiateAll(p);
    EXPECT_TRUE(machine.Start(p, "main", "start", kUserRing));
    // Point PR3 at the ring-1 stack (segno 1). Ring field must be >= 4.
    p->saved_regs.pr[3] = PointerRegister{4, kStackBaseSegno + 1, 0};
    return p;
  });
  EXPECT_EQ(o.state, ProcessState::kKilled);
  EXPECT_EQ(o.cause, TrapCause::kReadViolation);
}

TEST(Security, Ring5CannotTouchRing4Data) {
  // Debug-ring scenario: data writable to ring 4 is out of reach of
  // ring 5, both read (read bracket 4) and write.
  const Outcome o = RunProgram(R"(
        .segment prog5
start:  ldai  1
        sta   dptr,*
        mme   0
dptr:   .its  5, udata, 0

        .segment udata
        .word 3
)",
                               {{"prog5", AccessControlList::Public(MakeProcedureSegment(5, 5))},
                                {"udata", AccessControlList::Public(MakeDataSegment(4, 4))}},
                               /*ring=*/5, "prog5");
  EXPECT_EQ(o.state, ProcessState::kKilled);
  EXPECT_EQ(o.cause, TrapCause::kWriteViolation);
}

TEST(Security, GateCodeCannotBeReadFromOutsideReadBracket) {
  // Supervisor gate code is readable only within its execute bracket; the
  // user program cannot disassemble it.
  const Outcome o = RunProgram(R"(
        .segment main
start:  lda   gptr,*
        mme   0
gptr:   .its  4, sup_gates, 0
)",
                               {{"main", AccessControlList::Public(MakeProcedureSegment(4, 4))}});
  EXPECT_EQ(o.state, ProcessState::kKilled);
  EXPECT_EQ(o.cause, TrapCause::kReadViolation);
}

TEST(Security, CalleeReturnGoesToCallerRingNotLower) {
  // A ring-4 caller passes a return pointer whose stored ring field
  // claims ring 2. After the downward call the callee returns through
  // it; the effective ring is still taken as >= the caller's ring, so
  // execution cannot materialize in ring 2. (The target executes in
  // ring 4, so any successful return lands at ring 4.)
  const Outcome o = RunProgram(R"(
        .segment gatesg
        .gates 1
entry:  ret   pr7|0           ; honest return via the hardware-set PR7
        .segment main
start:  epp   pr2, gptr,*
        call  pr2|0
        ldai  0
        adai  4               ; resumed here, still ring 4
        mme   0
gptr:   .its  4, gatesg, 0
)",
                               {{"gatesg", AccessControlList::Public(MakeProcedureSegment(1, 1, 5, 1))},
                                {"main", AccessControlList::Public(MakeProcedureSegment(4, 4))}});
  EXPECT_EQ(o.state, ProcessState::kExited);
  EXPECT_EQ(o.exit_code, 4);
}

TEST(Security, MaliciousGateSegmentCannotBeInstalledBySetAcl) {
  // A ring-4 program tries to give its own code segment an execute
  // bracket reaching ring 1 (so others calling it would run with ring-1
  // privilege): the SetAcl ring constraint refuses.
  constexpr char kSource[] = R"(
        .segment main
start:  lda   self
        ldqi  0               ; patched below: execute bracket [1,1]
        epp   pr2, gateptr,*
        call  pr2|0
        mme   0
self:   .word 0
gateptr: .its 4, sup_gates, 4
)";
  const Outcome o = RunOnEveryTier([&](Machine& machine) -> const Process* {
    std::map<std::string, AccessControlList> acls;
    acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
    EXPECT_TRUE(machine.LoadProgramSource(kSource, acls));
    const Segno self = machine.registry().Find("main")->segno;
    machine.PokeSegment("main", 5, self);
    const Word spec = PackAccessSpec(true, false, true, 1, 1, 5);
    Word ins = *machine.PeekSegment("main", 1);
    machine.PokeSegment("main", 1, (ins & ~uint64_t{0x3FFFF}) | spec);
    Process* p = machine.Login("mallory");
    machine.supervisor().InitiateAll(p);
    EXPECT_TRUE(machine.Start(p, "main", "start", kUserRing));
    return p;
  });
  EXPECT_EQ(o.state, ProcessState::kExited);
  EXPECT_EQ(o.exit_code, -1);  // service refused
}

TEST(Security, ForgedArgumentPointerFromAWarmCallLoop) {
  // A ring-4 caller passes a ring-1 gate its argument through PR1 a hundred
  // times: a pointer to public data, which the gate reads with `lda
  // pr1|0,*` after reading its own ring-1 secret. Then the caller rewrites
  // the argument to claim ring 1 and name the secret. Figure 5 validates
  // the gate's read as if the caller made it (PR1.RING is 4, and so is the
  // argument list's SDW.R1), so the read is denied, though the gate itself
  // has just read the same word.
  const Outcome o = RunProgram(R"(
        .segment gatesg
        .gates 1
entry:  lda   own,*           ; the gate's own data, at ring 1
        lda   pr1|0,*         ; the caller's argument
        ret   pr7|0
own:    .its  1, secret, 0

        .segment main
start:  epp   pr1, argp,*
loop:   epp   pr2, gptr,*
        call  pr2|0
        aos   cntp,*
        lda   cntp,*
        sba   limit
        tmi   loop
        lda   forged
        sta   argp,*          ; the argument now claims ring 1
        epp   pr2, gptr,*
        call  pr2|0
        mme   0
limit:  .word 100
argp:   .its  4, arglist, 0
cntp:   .its  4, arglist, 1
gptr:   .its  4, gatesg, 0
forged: .its  1, secret, 0

        .segment arglist
        .its  4, pubdata, 0
        .word 0

        .segment pubdata
        .word 5

        .segment secret
        .word 41
)",
                               {{"gatesg", AccessControlList::Public(MakeProcedureSegment(1, 1, 5, 1))},
                                {"main", AccessControlList::Public(MakeProcedureSegment(4, 4))},
                                {"arglist", AccessControlList::Public(MakeDataSegment(4, 4))},
                                {"pubdata", AccessControlList::Public(MakeDataSegment(4, 4))},
                                {"secret", AccessControlList::Public(MakeDataSegment(1, 1))}});
  EXPECT_EQ(o.state, ProcessState::kKilled);
  EXPECT_EQ(o.cause, TrapCause::kReadViolation);
}

TEST(Security, BoundsviolationStopsSegmentOverrun) {
  const Outcome o = RunProgram(R"(
        .segment main
start:  ldxi  x1, 100
        lda   dptr,*
        mme   0
dptr:   .its  4, tiny, 90

        .segment tiny
        .word 1
)",
                               {{"main", AccessControlList::Public(MakeProcedureSegment(4, 4))},
                                {"tiny", AccessControlList::Public(MakeDataSegment(4, 4))}});
  EXPECT_EQ(o.state, ProcessState::kKilled);
  EXPECT_EQ(o.cause, TrapCause::kBoundsViolation);
}

}  // namespace
}  // namespace rings
