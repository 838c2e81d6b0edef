// Long-running fault soak: a multi-process workload (CPU spinner, demand-
// paging pounder, I/O chatterbox) runs for thousands of scheduling quanta
// while the injector corrupts descriptors, drops cache entries, flips
// indirect-word rings, raises spurious page faults, and delays I/O. The
// protection auditor runs after every quantum; the machine must absorb or
// attribute every injected fault — zero kError findings, zero host
// aborts, every killed process carrying a cause.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cpu/sdw_cache.h"
#include "src/fault/fault_injector.h"
#include "src/fleet/fingerprint.h"
#include "src/mem/page_table.h"
#include "src/snapshot/snapshot.h"
#include "src/sup/audit.h"
#include "src/sys/machine.h"

namespace rings {
namespace {

// Three long-lived workloads. None exits on its own; the soak ends when
// the quantum target is reached. Offsets 10/1034/2058/3082 in bigdata put
// one reference in each of its four (demand-zero) pages.
constexpr char kWorkloadSource[] = R"(
        .segment spin
sstart: ldai  0
sloop:  adai  1
        sta   slot,*
        lda   slot,*
        tra   sloop
slot:   .its  4, counters, 0

        .segment counters
        .block 8

        .segment pager
pstart: ldai  1
ploop:  adai  1
        sta   p0,*
        lda   p1,*
        sta   p1,*
        lda   p2,*
        sta   p2,*
        lda   p3,*
        sta   p3,*
        lda   p0,*
        tra   ploop
p0:     .its  4, bigdata, 10
p1:     .its  4, bigdata, 1034
p2:     .its  4, bigdata, 2058
p3:     .its  4, bigdata, 3082

        .segment chatty
cstart: epp   pr1, arglist
        epp   pr2, gateptr,*
        call  pr2|0
        tra   cstart
arglist: .word 1
        .its  4, chatty, buf
        .word 1
buf:    .word 88
gateptr: .its 4, sup_gates, 1
)";

std::map<std::string, AccessControlList> WorkloadAcls() {
  std::map<std::string, AccessControlList> acls;
  acls["spin"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["counters"] = AccessControlList::Public(MakeDataSegment(4, 4));
  acls["pager"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["chatty"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  return acls;
}

// Logs in one process per workload; returns how many started.
int SpawnFleet(Machine& machine, int generation) {
  struct Entry {
    const char* segment;
    const char* entry;
  };
  static constexpr Entry kFleet[] = {
      {"spin", "sstart"}, {"pager", "pstart"}, {"chatty", "cstart"}};
  int started = 0;
  for (const Entry& e : kFleet) {
    Process* p =
        machine.Login(std::string(e.segment) + "-" + std::to_string(generation));
    if (p == nullptr) {
      continue;
    }
    machine.supervisor().InitiateAll(p);
    if (machine.Start(p, e.segment, e.entry, kUserRing)) {
      ++started;
    }
  }
  return started;
}

void RunSoak(uint64_t seed) {
  constexpr uint64_t kTargetQuanta = 5000;

  MachineConfig config;
  config.memory_words = size_t{1} << 24;
  config.quantum = 200;  // frequent dispatches, frequent audits
  config.audit_every_quantum = true;
  config.fault.seed = seed;
  config.fault.set_rate(FaultSite::kSdwCorruption, 2'000);
  config.fault.set_rate(FaultSite::kSdwCacheDrop, 1'000);
  config.fault.set_rate(FaultSite::kIndirectRingCorruption, 50);
  config.fault.set_rate(FaultSite::kSpuriousMissingPage, 300);
  config.fault.set_rate(FaultSite::kIoDelay, 200'000);
  Machine machine(config);
  ASSERT_TRUE(machine.ok());

  // The pager's target: four demand-zero pages, all initially absent.
  ASSERT_TRUE(machine.registry()
                  .CreatePagedSegment("bigdata", 4 * kPageWords,
                                      AccessControlList::Public(MakeDataSegment(4, 4)),
                                      /*populate=*/false)
                  .has_value());
  ASSERT_TRUE(machine.LoadProgramSource(kWorkloadSource, WorkloadAcls()));

  int generation = 0;
  ASSERT_EQ(SpawnFleet(machine, generation), 3);

  // Run in bounded slices until the quantum target. Unrecoverable faults
  // (e.g. a corrupted indirect-word ring) legitimately kill processes;
  // when the whole fleet is gone, a fresh generation is logged in.
  int rounds = 0;
  while (machine.cpu().counters().TrapCount(TrapCause::kTimerRunout) < kTargetQuanta) {
    ASSERT_LT(rounds++, 1000) << "soak stalled before reaching the quantum target";
    const RunResult result = machine.Run(2'000'000);
    if (!AuditClean(machine.audit_findings())) {
      for (const AuditFinding& f : machine.audit_findings()) {
        ADD_FAILURE() << f.ToString();
      }
      return;
    }
    if (result.idle) {
      ++generation;
      ASSERT_GT(SpawnFleet(machine, generation), 0) << "could not respawn the fleet";
    }
  }

  // The injector actually exercised the machine...
  ASSERT_NE(machine.fault_injector(), nullptr);
  EXPECT_GT(machine.fault_injector()->total_injected(), 0u);
  EXPECT_GT(machine.audit_runs(), 0u);
  EXPECT_GE(machine.cpu().counters().TrapCount(TrapCause::kTimerRunout), kTargetQuanta);

  // ...including the fast path: the hot loops were answered from resident
  // descriptors and ran in blocks, the injected SDW corruption and cache
  // drops sent references back to the descriptor walk (recovery re-fetches
  // the descriptors), and the whole soak still audits clean with the
  // caches engaged.
  EXPECT_GT(machine.cpu().counters().verdict_hits, 0u);
  EXPECT_GT(machine.cpu().counters().verdict_misses, 0u);
  EXPECT_GT(machine.cpu().counters().block_ops, 0u);
  EXPECT_GT(machine.cpu().counters().sdw_recoveries, 0u);

  // The pager's paged references walked their page tables under the
  // injected descriptor-cache drops and SDW corruption.
  EXPECT_GT(machine.cpu().counters().page_walks, 0u);

  // ...every death is attributed (no process silently disappeared)...
  for (const auto& process : machine.supervisor().processes()) {
    if (process->state == ProcessState::kKilled) {
      EXPECT_NE(process->kill_cause, TrapCause::kNone)
          << "pid " << process->pid << " killed without attribution";
    } else if (process->state == ProcessState::kExited) {
      ADD_FAILURE() << "pid " << process->pid
                    << " exited voluntarily; soak workloads never exit";
    }
  }

  // ...and a final full audit agrees the protection state is intact.
  const auto findings =
      AuditProtectionState(&machine.memory(), machine.registry(), machine.supervisor());
  for (const AuditFinding& f : findings) {
    if (f.severity == AuditSeverity::kError) {
      ADD_FAILURE() << f.ToString();
    }
  }
}

TEST(FaultSoak, SeedA) { ASSERT_NO_FATAL_FAILURE(RunSoak(0xA11CE)); }
TEST(FaultSoak, SeedB) { ASSERT_NO_FATAL_FAILURE(RunSoak(0xB0B)); }
TEST(FaultSoak, SeedC) { ASSERT_NO_FATAL_FAILURE(RunSoak(0xCAFE)); }

// A snapshot taken mid-soak — injector stream live, pages half-filled,
// processes possibly already killed by injected faults — restores into a
// fresh machine whose continued trajectory is fingerprint-identical to
// the uninterrupted run, audits and all.
TEST(FaultSoak, MidSoakSnapshotRestoreIsFingerprintIdentical) {
  MachineConfig config;
  config.memory_words = size_t{1} << 22;
  config.quantum = 200;
  config.audit_every_quantum = true;
  config.fault.seed = 0xA11CE;
  config.fault.set_rate(FaultSite::kSdwCorruption, 2'000);
  config.fault.set_rate(FaultSite::kSdwCacheDrop, 1'000);
  config.fault.set_rate(FaultSite::kIndirectRingCorruption, 50);
  config.fault.set_rate(FaultSite::kSpuriousMissingPage, 300);
  config.fault.set_rate(FaultSite::kIoDelay, 200'000);

  const auto make = [&config]() -> std::unique_ptr<Machine> {
    auto machine = std::make_unique<Machine>(config);
    if (!machine->ok() ||
        !machine->registry()
             .CreatePagedSegment("bigdata", 4 * kPageWords,
                                 AccessControlList::Public(MakeDataSegment(4, 4)),
                                 /*populate=*/false)
             .has_value() ||
        !machine->LoadProgramSource(kWorkloadSource, WorkloadAcls())) {
      return nullptr;
    }
    if (SpawnFleet(*machine, 0) != 3) {
      return nullptr;
    }
    return machine;
  };

  // Both sides run the same sequence of bounded slices; the cut lands
  // between slices kCut-1 and kCut.
  constexpr int kSlices = 6;
  constexpr int kCut = 3;
  constexpr uint64_t kSliceCycles = 500'000;

  const std::unique_ptr<Machine> uninterrupted = make();
  ASSERT_NE(uninterrupted, nullptr);
  for (int i = 0; i < kSlices; ++i) {
    uninterrupted->Run(kSliceCycles);
  }

  const std::unique_ptr<Machine> live = make();
  ASSERT_NE(live, nullptr);
  for (int i = 0; i < kCut; ++i) {
    live->Run(kSliceCycles);
  }
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
  ASSERT_TRUE(VerifySnapshot(image, &error)) << error;

  Machine restored(config);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
  for (int i = kCut; i < kSlices; ++i) {
    restored.Run(kSliceCycles);
  }

  EXPECT_EQ(FingerprintMachine(restored), FingerprintMachine(*uninterrupted));
  EXPECT_EQ(restored.cpu().cycles(), uninterrupted->cpu().cycles());
  ASSERT_NE(restored.fault_injector(), nullptr);
  ASSERT_NE(uninterrupted->fault_injector(), nullptr);
  EXPECT_EQ(restored.fault_injector()->CaptureState().sequence,
            uninterrupted->fault_injector()->CaptureState().sequence);
  EXPECT_TRUE(AuditClean(restored.audit_findings()));
}

// The injector's restriction-only guarantee, pinned against the probe: a
// corrupted SDW resident in the SDW cache may only DENY references the
// clean descriptor would allow, never the reverse, and one whose present
// bit the damage cleared answers none. (A corruption that widened an
// answer would be a silently-granted capability — the failure class
// DESIGN.md rules out of scope for software above the TCB.)
TEST(FaultSoak, CorruptionOnlyRestrictsVerdicts) {
  FaultConfig config;
  config.set_rate(FaultSite::kSdwCorruption, 1'000'000);  // always inject
  FaultInjector injector(config);

  const SegmentAccess shapes[] = {
      MakeDataSegment(2, 4),          MakeDataSegment(4, 4),
      MakeReadOnlyDataSegment(5),     MakeProcedureSegment(0, 4),
      MakeProcedureSegment(2, 3),     MakeProcedureSegment(2, 2, 5, 1),
      MakeStackSegment(4),
  };
  uint64_t corrupted = 0;
  uint64_t damaged_answers = 0;  // so the restriction is not checked vacuously
  for (int round = 0; round < 64; ++round) {
    for (const SegmentAccess& access : shapes) {
      Sdw clean;
      clean.present = true;
      clean.base = 1000 + round;
      clean.bound = 64;
      clean.access = access;
      Sdw damaged = clean;
      if (!injector.MaybeCorruptSdw(/*cycle=*/round, /*segno=*/9, &damaged)) {
        continue;
      }
      ++corrupted;

      PhysicalMemory memory(1024);
      Cpu clean_cpu(&memory);
      Cpu damaged_cpu(&memory);
      clean_cpu.sdw_cache().Insert(9, clean);
      damaged_cpu.sdw_cache().Insert(9, damaged);
      for (const RefKind kind : {RefKind::kFetch, RefKind::kIndirect, RefKind::kRead,
                                 RefKind::kWrite, RefKind::kTransfer}) {
        for (Ring ring = 0; ring <= kMaxRing; ++ring) {
          const bool c = clean_cpu.ProbeAnswers(kind, 9, ring, ring);
          const bool d = damaged_cpu.ProbeAnswers(kind, 9, ring, ring);
          // Every reference the damaged descriptor answers, the clean one
          // already answered; an absent one answers none.
          EXPECT_TRUE(!d || c) << "kind " << static_cast<int>(kind) << " ring " << unsigned(ring);
          EXPECT_TRUE(!d || damaged.present) << "kind " << static_cast<int>(kind);
          damaged_answers += d;
        }
      }
      // Addressing may only shrink, never grow or move.
      EXPECT_EQ(damaged.base, clean.base);
      EXPECT_LE(damaged.bound, clean.bound);
    }
  }
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(damaged_answers, 0u);
}

}  // namespace
}  // namespace rings
