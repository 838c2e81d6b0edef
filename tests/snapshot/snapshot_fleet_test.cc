// Snapshot/restore under the fleet engine: restore-seeded fleets stay
// bit-deterministic across thread counts, crash-consistent checkpointing
// is observation-free, and self-healing restarts an injected-fault
// machine from its last verified checkpoint (while a machine whose doom
// is baked into its state exhausts its restarts and retires cleanly).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fingerprint.h"
#include "src/fleet/fleet.h"
#include "src/mem/descriptor_segment.h"
#include "src/snapshot/snapshot.h"
#include "src/sys/machine.h"
#include "tests/testutil.h"

namespace rings {
namespace {

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
limit:  .word 200
cnt:    .its  4, counter, 0
gptr:   .its  4, target, 0

        .segment counter
        .word 0

        .segment target
        .gates 1
entry:  ret   pr7|0
)";

std::unique_ptr<Machine> MakeCallLoopMachine(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["counter"] = AccessControlList::Public(MakeDataSegment(4, 4));
  acls["target"] = AccessControlList::Public(MakeProcedureSegment(1, 1, 7, 1));
  if (!machine->LoadProgramSource(kCallLoopSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(true);
  Process* p = machine->Login("caller");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "main", "start", kUserRing)) {
    return nullptr;
  }
  return machine;
}

// SDW base corrupted past the end of the core store: the first reference
// latches a physical fault, kMachineFault kills the process. The doom is
// part of the machine's state, so it survives into every checkpoint.
std::unique_ptr<Machine> MakeDoomedMachine() {
  auto machine = std::make_unique<Machine>(MachineConfig{});
  constexpr char kSource[] = R"(
        .segment reader
rstart: lda   vp,*
        mme   0
vp:     .its  4, victim, 0

        .segment victim
        .block 16
)";
  std::map<std::string, AccessControlList> acls;
  acls["reader"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["victim"] = AccessControlList::Public(MakeDataSegment(4, 4));
  if (!machine->LoadProgramSource(kSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(true);
  Process* reader = machine->Login("doomed");
  machine->supervisor().InitiateAll(reader);
  if (!machine->Start(reader, "reader", "rstart", kUserRing)) {
    return nullptr;
  }
  const Segno victim_segno = machine->registry().Find("victim")->segno;
  DescriptorSegment dseg(&machine->memory(), reader->dbr);
  Sdw bad = *dseg.Fetch(victim_segno);
  bad.base = static_cast<AbsAddr>(machine->memory().size()) + 4096;
  dseg.Store(victim_segno, bad);
  return machine;
}

// An injection mix hot enough to kill the call loop quickly — the loop is
// built on indirect references, and a raised ring field on one of its
// indirect words turns the next `lda cnt,*` into a read violation — but
// clean enough that a disarmed replay completes.
FaultConfig FatalInjection(uint64_t seed) {
  FaultConfig config;
  config.enabled = true;
  config.seed = seed;
  config.set_rate(FaultSite::kIndirectRingCorruption, 100'000);
  return config;
}

TEST(SnapshotFleet, RestoreSeededFleetDeterministicAcrossThreadCounts) {
  // One mid-run image, restored by every factory: the fleet continues the
  // trajectory identically at every thread count, and identically to a
  // standalone continuation.
  const MachineConfig config;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  for (int slice = 0; slice < 3; ++slice) {
    live->Run(1'500);
  }
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;

  std::unique_ptr<Machine> standalone = std::make_unique<Machine>(config);
  ASSERT_TRUE(RestoreSnapshot(image, standalone.get(), &error)) << error;
  ASSERT_TRUE(standalone->Run(100'000'000).idle);
  const uint64_t want_fingerprint = FingerprintMachine(*standalone);
  const std::vector<std::string> want_traps = TrapSequence(*standalone);
  ASSERT_FALSE(want_traps.empty());

  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE(threads);
    FleetConfig fleet_config;
    fleet_config.threads = threads;
    fleet_config.slice_cycles = 1'000;
    Fleet fleet(fleet_config);
    for (int m = 0; m < 4; ++m) {
      fleet.Add(std::string("restored-") + std::to_string(m),
                [&image, &config]() -> std::unique_ptr<Machine> {
                  auto machine = std::make_unique<Machine>(config);
                  std::string restore_error;
                  if (!machine->ok() ||
                      !RestoreSnapshot(image, machine.get(), &restore_error)) {
                    return nullptr;
                  }
                  return machine;
                });
    }
    const FleetStats stats = fleet.Run();
    EXPECT_EQ(stats.completed, 4u) << stats.ToString();
    for (const MachineResult& result : fleet.results()) {
      EXPECT_EQ(result.run.fingerprint, want_fingerprint) << result.ToString();
      EXPECT_EQ(result.run.traps, want_traps);
      EXPECT_EQ(result.exit_code, 0);
    }
  }
}

TEST(SnapshotFleet, CheckpointingIsObservationFree) {
  // Checkpointing must never perturb a machine's trajectory (snapshot
  // fault sites at rate zero consume no randomness, serialization reads
  // const state): results with and without checkpointing are identical.
  std::vector<MachineResult> baseline;
  std::vector<MachineResult> checkpointed;
  for (const uint64_t every : {uint64_t{0}, uint64_t{2}}) {
    FleetConfig config;
    config.threads = 4;
    config.slice_cycles = 1'000;
    config.checkpoint_every_quanta = every;
    Fleet fleet(config);
    for (uint64_t i = 0; i < 3; ++i) {
      MachineConfig machine_config;
      machine_config.fault = FaultConfig::Uniform(/*seed=*/0x5eed + i, /*ppm=*/2'000);
      fleet.Add(std::string("m") + std::to_string(i),
                [machine_config] { return MakeCallLoopMachine(machine_config); });
    }
    fleet.Run();
    (every == 0 ? baseline : checkpointed) = fleet.results();
  }
  ASSERT_EQ(baseline.size(), checkpointed.size());
  for (size_t m = 0; m < baseline.size(); ++m) {
    SCOPED_TRACE(baseline[m].name);
    EXPECT_TRUE(SameRun(baseline[m].run, checkpointed[m].run));
    EXPECT_EQ(checkpointed[m].exit_code, baseline[m].exit_code);
    EXPECT_EQ(checkpointed[m].restarts, 0);
  }
}

TEST(SnapshotFleet, SelfHealingRecoversInjectedFaultMachine) {
  // First establish that the injection mix is fatal without healing.
  {
    MachineConfig config;
    config.fault = FatalInjection(/*seed=*/0xDEAD);
    std::unique_ptr<Machine> victim = MakeCallLoopMachine(config);
    ASSERT_NE(victim, nullptr);
    ASSERT_TRUE(victim->Run(100'000'000).idle);
    bool killed = false;
    for (const auto& process : victim->supervisor().processes()) {
      killed = killed || process->state == ProcessState::kKilled;
    }
    ASSERT_TRUE(killed) << "injection mix no longer kills the guest; retune the test";
  }

  // With checkpointing and restarts, the same machine completes: the
  // restart disarms the injector (the transient fault was repaired) and
  // replays from the last verified checkpoint.
  std::vector<MachineResult> first_run;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    FleetConfig fleet_config;
    fleet_config.threads = threads;
    fleet_config.slice_cycles = 1'000;
    fleet_config.checkpoint_every_quanta = 1;
    fleet_config.max_restarts = 3;
    Fleet fleet(fleet_config);
    fleet.Add("victim", [] {
      MachineConfig config;
      config.fault = FatalInjection(/*seed=*/0xDEAD);
      return MakeCallLoopMachine(config);
    });
    fleet.Add("healthy", [] { return MakeCallLoopMachine(MachineConfig{}); });
    const FleetStats stats = fleet.Run();

    const MachineResult& victim = fleet.results()[0];
    EXPECT_EQ(victim.outcome, MachineOutcome::kCompleted) << victim.ToString();
    EXPECT_GE(victim.restarts, 1) << victim.ToString();
    EXPECT_TRUE(victim.recovered);
    EXPECT_EQ(victim.exit_code, 0);
    EXPECT_TRUE(fleet.results()[1].ok());
    EXPECT_EQ(fleet.results()[1].restarts, 0);
    EXPECT_FALSE(fleet.results()[1].recovered);
    EXPECT_GE(stats.restarts, 1u);
    EXPECT_EQ(stats.recovered, 1u);
    EXPECT_EQ(fleet.ExitCode(), 0);

    // Recovery itself is deterministic and thread-count invariant.
    if (first_run.empty()) {
      first_run = fleet.results();
    } else {
      for (size_t m = 0; m < first_run.size(); ++m) {
        EXPECT_TRUE(SameRun(first_run[m].run, fleet.results()[m].run));
        EXPECT_EQ(fleet.results()[m].restarts, first_run[m].restarts);
      }
    }
  }
}

TEST(SnapshotFleet, UnrecoverableMachineExhaustsRestartsAndRetires) {
  // The doomed machine's corruption lives in its architectural state, so
  // every checkpoint carries it: restarts replay the same death until the
  // budget runs out, then the machine retires as failed while its
  // sibling completes.
  FleetConfig fleet_config;
  fleet_config.threads = 2;
  fleet_config.slice_cycles = 1'000;
  fleet_config.checkpoint_every_quanta = 1;
  fleet_config.max_restarts = 2;
  Fleet fleet(fleet_config);
  fleet.Add("doomed", [] { return MakeDoomedMachine(); });
  fleet.Add("healthy", [] { return MakeCallLoopMachine(MachineConfig{}); });
  const FleetStats stats = fleet.Run();

  const MachineResult& doomed = fleet.results()[0];
  EXPECT_EQ(doomed.outcome, MachineOutcome::kFailed) << doomed.ToString();
  EXPECT_EQ(doomed.restarts, 2);
  EXPECT_FALSE(doomed.recovered);
  EXPECT_EQ(doomed.exit_code, 111);
  EXPECT_NE(doomed.failure.find("machine_fault"), std::string::npos) << doomed.failure;
  EXPECT_TRUE(fleet.results()[1].ok());
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.restarts, 2u);
  EXPECT_EQ(stats.recovered, 0u);
  EXPECT_EQ(fleet.ExitCode(), 111);
}

TEST(SnapshotFleet, NoCheckpointMeansNoRestart) {
  // max_restarts alone is not enough: without a checkpoint there is
  // nothing to restart from, and the failure retires the machine exactly
  // as before self-healing existed.
  FleetConfig fleet_config;
  fleet_config.max_restarts = 3;  // checkpoint_every_quanta stays 0
  Fleet fleet(fleet_config);
  fleet.Add("doomed", [] { return MakeDoomedMachine(); });
  fleet.Run();
  const MachineResult& doomed = fleet.results()[0];
  EXPECT_EQ(doomed.outcome, MachineOutcome::kFailed);
  EXPECT_EQ(doomed.restarts, 0);
  EXPECT_EQ(doomed.exit_code, 111);
}

}  // namespace
}  // namespace rings
