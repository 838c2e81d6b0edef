// Fleet failure isolation under injected and hand-planted hardware
// faults: a machine that latches kMachineFault (or gets its processes
// killed by seeded fault injection) retires with a structured failure
// while every sibling machine completes normally — and fault-seeded
// fleets are exactly as deterministic across thread counts as healthy
// ones, because each machine owns its injector and RNG stream.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fingerprint.h"
#include "src/fleet/fleet.h"
#include "src/mem/descriptor_segment.h"
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

// The hardening-test recipe: corrupt the victim's SDW base past the end
// of the core store, so the first reference latches a physical fault and
// the machine converts it into kMachineFault against the process.
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

TEST(FleetFault, MachineFaultIsIsolatedToItsMachine) {
  FleetConfig config;
  config.threads = 4;
  config.slice_cycles = 1'000;
  Fleet fleet(config);
  fleet.Add("healthy-0", [] { return MakeCallLoopMachine(MachineConfig{}); });
  fleet.Add("doomed", [] { return MakeDoomedMachine(); });
  fleet.Add("healthy-1", [] { return MakeCallLoopMachine(MachineConfig{}); });
  fleet.Add("healthy-2", [] { return MakeCallLoopMachine(MachineConfig{}); });
  const FleetStats stats = fleet.Run();

  EXPECT_EQ(stats.machines, 4u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 1u);

  const MachineResult& doomed = fleet.results()[1];
  EXPECT_EQ(doomed.outcome, MachineOutcome::kFailed);
  EXPECT_FALSE(doomed.ok());
  EXPECT_EQ(doomed.exit_code, 111);
  EXPECT_NE(doomed.failure.find("machine_fault"), std::string::npos) << doomed.failure;
  EXPECT_EQ(doomed.run.counters.machine_faults, 1u);
  ASSERT_EQ(doomed.run.processes.size(), 1u);
  EXPECT_NE(doomed.run.processes[0].find("state=killed"), std::string::npos);

  for (const size_t sibling : {size_t{0}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE(fleet.results()[sibling].name);
    EXPECT_TRUE(fleet.results()[sibling].ok());
    EXPECT_EQ(fleet.results()[sibling].exit_code, 0);
    EXPECT_EQ(fleet.results()[sibling].run.counters.machine_faults, 0u);
  }
  EXPECT_EQ(fleet.ExitCode(), 111);
}

TEST(FleetFault, SeededInjectionIsDeterministicAcrossThreadCounts) {
  // Each machine owns a fault injector seeded from its index. Whatever an
  // injected fault does to a machine — absorbed by SDW recovery, or fatal
  // — the outcome must be the same fleet-wide at every thread count and
  // standalone.
  const auto add_jobs = [](Fleet* fleet) {
    for (uint64_t i = 0; i < 4; ++i) {
      MachineConfig config;
      config.fault = FaultConfig::Uniform(/*seed=*/0x5eed + i, /*ppm=*/2'000);
      fleet->Add(std::string("seeded-") + std::to_string(i),
                 [config] { return MakeCallLoopMachine(config); });
    }
  };

  std::vector<std::vector<MachineResult>> runs;
  for (const int threads : {1, 4, 8}) {
    FleetConfig config;
    config.threads = threads;
    config.slice_cycles = 1'500;
    Fleet fleet(config);
    add_jobs(&fleet);
    fleet.Run();
    runs.push_back(fleet.results());
  }
  for (size_t run = 1; run < runs.size(); ++run) {
    for (size_t m = 0; m < runs[0].size(); ++m) {
      SCOPED_TRACE(runs[0][m].name);
      EXPECT_TRUE(SameRun(runs[0][m].run, runs[run][m].run));
      EXPECT_EQ(runs[run][m].exit_code, runs[0][m].exit_code);
    }
  }

  // Standalone replay of each seeded machine through one Machine::Run.
  for (uint64_t i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    MachineConfig config;
    config.fault = FaultConfig::Uniform(0x5eed + i, 2'000);
    const std::unique_ptr<Machine> standalone = MakeCallLoopMachine(config);
    ASSERT_NE(standalone, nullptr);
    const RunResult run = standalone->Run(100'000'000);
    EXPECT_TRUE(run.idle);
    EXPECT_FALSE(runs[0][i].run.traps.empty());
    EXPECT_TRUE(SameRun(SignatureOf(*standalone), runs[0][i].run));
  }
}

}  // namespace
}  // namespace rings
