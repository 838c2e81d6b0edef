// Fleet engine determinism and bookkeeping. The headline assertions: a
// machine's final fingerprint, counters, and trap sequence are
// bit-identical whether the fleet runs on 1, 4, or 8 worker threads, and
// identical again to the same machine run standalone through a single
// Machine::Run call; and the fleet's structured results (outcome, exit
// code, aggregate stats) are faithful.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/fleet/fingerprint.h"
#include "src/fleet/fleet.h"
#include "src/mem/page_table.h"
#include "src/sys/machine.h"

namespace rings {
namespace {

// --- terminating guest workloads -------------------------------------------

// Gate-crossing loop: `iters` downward calls through a ring-1 gate, then
// a clean exit with A == 0.
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
limit:  .word 300
cnt:    .its  4, counter, 0
gptr:   .its  4, target, 0

        .segment counter
        .word 0

        .segment target
        .gates 1
entry:  ret   pr7|0
)";

std::unique_ptr<Machine> MakeCallLoopMachine(bool enable_trace) {
  auto machine = std::make_unique<Machine>(MachineConfig{});
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["counter"] = AccessControlList::Public(MakeDataSegment(4, 4));
  acls["target"] = AccessControlList::Public(MakeProcedureSegment(1, 1, 7, 1));
  if (!machine->LoadProgramSource(kCallLoopSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(enable_trace);
  Process* p = machine->Login("caller");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "main", "start", kUserRing)) {
    return nullptr;
  }
  return machine;
}

// Demand-paged counter: pounds two pages of an initially absent paged
// segment (every fill is a supervisor service), then exits with A == 0.
constexpr char kPagerSource[] = R"(
        .segment pager
pstart: aos   cnt,*
        lda   far,*
        adai  1
        sta   far,*
        lda   cnt,*
        sba   plim
        tmi   pstart
        mme   0
plim:   .word 400
cnt:    .its  4, bigdata, 10
far:    .its  4, bigdata, 1034
)";

std::unique_ptr<Machine> MakePagerMachine(bool enable_trace) {
  auto machine = std::make_unique<Machine>(MachineConfig{});
  if (!machine->registry()
           .CreatePagedSegment("bigdata", 2 * kPageWords,
                               AccessControlList::Public(MakeDataSegment(4, 4)),
                               /*populate=*/false)
           .has_value()) {
    return nullptr;
  }
  std::map<std::string, AccessControlList> acls;
  acls["pager"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  if (!machine->LoadProgramSource(kPagerSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(enable_trace);
  Process* p = machine->Login("pager");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "pager", "pstart", kUserRing)) {
    return nullptr;
  }
  return machine;
}

// Two processes time-slicing inside one machine, so per-machine
// scheduling and timer-runout traps are exercised under the fleet.
constexpr char kPairSource[] = R"(
        .segment spin
sstart: aos   scnt,*
        lda   scnt,*
        sba   slim
        tmi   sstart
        mme   0
slim:   .word 600
scnt:   .its  4, shared, 0

        .segment walk
wstart: aos   wcnt,*
        lda   wcnt,*
        sba   wlim
        tmi   wstart
        mme   0
wlim:   .word 500
wcnt:   .its  4, shared, 1

        .segment shared
        .block 2
)";

std::unique_ptr<Machine> MakePairMachine(bool enable_trace) {
  MachineConfig config;
  config.quantum = 300;  // frequent timer runouts
  auto machine = std::make_unique<Machine>(config);
  std::map<std::string, AccessControlList> acls;
  acls["spin"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["walk"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["shared"] = AccessControlList::Public(MakeDataSegment(4, 4));
  if (!machine->LoadProgramSource(kPairSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(enable_trace);
  const struct {
    const char* segment;
    const char* entry;
  } kStarts[] = {{"spin", "sstart"}, {"walk", "wstart"}};
  for (const auto& s : kStarts) {
    Process* p = machine->Login(s.segment);
    machine->supervisor().InitiateAll(p);
    if (!machine->Start(p, s.segment, s.entry, kUserRing)) {
      return nullptr;
    }
  }
  return machine;
}

// The mixed six-machine fleet every determinism test runs.
void AddMixedJobs(Fleet* fleet, bool enable_trace) {
  fleet->Add("call-a", [enable_trace] { return MakeCallLoopMachine(enable_trace); });
  fleet->Add("pager-a", [enable_trace] { return MakePagerMachine(enable_trace); });
  fleet->Add("pair-a", [enable_trace] { return MakePairMachine(enable_trace); });
  fleet->Add("call-b", [enable_trace] { return MakeCallLoopMachine(enable_trace); });
  fleet->Add("pager-b", [enable_trace] { return MakePagerMachine(enable_trace); });
  fleet->Add("pair-b", [enable_trace] { return MakePairMachine(enable_trace); });
}

void ExpectCountersIdentical(const Counters& a, const Counters& b, bool include_host_only) {
  Counters::ForEachField(
      [&a, &b, include_host_only](const char* name, uint64_t Counters::* member,
                                  bool host_only) {
        if (host_only && !include_host_only) {
          return;
        }
        // Shared-decode build attribution is first-acquirer-wins in the
        // process-wide registry: which of two machines running the same
        // program pays the build depends on worker scheduling. The fleet
        // AGGREGATE build count is deterministic (one per distinct live
        // program); the per-machine split is the one host counter that
        // is not, so it is the one exclusion here.
        if (std::string_view(name) == "shared_decode_builds") {
          return;
        }
        EXPECT_EQ(a.*member, b.*member) << "counter " << name;
      });
  for (size_t i = 0; i < a.traps.size(); ++i) {
    EXPECT_EQ(a.traps[i], b.traps[i])
        << "trap count for " << TrapCauseName(static_cast<TrapCause>(i));
  }
}

// ---------------------------------------------------------------------------

TEST(Fleet, DeterministicAcrossThreadCounts) {
  std::vector<std::vector<MachineResult>> runs;
  for (const int threads : {1, 4, 8}) {
    FleetConfig config;
    config.threads = threads;
    config.slice_cycles = 2'000;  // many quanta per machine, lots of interleaving
    Fleet fleet(config);
    AddMixedJobs(&fleet, /*enable_trace=*/true);
    const FleetStats stats = fleet.Run();
    EXPECT_EQ(stats.completed, fleet.size()) << stats.ToString();
    runs.push_back(fleet.results());
  }
  for (size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (size_t m = 0; m < runs[0].size(); ++m) {
      SCOPED_TRACE(runs[0][m].name);
      // The whole simulated face — including host-only cache statistics,
      // because the quantum sequence is identical no matter which worker
      // runs each slice.
      EXPECT_EQ(runs[run][m].fingerprint, runs[0][m].fingerprint);
      EXPECT_EQ(runs[run][m].cycles, runs[0][m].cycles);
      EXPECT_EQ(runs[run][m].instructions, runs[0][m].instructions);
      EXPECT_EQ(runs[run][m].exit_code, runs[0][m].exit_code);
      EXPECT_EQ(runs[run][m].quanta, runs[0][m].quanta);
      EXPECT_EQ(runs[run][m].process_status, runs[0][m].process_status);
      EXPECT_EQ(runs[run][m].tty, runs[0][m].tty);
      EXPECT_FALSE(runs[0][m].traps.empty());
      EXPECT_EQ(runs[run][m].traps, runs[0][m].traps);
      ExpectCountersIdentical(runs[run][m].counters, runs[0][m].counters,
                              /*include_host_only=*/true);
    }
  }
}

TEST(Fleet, MatchesStandaloneMachineRun) {
  FleetConfig config;
  config.threads = 4;
  config.slice_cycles = 3'000;
  Fleet fleet(config);
  AddMixedJobs(&fleet, /*enable_trace=*/true);
  const FleetStats stats = fleet.Run();
  ASSERT_EQ(stats.completed, fleet.size()) << stats.ToString();

  std::unique_ptr<Machine> (*const factories[])(bool) = {
      MakeCallLoopMachine, MakePagerMachine, MakePairMachine,
      MakeCallLoopMachine, MakePagerMachine, MakePairMachine,
  };
  for (size_t m = 0; m < fleet.results().size(); ++m) {
    SCOPED_TRACE(fleet.results()[m].name);
    const std::unique_ptr<Machine> standalone = factories[m](/*enable_trace=*/true);
    ASSERT_NE(standalone, nullptr);
    const RunResult run = standalone->Run(100'000'000);
    EXPECT_TRUE(run.idle);
    // Architectural identity is exact. (Host-only cache statistics may
    // legally differ: the fleet's slice boundaries bail superblocks the
    // uninterrupted standalone run commits.)
    EXPECT_EQ(fleet.results()[m].fingerprint, FingerprintMachine(*standalone));
    EXPECT_FALSE(fleet.results()[m].traps.empty());
    EXPECT_EQ(fleet.results()[m].traps, TrapSequence(*standalone));
    EXPECT_EQ(fleet.results()[m].cycles, standalone->cpu().cycles());
    EXPECT_EQ(fleet.results()[m].instructions, standalone->cpu().counters().instructions);
    ExpectCountersIdentical(fleet.results()[m].counters, standalone->cpu().counters(),
                            /*include_host_only=*/false);
  }
}

TEST(Fleet, AggregateStatsAreFaithful) {
  FleetConfig config;
  config.threads = 4;
  Fleet fleet(config);
  AddMixedJobs(&fleet, /*enable_trace=*/false);
  const FleetStats stats = fleet.Run();

  EXPECT_EQ(stats.machines, fleet.size());
  EXPECT_EQ(stats.completed, fleet.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.budget_exhausted, 0u);
  EXPECT_EQ(fleet.ExitCode(), 0);

  uint64_t instructions = 0;
  uint64_t cycles = 0;
  uint64_t quanta = 0;
  for (const MachineResult& result : fleet.results()) {
    EXPECT_TRUE(result.ok()) << result.ToString();
    EXPECT_TRUE(result.traps.empty());  // untraced machines record none
    instructions += result.instructions;
    cycles += result.cycles;
    quanta += result.quanta;
  }
  EXPECT_EQ(stats.total_instructions, instructions);
  EXPECT_EQ(stats.total_cycles, cycles);
  EXPECT_EQ(stats.aggregate.instructions, instructions);
  EXPECT_GT(stats.total_instructions, 0u);
  EXPECT_GT(stats.instructions_per_second, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);

  ASSERT_EQ(stats.workers.size(), 4u);
  uint64_t worker_quanta = 0;
  for (const WorkerStats& w : stats.workers) {
    worker_quanta += w.quanta;
  }
  EXPECT_EQ(worker_quanta, quanta);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(Fleet, NonzeroGuestExitCodePropagates) {
  Fleet fleet(FleetConfig{});
  fleet.Add("exits-seven", [] {
    auto machine = std::make_unique<Machine>(MachineConfig{});
    std::map<std::string, AccessControlList> acls;
    acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
    if (!machine->LoadProgramSource(R"(
        .segment main
start:  ldai  7
        mme   0
)",
                                    acls)) {
      return std::unique_ptr<Machine>();
    }
    Process* p = machine->Login("seven");
    machine->supervisor().InitiateAll(p);
    machine->Start(p, "main", "start", kUserRing);
    return machine;
  });
  fleet.Add("exits-zero", [] { return MakeCallLoopMachine(false); });
  fleet.Run();

  // A clean exit with a nonzero code is a *completed* machine but a
  // nonzero fleet exit status — exactly like a Unix process.
  EXPECT_TRUE(fleet.results()[0].ok());
  EXPECT_EQ(fleet.results()[0].exit_code, 7);
  EXPECT_EQ(fleet.results()[1].exit_code, 0);
  EXPECT_EQ(fleet.ExitCode(), 7);
}

TEST(Fleet, BudgetExhaustionRetiresWithNonzeroStatus) {
  Fleet fleet(FleetConfig{});
  FleetJob job;
  job.name = "spinner";
  job.max_cycles = 20'000;  // far less than the infinite loop wants
  job.factory = [] {
    auto machine = std::make_unique<Machine>(MachineConfig{});
    std::map<std::string, AccessControlList> acls;
    acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
    if (!machine->LoadProgramSource(R"(
        .segment main
start:  tra   start
)",
                                    acls)) {
      return std::unique_ptr<Machine>();
    }
    Process* p = machine->Login("spin");
    machine->supervisor().InitiateAll(p);
    machine->Start(p, "main", "start", kUserRing);
    return machine;
  };
  fleet.Add(std::move(job));
  const FleetStats stats = fleet.Run();

  EXPECT_EQ(stats.budget_exhausted, 1u);
  const MachineResult& result = fleet.results()[0];
  EXPECT_EQ(result.outcome, MachineOutcome::kBudgetExhausted);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.exit_code, 111);
  EXPECT_GE(result.cycles, 20'000u);
  EXPECT_NE(fleet.ExitCode(), 0);
}

TEST(Fleet, ConstructionFailureIsIsolated) {
  FleetConfig config;
  config.threads = 2;
  Fleet fleet(config);
  fleet.Add("stillborn", [] { return std::unique_ptr<Machine>(); });
  fleet.Add("healthy", [] { return MakeCallLoopMachine(false); });
  const FleetStats stats = fleet.Run();

  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(fleet.results()[0].outcome, MachineOutcome::kFailed);
  EXPECT_EQ(fleet.results()[0].failure, "machine construction failed");
  EXPECT_EQ(fleet.results()[0].exit_code, 111);
  EXPECT_TRUE(fleet.results()[1].ok());
  EXPECT_EQ(fleet.ExitCode(), 111);
}

}  // namespace
}  // namespace rings
