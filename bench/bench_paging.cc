// Paging ablation: the paper asserts paging is transparent to access
// control and (appropriately implemented) does not change the protection
// story. Measures what the page-table walk costs per reference, and what
// a demand-zero page fault costs end to end (trap + supervisor fill +
// resumed instruction).
//
// The BM_Sum* benchmarks additionally time what the walk costs the
// host: machine construction and assembly stay outside the timed
// region, so paged-vs-unpaged and the engine tiers compare machine.Run()
// alone. The attached sim_* counters are deterministic and gated by
// tools/bench_check.py; the simulated cycle counts are identical at every
// engine tier.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/mem/page_table.h"

namespace rings {
namespace {

// The same summing workload over an unpaged vs paged data segment,
// loaded and started but not yet run.
struct SumRig {
  std::unique_ptr<Machine> machine;
  Process* process = nullptr;
};

SumRig SetupSum(bool paged, bool populate, EngineTier tier) {
  MachineConfig config;
  ApplyTier(tier, &config);
  SumRig rig;
  rig.machine = std::make_unique<Machine>(config);
  Machine& machine = *rig.machine;
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["scratch"] = AccessControlList::Public(MakeDataSegment(4, 4));
  const AccessControlList data_acl = AccessControlList::Public(MakeDataSegment(4, 4));
  if (paged) {
    machine.registry().CreatePagedSegment("data", 4 * kPageWords, data_acl, populate);
  } else {
    machine.registry().CreateSegment("data", 4 * kPageWords, data_acl);
  }
  std::string error;
  if (!machine.LoadProgramSource(R"(
        .segment main
start:  stz   idx,*
loop:   ldx   x1, idx,*
        ldai  3
        sta   pr2|0,x1
        aos   idx,*
        lda   idx,*
        sba   limit
        tmi   loop
        mme   0
limit:  .word 3000
idx:    .its  4, scratch, 0
dp:     .its  4, data, 0

        .segment scratch
        .word 0
)",
                                 acls, &error)) {
    std::fprintf(stderr, "paging bench setup failed: %s\n", error.c_str());
    std::abort();
  }
  rig.process = machine.Login("bench");
  machine.supervisor().InitiateAll(rig.process);
  machine.Start(rig.process, "main", "start", kUserRing);
  // PR2 -> data segment.
  rig.process->saved_regs.pr[2] =
      PointerRegister{kUserRing, machine.registry().Find("data")->segno, 0};
  return rig;
}

RunCost FinishSum(SumRig& rig) {
  rig.machine->Run(1'000'000'000);
  if (rig.process->state != ProcessState::kExited) {
    std::fprintf(stderr, "paging bench killed: %s\n",
                 std::string(TrapCauseName(rig.process->kill_cause)).c_str());
    std::abort();
  }
  return RunCost{rig.machine->cpu().cycles(), rig.machine->cpu().counters()};
}

RunCost RunSum(bool paged, bool populate, EngineTier tier = EngineTier::kBlocks) {
  SumRig rig = SetupSum(paged, populate, tier);
  return FinishSum(rig);
}

void PrintReport() {
  PrintBanner("Paging — transparency and cost",
              "3000 stores across 3 pages of a 4-page data segment.");
  // The ASSERT label above is a no-op statement label; nothing to do.
  const RunCost unpaged = RunSum(false, /*populate=*/true);
  const RunCost pre = RunSum(true, true);
  const RunCost demand = RunSum(true, false);

  std::printf("  configuration          cycles   page walks   faults   pages supplied\n");
  std::printf("  unpaged            %10llu   %10llu   %6llu   %14llu\n",
              static_cast<unsigned long long>(unpaged.cycles),
              static_cast<unsigned long long>(unpaged.counters.page_walks),
              static_cast<unsigned long long>(
                  unpaged.counters.TrapCount(TrapCause::kMissingPage)),
              static_cast<unsigned long long>(unpaged.counters.pages_supplied));
  std::printf("  paged, prefilled   %10llu   %10llu   %6llu   %14llu\n",
              static_cast<unsigned long long>(pre.cycles),
              static_cast<unsigned long long>(pre.counters.page_walks),
              static_cast<unsigned long long>(pre.counters.TrapCount(TrapCause::kMissingPage)),
              static_cast<unsigned long long>(pre.counters.pages_supplied));
  std::printf("  paged, demand-zero %10llu   %10llu   %6llu   %14llu\n",
              static_cast<unsigned long long>(demand.cycles),
              static_cast<unsigned long long>(demand.counters.page_walks),
              static_cast<unsigned long long>(
                  demand.counters.TrapCount(TrapCause::kMissingPage)),
              static_cast<unsigned long long>(demand.counters.pages_supplied));
  std::printf("\n  per-reference walk cost: %.3f cycles; per-fault cost: %.1f cycles\n",
              static_cast<double>(pre.cycles - unpaged.cycles) /
                  static_cast<double>(pre.counters.page_walks),
              pre.counters.pages_supplied == demand.counters.pages_supplied
                  ? 0.0
                  : static_cast<double>(demand.cycles - pre.cycles) /
                        static_cast<double>(demand.counters.pages_supplied));
  std::printf("  access checks: %llu / %llu / %llu — paging adds none except the\n"
              "  re-validation of instructions re-executed after a fault.\n",
              static_cast<unsigned long long>(unpaged.counters.TotalChecks()),
              static_cast<unsigned long long>(pre.counters.TotalChecks()),
              static_cast<unsigned long long>(demand.counters.TotalChecks()));
}

// Host-time cost of one full summing run, machine.Run() only, once per
// engine tier. The sim_* counters come from one extra deterministic run at
// the same tier; tools/bench_check.py gates them, and requires them equal
// across tiers.
void SumLoop(benchmark::State& state, EngineTier tier, bool paged, bool populate) {
  for (auto _ : state) {
    state.PauseTiming();
    SumRig rig = SetupSum(paged, populate, tier);
    state.ResumeTiming();
    rig.machine->Run(1'000'000'000);
    benchmark::DoNotOptimize(rig.machine->cpu().cycles());
    state.PauseTiming();
    if (rig.process->state != ProcessState::kExited) {
      std::fprintf(stderr, "paging bench killed: %s\n",
                   std::string(TrapCauseName(rig.process->kill_cause)).c_str());
      std::abort();
    }
    rig.machine.reset();  // destruction stays untimed too
    state.ResumeTiming();
  }
  const RunCost sim = RunSum(paged, populate, tier);
  state.counters["sim_cycles"] = static_cast<double>(sim.cycles);
  state.counters["sim_page_walks"] = static_cast<double>(sim.counters.page_walks);
  state.counters["sim_checks"] = static_cast<double>(sim.counters.TotalChecks());
  state.counters["sim_pages_supplied"] = static_cast<double>(sim.counters.pages_supplied);
}

void RegisterBenchmarks() {
  const struct {
    const char* name;
    bool paged;
    bool populate;
  } kWorkloads[] = {
      {"BM_SumUnpaged", false, true},
      {"BM_SumPaged", true, true},
      {"BM_SumDemandZero", true, false},
  };
  for (const auto& w : kWorkloads) {
    for (auto* b : RegisterPerEngine(w.name, SumLoop, w.paged, w.populate)) {
      b->Iterations(20)->Unit(benchmark::kMicrosecond);
    }
  }
}

}  // namespace
}  // namespace rings

int main(int argc, char** argv) {
  rings::PrintReport();
  rings::RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
