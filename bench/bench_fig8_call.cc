// Experiment F8 — Figure 8: the CALL instruction.
//
// Reports the differential cost (cycles, instructions, traps, supervisor
// steps) of one complete epp+CALL+callee+RETURN sequence on the ring
// hardware, by caller ring and target bracket shape: same-ring calls,
// downward calls across 1..7 rings, and (for contrast) the upward call
// that needs supervisor emulation. The headline: downward and same-ring
// calls cost the same and involve the supervisor not at all.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace rings {
namespace {

void PrintReport() {
  PrintBanner("F8 — Figure 8: CALL, by ring distance",
              "Differential cost of one epp+CALL+RET round trip. Downward calls\n"
              "through gates cost the same as same-ring calls; only the upward\n"
              "call traps to supervisor software.");

  std::printf("  scenario                          cycles  instructions   traps  sup-steps\n");

  // Same-ring call: caller ring 4, target bracket [4,4].
  {
    const PerCallCost c = MeasureHardwareCrossing(4, MakeProcedureSegment(4, 4, 4, 1));
    std::printf("  same-ring    (4 -> 4)           %8.2f  %12.2f  %6.2f  %9.2f\n", c.cycles,
                c.instructions, c.traps, c.supervisor_steps);
  }
  // Downward calls of increasing distance: caller ring 4 or 7 into lower
  // execute brackets with gate extensions reaching the caller.
  for (const int target : {3, 2, 1, 0}) {
    const PerCallCost c = MeasureHardwareCrossing(
        4, MakeProcedureSegment(static_cast<Ring>(target), static_cast<Ring>(target), 7, 1));
    std::printf("  downward     (4 -> %d)           %8.2f  %12.2f  %6.2f  %9.2f\n", target,
                c.cycles, c.instructions, c.traps, c.supervisor_steps);
  }
  {
    const PerCallCost c = MeasureHardwareCrossing(7, MakeProcedureSegment(0, 0, 7, 1));
    std::printf("  downward     (7 -> 0)           %8.2f  %12.2f  %6.2f  %9.2f\n", c.cycles,
                c.instructions, c.traps, c.supervisor_steps);
  }
  // Upward call: caller ring 4, target bracket [6,6] — the trap case.
  {
    const PerCallCost c = MeasureHardwareCrossing(4, MakeProcedureSegment(6, 6, 6, 1));
    std::printf("  upward       (4 -> 6, trapped)  %8.2f  %12.2f  %6.2f  %9.2f\n", c.cycles,
                c.instructions, c.traps, c.supervisor_steps);
  }

  std::printf("\n  note: the gate check is a single comparison of the target word\n"
              "  number against the SDW.GATE count ('the list of gate locations of\n"
              "  a segment is compressed to a single length field'), so its cost is\n"
              "  independent of how many gates a segment declares.\n");
}

constexpr int kCrossingsPerRun = 2000;

// The timed guest: the tightest crossing loop the ISA expresses — one
// downward CALL into a gated target that returns immediately, with the
// loop count held in the accumulator (no memory indirection in the loop).
// The host times then weigh the Figure 8 crossing machinery itself;
// argument passing and effective-address chasing have their own
// experiments (bench_argval, bench_paging).
std::string CrossingLoopSource(int iters) {
  return StrFormat(R"(
        .segment main
start:  epp   pr2, gptr,*
        lda   limit
loop:   call  pr2|0
        sba   one
        tnz   loop
        mme   0
limit:  .word %d
one:    .word 1
gptr:   .its  4, target, 0

        .segment target
        .gates 1
entry:  ret   pr7|0
)",
                   iters);
}

// Host-time throughput of simulated downward call round trips, once per
// engine row. Machine construction, assembly, and login stay outside the
// timed region: the measurement is machine.Run() alone. The sim_*
// counters are the differential crossing cost measured at the same row;
// tools/bench_check.py gates them, and requires them equal across rows.
void DownwardCallRoundTrip(benchmark::State& state, const EngineRow& row) {
  const std::string source = CrossingLoopSource(kCrossingsPerRun);
  const SegmentAccess target = MakeProcedureSegment(1, 1, 7, 1);
  MachineConfig config;
  ApplyEngine(row, &config);
  Counters last;
  for (auto _ : state) {
    state.PauseTiming();
    HardwareRig rig = SetupHardware(source, 4, target, config);
    state.ResumeTiming();
    rig.machine->Run(2'000'000'000);
    benchmark::DoNotOptimize(rig.machine->cpu().cycles());
    state.PauseTiming();
    if (rig.process->state != ProcessState::kExited) {
      std::fprintf(stderr, "bench workload killed: %s\n",
                   std::string(TrapCauseName(rig.process->kill_cause)).c_str());
      std::abort();
    }
    last = rig.machine->cpu().counters();
    rig.machine.reset();  // destruction stays untimed too
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * kCrossingsPerRun);
  const PerCallCost c = MeasureHardwareCrossing(4, target, 0, kBenchIterations, config);
  state.counters["sim_cycles_per_call"] = c.cycles;
  state.counters["sim_instructions_per_call"] = c.instructions;
  state.counters["sim_checks_per_call"] = c.checks;
  // Host-only effectiveness counters from the last run (identical every
  // run — the workload is deterministic); excluded from the fingerprint
  // and from bench_check's sim gate.
  state.counters["chain_follows"] = static_cast<double>(last.chain_follows);
  state.counters["crossing_hits"] = static_cast<double>(last.crossing_hits);
}

void RegisterBenchmarks() {
  for (auto* b : RegisterPerEngine("BM_DownwardCallRoundTrip", DownwardCallRoundTrip)) {
    b->Iterations(20)->Unit(benchmark::kMillisecond);
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
