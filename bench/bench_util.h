// Shared benchmark utilities: guest workload generators and simulated-
// cycle cost measurement for ring crossings on both machines.
//
// Methodology: every cost is measured differentially. A workload loop is
// run twice — once with the operation under test and once with it
// replaced by NOPs — and the per-iteration difference in *simulated
// cycles* (and instructions, checks, supervisor steps) is reported. Wall-
// clock time of the simulator is measured separately by google-benchmark
// and is not the reproduction target; the cycle counts are.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/b645/b645_machine.h"
#include "src/base/strings.h"
#include "src/cpu/cpu.h"
#include "src/sys/machine.h"

namespace rings {

inline constexpr int kBenchIterations = 2000;

// Every gated benchmark is registered once per engine tier (kEngineTiers,
// src/cpu/cpu.h), named with the tier's suffix below; none may change
// what the simulated machine does. tools/bench_check.py requires
// benchmarks whose names differ only in the suffix to report identical
// sim_* counters (sim_tlb_hits aside: the reference tier has no software
// TLB and reports 0).
constexpr const char* BenchSuffix(EngineTier tier) {
  switch (tier) {
    case EngineTier::kBlocks:
      return "";
    case EngineTier::kCached:
      return "_NoBlockEngine";
    case EngineTier::kReference:
      return "_NoFastPath";
  }
  return "?";
}

// Registers `run(state, tier, args...)` once per engine tier, named `name`
// plus the tier's suffix; returns the registrations so the caller can set
// their arguments, iterations and units.
template <class Run, class... Args>
auto RegisterPerEngine(const std::string& name, Run run, Args... args) {
  std::vector<benchmark::internal::Benchmark*> registered;
  for (const EngineTier tier : kEngineTiers) {
    const std::string tier_name = name + BenchSuffix(tier);
    registered.push_back(benchmark::RegisterBenchmark(tier_name.c_str(), run, tier, args...));
  }
  return registered;
}

struct PerCallCost {
  double cycles = 0;
  double instructions = 0;
  double checks = 0;
  double supervisor_steps = 0;
  double traps = 0;
};

// --- hardware machine workloads -------------------------------------------

// Guest source: a loop that performs `epp/call` into a gated target
// `iters` times. The callee touches `nargs` arguments through the
// argument list and returns. When `with_call` is false the crossing
// sequence is replaced by NOPs (the differential baseline).
inline std::string HardwareCallSource(Ring caller, int nargs, bool with_call, int iters) {
  std::string body;
  if (with_call) {
    body = "        epp   pr2, gptr,*\n        call  pr2|0\n";
  } else {
    body = "        nop\n        nop\n";
  }
  std::string callee;
  for (int i = 0; i < nargs; ++i) {
    callee += StrFormat("        lda   pr1|%d,*\n", i + 1);
  }
  std::string arglist = StrFormat("args:   .word %d\n", nargs);
  for (int i = 0; i < nargs; ++i) {
    arglist += StrFormat("        .its  %u, argdata, %d\n", caller, i);
  }
  for (int i = 0; i < nargs; ++i) {
    arglist += "        .word 1\n";
  }
  return StrFormat(R"(
        .segment main
start:  epp   pr1, args
loop:
%s
        aos   cnt,*
        lda   cnt,*
        sba   limit
        tmi   loop
        mme   0
limit:  .word %d
cnt:    .its  %u, counter, 0
gptr:   .its  %u, target, 0
%s
        .segment counter
        .word 0

        .segment argdata
        .block %d

        .segment target
        .gates 1
entry:
%s
        ret   pr7|0
)",
                   body.c_str(), iters, caller, caller, arglist.c_str(), nargs > 0 ? nargs : 1,
                   callee.c_str());
}

// Runs the source on a fresh hardware machine; returns the counters and
// cycles consumed. Aborts on setup failure or unexpected kill.
struct RunCost {
  uint64_t cycles = 0;
  Counters counters;
};

// A loaded, started (but not yet run) hardware machine plus its process —
// lets benchmarks keep construction and assembly outside the timed region.
struct HardwareRig {
  std::unique_ptr<Machine> machine;
  Process* process = nullptr;
};

inline HardwareRig SetupHardware(const std::string& source, Ring caller,
                                 const SegmentAccess& target,
                                 const MachineConfig& config = MachineConfig{}) {
  HardwareRig rig;
  rig.machine = std::make_unique<Machine>(config);
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(caller, caller));
  acls["counter"] = AccessControlList::Public(MakeDataSegment(caller, caller));
  acls["argdata"] = AccessControlList::Public(MakeDataSegment(caller, caller));
  acls["target"] = AccessControlList::Public(target);
  std::string error;
  if (!rig.machine->LoadProgramSource(source, acls, &error)) {
    std::fprintf(stderr, "bench setup failed: %s\n", error.c_str());
    std::abort();
  }
  rig.process = rig.machine->Login("bench");
  rig.machine->supervisor().InitiateAll(rig.process);
  rig.machine->Start(rig.process, "main", "start", caller);
  return rig;
}

inline RunCost RunHardware(const std::string& source, Ring caller, const SegmentAccess& target,
                           const MachineConfig& config = MachineConfig{}) {
  HardwareRig rig = SetupHardware(source, caller, target, config);
  rig.machine->Run(2'000'000'000);
  if (rig.process->state != ProcessState::kExited) {
    std::fprintf(stderr, "bench workload killed: %s at %u|%u\n",
                 std::string(TrapCauseName(rig.process->kill_cause)).c_str(),
                 rig.process->kill_pc.segno, rig.process->kill_pc.wordno);
    std::abort();
  }
  return RunCost{rig.machine->cpu().cycles(), rig.machine->cpu().counters()};
}

// Differential cost of one epp+call+callee+return sequence on the ring
// hardware.
inline PerCallCost MeasureHardwareCrossing(Ring caller, const SegmentAccess& target,
                                           int nargs = 0, int iters = kBenchIterations,
                                           const MachineConfig& config = MachineConfig{}) {
  const RunCost with =
      RunHardware(HardwareCallSource(caller, nargs, true, iters), caller, target, config);
  const RunCost without =
      RunHardware(HardwareCallSource(caller, nargs, false, iters), caller, target, config);
  PerCallCost cost;
  cost.cycles = static_cast<double>(with.cycles - without.cycles) / iters;
  cost.instructions =
      static_cast<double>(with.counters.instructions - without.counters.instructions) / iters;
  cost.checks =
      static_cast<double>(with.counters.TotalChecks() - without.counters.TotalChecks()) / iters;
  cost.supervisor_steps =
      static_cast<double>(with.counters.supervisor_steps - without.counters.supervisor_steps) /
      iters;
  cost.traps = static_cast<double>(with.counters.TotalTraps() - without.counters.TotalTraps()) /
               iters;
  return cost;
}

// --- 645 baseline workloads ------------------------------------------------

inline std::string B645CallSource(int nargs, bool with_call, int iters) {
  std::string body;
  if (with_call) {
    body = "        ldq   tgtword\n        mme   1\n";
  } else {
    body = "        nop\n        nop\n";
  }
  std::string callee;
  for (int i = 0; i < nargs; ++i) {
    callee += StrFormat("        lda   pr1|%d,*\n", i + 1);
  }
  std::string arglist = StrFormat("args:   .word %d\n", nargs);
  for (int i = 0; i < nargs; ++i) {
    arglist += StrFormat("        .its  0, argdata, %d\n", i);
  }
  for (int i = 0; i < nargs; ++i) {
    arglist += "        .word 1\n";
  }
  return StrFormat(R"(
        .segment main
start:  epp   pr1, args
loop:
%s
        aos   cnt,*
        lda   cnt,*
        sba   limit
        tmi   loop
        mme   0
limit:  .word %d
cnt:    .its  0, counter, 0
tgtword: .word 0
%s
        .segment counter
        .word 0

        .segment argdata
        .block %d

        .segment target
        .gates 1
entry:
%s
        mme   2
)",
                   body.c_str(), iters, arglist.c_str(), nargs > 0 ? nargs : 1, callee.c_str());
}

inline RunCost Run645(const std::string& source, Ring caller, const SegmentAccess& target) {
  B645Machine machine;
  std::map<std::string, SegmentAccess> specs;
  specs["main"] = MakeProcedureSegment(caller, caller);
  specs["counter"] = MakeDataSegment(caller, caller);
  specs["argdata"] = MakeDataSegment(caller, caller);
  specs["target"] = target;
  std::string error;
  if (!machine.LoadProgramSource(source, specs, &error)) {
    std::fprintf(stderr, "645 bench setup failed: %s\n", error.c_str());
    std::abort();
  }
  const Segno tgt = machine.registry().Find("target")->segno;
  machine.Start("main", "start", caller);
  // Patch the packed crossing target (tgtword is the word labelled
  // `tgtword` in main).
  const auto addr = machine.registry().Find("main")->symbols.at("tgtword");
  machine.PokeWordForTest("main", addr, PackB645Target(tgt, 0));
  machine.Run(2'000'000'000);
  if (!machine.exited()) {
    std::fprintf(stderr, "645 bench workload killed: %s\n",
                 std::string(TrapCauseName(machine.kill_cause())).c_str());
    std::abort();
  }
  return RunCost{machine.cpu().cycles(), machine.cpu().counters()};
}

inline PerCallCost Measure645Crossing(Ring caller, const SegmentAccess& target, int nargs = 0,
                                      int iters = kBenchIterations) {
  const RunCost with = Run645(B645CallSource(nargs, true, iters), caller, target);
  const RunCost without = Run645(B645CallSource(nargs, false, iters), caller, target);
  PerCallCost cost;
  cost.cycles = static_cast<double>(with.cycles - without.cycles) / iters;
  cost.instructions =
      static_cast<double>(with.counters.instructions - without.counters.instructions) / iters;
  cost.checks =
      static_cast<double>(with.counters.TotalChecks() - without.counters.TotalChecks()) / iters;
  cost.supervisor_steps =
      static_cast<double>(with.counters.supervisor_steps - without.counters.supervisor_steps) /
      iters;
  cost.traps = static_cast<double>(with.counters.TotalTraps() - without.counters.TotalTraps()) /
               iters;
  return cost;
}

// --- report helpers ---------------------------------------------------------

inline void PrintBanner(const char* experiment, const char* description) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", experiment, description);
  std::printf("================================================================\n");
}

}  // namespace rings

#endif  // BENCH_BENCH_UTIL_H_
