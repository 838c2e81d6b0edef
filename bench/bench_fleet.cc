// Experiment FL — the fleet engine: aggregate simulated throughput of N
// independent machines scheduled across host worker threads.
//
// The workload is a mixed twelve-machine fleet — gate-crossing call
// loops (the Figure 8 workload), library-structured protected-directory
// searches (the file-search workload), and demand-paged counters — run
// to completion at 1, 2, 4, and 8 worker threads under every engine tier.
// Every machine's final state is bit-identical at every thread count (the
// fleet determinism contract) and every tier, so all sim_* counters below
// are invariant across both and gated exactly by tools/bench_check.py;
// only host time and the aggregate instructions-per-second vary.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include "bench/bench_util.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/fleet.h"
#include "src/mem/page_table.h"

namespace rings {
namespace {

// Small machines: the fleet holds all members live at once, so the bench
// keeps each core store at 2^18 words rather than the 2^22 default.
MachineConfig FleetMachineConfig(EngineTier tier = EngineTier::kBlocks) {
  MachineConfig config;
  config.memory_words = size_t{1} << 18;
  ApplyTier(tier, &config);
  return config;
}

// Peak resident set of the whole process so far, in bytes. A monotone
// high-water mark: meaningful for the first fleet run after startup and
// as a floor afterwards.
double PeakRssBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0;
  }
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // linux: kilobytes
}

// --- workload 1: the Figure 8 gate-crossing call loop ----------------------

constexpr int kCallIters = 12000;

std::unique_ptr<Machine> MakeCallLoopMachine(const MachineConfig& config) {
  HardwareRig rig = SetupHardware(HardwareCallSource(4, 2, true, kCallIters), 4,
                                  MakeProcedureSegment(1, 1, 7, 1), config);
  return std::move(rig.machine);
}

// --- workload 2: the file-search library structure -------------------------
// Ring-4 search loop probing a ring-1 protected directory through a tiny
// read gate (one crossing per probe), repeated `rlim` times.

constexpr int kSearchEntries = 48;
constexpr int kSearchRepeats = 120;

std::string SearchSource() {
  return StrFormat(R"(
        .segment rdsvc       ; ring-1: A <- directory[Q]
        .gates 1
gate:   stq   tq,*
        ldx   x1, tq,*
        epp   pr3, sdirp,*
        lda   pr3|0,x1
        ret   pr7|0
tq:     .its  1, svcdata, 0
sdirp:  .its  1, directory, 0

        .segment svcdata
        .block 1

        .segment main
start:  stz   reps,*
outer:  stz   idx,*
loop:   ldq   idx,*
        epp   pr2, g,*
        call  pr2|0          ; crossing per probe
        sba   key
        tze   found
        aos   idx,*
        aos   idx,*
        lda   idx,*
        sba   dlen
        tmi   loop
        ldai  99             ; key missing: exit 99 (error)
        mme   0
found:  aos   reps,*
        lda   reps,*
        sba   rlim
        tmi   outer
        ldai  0
        mme   0
key:    .word %d
dlen:   .word %d
rlim:   .word %d
idx:    .its  4, udata, 0
reps:   .its  4, udata, 1
g:      .its  4, rdsvc, 0

        .segment udata
        .block 2
)",
                   kSearchEntries, 2 * kSearchEntries, kSearchRepeats);
}

std::unique_ptr<Machine> MakeSearchMachine(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  std::vector<Word> directory;
  for (int i = 1; i <= kSearchEntries; ++i) {
    directory.push_back(static_cast<Word>(i));
    directory.push_back(static_cast<Word>(1000 + i));
  }
  machine->registry().CreateSegmentWithContents(
      "directory", directory, 0, 0, AccessControlList::Public(MakeReadOnlyDataSegment(1)));
  std::map<std::string, AccessControlList> acls;
  acls["rdsvc"] = AccessControlList::Public(MakeProcedureSegment(1, 1, 5, 1));
  acls["svcdata"] = AccessControlList::Public(MakeDataSegment(1, 1));
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["udata"] = AccessControlList::Public(MakeDataSegment(4, 4));
  std::string error;
  if (!machine->LoadProgramSource(SearchSource(), acls, &error)) {
    std::fprintf(stderr, "bench_fleet search setup failed: %s\n", error.c_str());
    std::abort();
  }
  Process* p = machine->Login("bench");
  machine->supervisor().InitiateAll(p);
  machine->Start(p, "main", "start", kUserRing);
  return machine;
}

// --- workload 3: the demand-paged counter ----------------------------------
// Touches four pages of an initially absent paged segment every lap, so
// the run front-loads missing-page service and then exercises the
// software TLB on every reference.

constexpr int kPagerIters = 24000;

std::unique_ptr<Machine> MakePagerMachine(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  machine->registry().CreatePagedSegment("bigdata", 4 * kPageWords,
                                         AccessControlList::Public(MakeDataSegment(4, 4)),
                                         /*populate=*/false);
  const std::string source = StrFormat(R"(
        .segment pager
pstart: aos   cnt,*
        lda   p1,*
        adai  1
        sta   p1,*
        lda   p2,*
        adai  1
        sta   p2,*
        lda   p3,*
        adai  1
        sta   p3,*
        lda   cnt,*
        sba   plim
        tmi   pstart
        ldai  0
        mme   0
plim:   .word %d
cnt:    .its  4, bigdata, 10
p1:     .its  4, bigdata, 1034
p2:     .its  4, bigdata, 2058
p3:     .its  4, bigdata, 3082
)",
                                       kPagerIters);
  std::map<std::string, AccessControlList> acls;
  acls["pager"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  std::string error;
  if (!machine->LoadProgramSource(source, acls, &error)) {
    std::fprintf(stderr, "bench_fleet pager setup failed: %s\n", error.c_str());
    std::abort();
  }
  Process* p = machine->Login("bench");
  machine->supervisor().InitiateAll(p);
  machine->Start(p, "pager", "pstart", kUserRing);
  return machine;
}

// ---------------------------------------------------------------------------

constexpr int kFleetMachines = 12;  // four of each workload

void AddMixedFleet(Fleet* fleet, const MachineConfig& config = FleetMachineConfig()) {
  const struct {
    const char* name;
    std::unique_ptr<Machine> (*make)(const MachineConfig&);
  } kKinds[] = {
      {"call", MakeCallLoopMachine}, {"search", MakeSearchMachine}, {"pager", MakePagerMachine}};
  for (int i = 0; i < kFleetMachines; ++i) {
    const auto& kind = kKinds[i % 3];
    const auto make = kind.make;
    fleet->Add(StrFormat("%s-%d", kind.name, i / 3), [make, config] { return make(config); });
  }
}

// A thread-count-invariant digest of the whole fleet outcome: the
// per-machine fingerprints folded in machine-index order, truncated to
// 32 bits so it survives the JSON double round trip exactly.
double FoldFingerprints(const Fleet& fleet) {
  FingerprintBuilder builder;
  for (const MachineResult& result : fleet.results()) {
    builder.Mix(result.run.fingerprint);
  }
  return static_cast<double>(builder.digest() & 0xffffffffull);
}

// The mixed fleet at one thread count, once per engine tier. Every sim_*
// counter is invariant across thread counts and tiers; tools/bench_check.py
// gates it exactly and checks both invariances.
void FleetMixed(benchmark::State& state, EngineTier tier) {
  FleetConfig config;
  config.threads = static_cast<int>(state.range(0));
  config.slice_cycles = 100'000;
  uint64_t total_instructions = 0;
  double insn_per_sec_best = 0;
  FleetStats stats;
  double fold = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Fleet fleet(config);
    AddMixedFleet(&fleet, FleetMachineConfig(tier));
    state.ResumeTiming();
    stats = fleet.Run();
    state.PauseTiming();
    if (stats.completed != fleet.size() || fleet.ExitCode() != 0) {
      std::fprintf(stderr, "bench_fleet: fleet did not complete cleanly:\n%s\n",
                   stats.ToString().c_str());
      std::abort();
    }
    total_instructions += stats.total_instructions;
    insn_per_sec_best = std::max(insn_per_sec_best, stats.instructions_per_second);
    const double f = FoldFingerprints(fleet);
    if (fold != 0 && f != fold) {
      std::fprintf(stderr, "bench_fleet: fingerprints changed between iterations\n");
      std::abort();
    }
    fold = f;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_instructions));
  // Thread-count and engine-tier invariant (gated exactly).
  state.counters["sim_total_instructions"] = static_cast<double>(stats.total_instructions);
  state.counters["sim_total_cycles"] = static_cast<double>(stats.total_cycles);
  state.counters["sim_machines"] = static_cast<double>(stats.machines);
  state.counters["sim_completed"] = static_cast<double>(stats.completed);
  state.counters["sim_calls_downward"] = static_cast<double>(stats.aggregate.calls_downward);
  state.counters["sim_pages_supplied"] = static_cast<double>(stats.aggregate.pages_supplied);
  state.counters["sim_fingerprint_fold"] = fold;
  // Host-dependent (reported, not gated).
  state.counters["fleet_insn_per_sec"] = insn_per_sec_best;
  state.counters["chain_follows"] = static_cast<double>(stats.aggregate.chain_follows);
}

void RegisterBenchmarks() {
  for (auto* b : RegisterPerEngine("BM_FleetMixed", FleetMixed)) {
    b->ArgName("threads")
        ->Arg(1)
        ->Arg(2)
        ->Arg(4)
        ->Arg(8)
        ->Iterations(5)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
}

// Human-readable scaling table (and a hard determinism check across
// thread counts — the process aborts on any fingerprint divergence).
void PrintReport() {
  PrintBanner("FL — fleet engine: N machines across host worker threads",
              "Mixed fleet (call loops, protected-directory searches, demand\n"
              "pagers) run to completion; per-machine results are bit-identical\n"
              "at every thread count, so only host throughput varies.");
  std::printf("  threads  wall-s   sim-insn/s   speedup  completed\n");
  double base = 0;
  double fold = 0;
  for (const int threads : {1, 2, 4, 8}) {
    FleetConfig config;
    config.threads = threads;
    config.slice_cycles = 100'000;
    Fleet fleet(config);
    AddMixedFleet(&fleet);
    const FleetStats stats = fleet.Run();
    if (stats.completed != fleet.size()) {
      std::fprintf(stderr, "bench_fleet: fleet did not complete:\n%s\n",
                   stats.ToString().c_str());
      std::abort();
    }
    const double f = FoldFingerprints(fleet);
    if (fold == 0) {
      fold = f;
    } else if (f != fold) {
      std::fprintf(stderr, "bench_fleet: NOT deterministic across thread counts\n");
      std::abort();
    }
    if (base == 0) {
      base = stats.instructions_per_second;
    }
    std::printf("  %7d  %6.3f  %11.0f  %6.2fx  %zu/%zu\n", threads, stats.wall_seconds,
                stats.instructions_per_second,
                base > 0 ? stats.instructions_per_second / base : 0.0, stats.completed,
                stats.machines);
  }
  std::printf("\n  determinism: per-machine fingerprints identical at every thread\n"
              "  count (fold=%08llx); sim_* counters in the benchmark output are\n"
              "  therefore thread-count invariant and CI-gated exactly.\n",
              static_cast<unsigned long long>(fold));
}

// Golden-image frame sharing: N machines cloned copy-on-write from one
// sealed pager golden. At spawn every written frame is shared with the
// golden (a clone owns no pages of its own); the run privatizes exactly
// the frames each clone stores to. The sharing is host-only bookkeeping:
// every clone runs to the same fingerprint a cold-booted machine does.
// Peak RSS is the process's monotone high-water mark, so sizes run
// smallest first.
void PrintFrameShareReport() {
  auto cold = MakePagerMachine(FleetMachineConfig());
  cold->Run(2'000'000'000);
  const uint64_t reference = FingerprintMachine(*cold);
  cold.reset();

  const auto golden = MakePagerMachine(FleetMachineConfig());
  golden->memory().SealForCloning();

  std::printf("\n  golden-image frame sharing (clones of one sealed pager golden,\n"
              "  %zu-KiB frames; fleet-wide page bytes at spawn and after the run):\n",
              PhysicalMemory::kFrameBytes / 1024);
  std::printf("  machines  spawn-shared-KiB  spawn-priv-KiB  run-shared-KiB  run-priv-KiB"
              "  peak-RSS-MiB\n");
  for (const int n : {4, 12, 24}) {
    std::vector<std::unique_ptr<Machine>> clones;
    for (int i = 0; i < n; ++i) {
      clones.push_back(Machine::CloneFrom(*golden));
      if (clones.back() == nullptr) {
        std::fprintf(stderr, "bench_fleet: golden clone failed\n");
        std::abort();
      }
    }
    const auto totals = [&clones] {
      double shared = 0, priv = 0;
      for (const auto& clone : clones) {
        const PhysicalMemory::FrameStats s = clone->memory().frame_stats();
        shared += static_cast<double>(s.shared_bytes());
        priv += static_cast<double>(s.private_bytes());
      }
      return std::make_pair(shared, priv);
    };
    const auto [spawn_shared, spawn_priv] = totals();
    for (const auto& clone : clones) {
      clone->Run(2'000'000'000);
      if (FingerprintMachine(*clone) != reference) {
        std::fprintf(stderr, "bench_fleet: clone diverged from cold boot\n");
        std::abort();
      }
    }
    const auto [run_shared, run_priv] = totals();
    std::printf("  %8d  %16.1f  %14.1f  %14.1f  %12.1f  %12.1f\n", n, spawn_shared / 1024.0,
                spawn_priv / 1024.0, run_shared / 1024.0, run_priv / 1024.0,
                PeakRssBytes() / (1024.0 * 1024.0));
  }
  std::printf("\n  every clone's fingerprint equals the cold boot's (%08llx): COW\n"
              "  frame sharing changes no simulated outcome.\n",
              static_cast<unsigned long long>(reference & 0xffffffffull));
}

}  // namespace
}  // namespace rings

int main(int argc, char** argv) {
  rings::PrintReport();
  rings::PrintFrameShareReport();
  rings::RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
