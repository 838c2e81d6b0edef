// Experiment SV — the multi-tenant serving core: machines/second and
// turnaround percentiles versus offered load, and the golden-image spawn
// latency that makes the daemon's admission path cheap.
//
// Saturation: a closed batch of `load` mixed submissions (gate-crossing
// call loops and demand pagers, as kasm source) is thrown at a Server at
// once, at 1, 4, and 8 worker threads under every engine tier. The served
// trajectories are deterministic — every sim_* counter below is invariant
// across thread counts, engine tiers and iterations and is gated exactly by
// tools/bench_check.py. Host time is reported, not gated: the batch time
// by google-benchmark, and the turnaround percentiles by the saturation
// table printed first.
//
// Spawn: submissions materialize machines by cloning a sealed golden
// image copy-on-write instead of construct+load. BM_SpawnLatency times
// both paths; the report enforces the >=10x advantage the serving
// design assumes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/fleet/fingerprint.h"
#include "src/kasm/assembler.h"
#include "src/serve/server.h"
#include "src/sys/manifest.h"

namespace rings {
namespace {

// Self-contained guests (kasm + `;;` manifest), the daemon's submission
// format. Two program shapes: the Figure 8 gate-crossing call loop and
// the demand-paged counter; each in two sizes so the batch exercises
// four distinct golden images.
std::string CallLoopGuest(int iters) {
  return StrFormat(R"(;; acl main * procedure 4 4
;; acl counter * data 4 4
;; acl target * procedure 1 1 7
;; start main start 4
        .segment main
start:
loop:   epp   pr2, gptr,*
        call  pr2|0
        aos   cnt,*
        lda   cnt,*
        sba   limit
        tmi   loop
        mme   0
limit:  .word %d
cnt:    .its  4, counter, 0
gptr:   .its  4, target, 0

        .segment counter
        .word 0

        .segment target
        .gates 1
entry:  ret   pr7|0
)",
                   iters);
}

std::string PagerGuest(int iters) {
  return StrFormat(R"(;; acl pager * procedure 4 4
;; acl bigdata * data 4 4
;; segment bigdata 2048 paged demand
;; start pager pstart 4
        .segment pager
pstart: aos   cnt,*
        lda   far,*
        adai  1
        sta   far,*
        lda   cnt,*
        sba   plim
        tmi   pstart
        mme   0
plim:   .word %d
cnt:    .its  4, bigdata, 10
far:    .its  4, bigdata, 1034
)",
                   iters);
}

const std::vector<std::string>& BenchGuests() {
  static const std::vector<std::string>* kGuests = new std::vector<std::string>{
      CallLoopGuest(1500), PagerGuest(2000), CallLoopGuest(3000), PagerGuest(4000)};
  return *kGuests;
}

// Small machines: a saturated server holds many live at once, so the
// bench keeps each core store at 2^18 words rather than the 2^22
// default (COW makes even that mostly shared zero frames).
ServeConfig BenchServeConfig(int threads, EngineTier tier = EngineTier::kBlocks) {
  ServeConfig config;
  config.threads = threads;
  config.machine_memory_words = size_t{1} << 18;
  config.engine = tier;
  return config;
}

double Percentile(std::vector<double> sorted_ns, double p) {
  if (sorted_ns.empty()) {
    return 0;
  }
  std::sort(sorted_ns.begin(), sorted_ns.end());
  const size_t index = static_cast<size_t>(p * static_cast<double>(sorted_ns.size() - 1));
  return sorted_ns[index];
}

void ServeSaturation(benchmark::State& state, EngineTier tier) {
  const int threads = static_cast<int>(state.range(0));
  const int load = static_cast<int>(state.range(1));
  double fold = 0;
  double total_cycles = 0;
  double total_instructions = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Server server(BenchServeConfig(threads, tier));
    state.ResumeTiming();
    std::vector<uint64_t> ids;
    ids.reserve(static_cast<size_t>(load));
    for (int i = 0; i < load; ++i) {
      Submission submission;
      submission.source = BenchGuests()[static_cast<size_t>(i) % BenchGuests().size()];
      ids.push_back(server.Submit(std::move(submission)));
    }
    std::vector<Completion> completions;
    completions.reserve(ids.size());
    for (const uint64_t id : ids) {
      completions.push_back(server.Wait(id));
    }
    state.PauseTiming();
    FingerprintBuilder builder;
    double cycles = 0, instructions = 0;
    for (const Completion& completion : completions) {
      if (!completion.ok()) {
        std::fprintf(stderr, "bench_serve: submission failed: %s\n",
                     completion.ToString().c_str());
        std::abort();
      }
      builder.Mix(completion.fingerprint);
      cycles += static_cast<double>(completion.cycles);
      instructions += static_cast<double>(completion.instructions);
    }
    const double f = static_cast<double>(builder.digest() & 0xffffffffull);
    if (fold != 0 && f != fold) {
      std::fprintf(stderr, "bench_serve: fingerprints changed between iterations\n");
      std::abort();
    }
    fold = f;
    total_cycles = cycles;
    total_instructions = instructions;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(total_instructions));
  // Thread-count, engine-tier and iteration invariant (gated exactly).
  state.counters["sim_machines"] = static_cast<double>(load);
  state.counters["sim_completed"] = static_cast<double>(load);
  state.counters["sim_total_cycles"] = total_cycles;
  state.counters["sim_total_instructions"] = total_instructions;
  state.counters["sim_fingerprint_fold"] = fold;
}

// --- spawn latency: golden clone vs cold construct+load --------------------

struct SpawnRig {
  std::string source;
  std::unique_ptr<Machine> golden;
};

// The daemon's cold path for a source submission — exactly what the
// golden-image registry's build function does once per distinct program
// and what every submission would pay without golden images:
// assemble + parse manifest + construct + load.
std::unique_ptr<Machine> ColdBoot(const std::string& source) {
  const AssembleResult assembled = Assemble(source);
  const Manifest manifest = ParseManifest(source);
  if (!assembled.ok || !manifest.ok()) {
    std::fprintf(stderr, "bench_serve: spawn guest assembly failed\n");
    std::abort();
  }
  MachineConfig config;
  config.memory_words = size_t{1} << 18;
  std::string error;
  auto machine = BootGuest(config, assembled.program, manifest, &error);
  if (machine == nullptr) {
    std::fprintf(stderr, "bench_serve: cold boot failed: %s\n", error.c_str());
    std::abort();
  }
  return machine;
}

SpawnRig MakeSpawnRig() {
  SpawnRig rig;
  rig.source = CallLoopGuest(1500);
  rig.golden = ColdBoot(rig.source);
  rig.golden->memory().SealForCloning();
  return rig;
}

void BM_SpawnLatency(benchmark::State& state) {
  const bool cold = state.range(0) == 1;
  const SpawnRig rig = MakeSpawnRig();
  for (auto _ : state) {
    std::unique_ptr<Machine> machine =
        cold ? ColdBoot(rig.source) : Machine::CloneFrom(*rig.golden);
    if (machine == nullptr) {
      std::fprintf(stderr, "bench_serve: spawn failed\n");
      std::abort();
    }
    benchmark::DoNotOptimize(machine);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

BENCHMARK(BM_SpawnLatency)
    ->ArgName("cold")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void RegisterBenchmarks() {
  for (auto* b : RegisterPerEngine("BM_ServeSaturation", ServeSaturation)) {
    b->ArgNames({"threads", "load"})
        ->Args({1, 8})
        ->Args({1, 32})
        ->Args({4, 8})
        ->Args({4, 32})
        ->Args({8, 8})
        ->Args({8, 32})
        ->Iterations(5)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
}

// Human-readable report, and the hard floor on the clone advantage: the
// serving design assumes spawning from a golden image beats a cold
// construct+load by at least 10x.
void PrintSpawnReport() {
  PrintBanner("SV — serving core: golden-image spawn vs cold boot",
              "Median latency to produce a runnable machine for the call-loop\n"
              "guest: copy-on-write clone of a sealed golden image versus the\n"
              "cold submission path it replaces (assemble + parse manifest +\n"
              "construct + load).");
  const SpawnRig rig = MakeSpawnRig();
  const auto median_ns = [](std::vector<double>& samples) {
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };
  std::vector<double> clone_ns, cold_ns;
  for (int i = 0; i < 200; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto machine = Machine::CloneFrom(*rig.golden);
    clone_ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             start)
            .count()));
    if (machine == nullptr) {
      std::fprintf(stderr, "bench_serve: clone failed\n");
      std::abort();
    }
  }
  for (int i = 0; i < 30; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto machine = ColdBoot(rig.source);
    cold_ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             start)
            .count()));
  }
  const double clone_median = median_ns(clone_ns);
  const double cold_median = median_ns(cold_ns);
  const double speedup = clone_median > 0 ? cold_median / clone_median : 0;
  std::printf("  clone:      %10.1f us median (200 spawns)\n", clone_median / 1000.0);
  std::printf("  cold boot:  %10.1f us median (30 boots)\n", cold_median / 1000.0);
  std::printf("  advantage:  %9.1fx  (target >= 10x: %s)\n", speedup,
              speedup >= 10.0 ? "PASS" : "FAIL");
  if (speedup < 10.0) {
    std::fprintf(stderr, "bench_serve: golden spawn advantage below the 10x floor\n");
    std::abort();
  }
}

// Saturation scaling table for humans; the gated figures come from the
// benchmark JSON above.
void PrintSaturationReport() {
  std::printf("\n  saturation (closed batch of 32 mixed submissions):\n");
  std::printf("  threads  wall-ms  machines/s   p50-turnaround-ms  p99-turnaround-ms\n");
  for (const int threads : {1, 4, 8}) {
    Server server(BenchServeConfig(threads));
    const auto start = std::chrono::steady_clock::now();
    std::vector<uint64_t> ids;
    for (int i = 0; i < 32; ++i) {
      Submission submission;
      submission.source = BenchGuests()[static_cast<size_t>(i) % BenchGuests().size()];
      ids.push_back(server.Submit(std::move(submission)));
    }
    std::vector<double> turnarounds_ns;
    for (const uint64_t id : ids) {
      const Completion completion = server.Wait(id);
      if (!completion.ok()) {
        std::fprintf(stderr, "bench_serve: submission failed: %s\n",
                     completion.ToString().c_str());
        std::abort();
      }
      turnarounds_ns.push_back(static_cast<double>(completion.turnaround_ns));
    }
    const double wall_s =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start)
                                .count()) /
        1e9;
    std::printf("  %7d  %7.1f  %10.0f  %17.2f  %17.2f\n", threads, wall_s * 1e3,
                wall_s > 0 ? 32.0 / wall_s : 0.0, Percentile(turnarounds_ns, 0.50) / 1e6,
                Percentile(turnarounds_ns, 0.99) / 1e6);
  }
}

}  // namespace
}  // namespace rings

int main(int argc, char** argv) {
  rings::PrintSpawnReport();
  rings::PrintSaturationReport();
  rings::RegisterBenchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
