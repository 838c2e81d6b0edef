// Experiment F9 — Figure 9: the RETURN instruction.
//
// Isolates the RET side of the crossing: cycles for an upward return by
// ring distance, the PR-ring raising work, and the downward-return trap
// cost (supervisor-emulated).
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/cpu/cpu.h"
#include "src/mem/descriptor_segment.h"

namespace rings {
namespace {

// A bare rig that executes a single RET from `from_ring` to `to_ring`
// repeatedly (re-arming the registers each time), measuring its cycles in
// isolation — no supervisor, no loop overhead.
struct RetRig {
  PhysicalMemory memory{1 << 20};
  DescriptorSegment dseg;
  Cpu cpu;
  Segno ret_segno = 1;
  Segno target_segno = 2;

  RetRig(Ring from_ring, Ring to_ring)
      : dseg(*DescriptorSegment::Create(&memory, 16, 0)), cpu(&memory) {
    cpu.SetDbr(dseg.dbr());
    // Segment 1: `ret pr7|0`, executable at from_ring.
    const AbsAddr ret_base = *memory.Allocate(1);
    memory.Write(ret_base, EncodeInstruction(MakeInsPr(Opcode::kRet, 7, 0)));
    Sdw sdw;
    sdw.present = true;
    sdw.base = ret_base;
    sdw.bound = 1;
    sdw.access = MakeProcedureSegment(from_ring, from_ring, 7, 1);
    dseg.Store(ret_segno, sdw);
    // Segment 2: the return target, executable at to_ring.
    const AbsAddr tgt_base = *memory.Allocate(2);
    memory.Write(tgt_base, EncodeInstruction(MakeIns(Opcode::kNop)));
    memory.Write(tgt_base + 1, EncodeInstruction(MakeIns(Opcode::kNop)));
    sdw.base = tgt_base;
    sdw.bound = 2;
    sdw.access = MakeProcedureSegment(to_ring, to_ring, 7, 1);
    dseg.Store(target_segno, sdw);
    Arm(from_ring, to_ring);
  }

  void Arm(Ring from_ring, Ring to_ring) {
    cpu.regs().ipr = Ipr{from_ring, ret_segno, 0};
    for (PointerRegister& pr : cpu.regs().pr) {
      pr = PointerRegister{from_ring, 0, 0};
    }
    cpu.regs().pr[kPrReturn] = PointerRegister{to_ring, target_segno, 0};
  }
};

double RetCycles(const EngineRow& row, Ring from_ring, Ring to_ring, bool* trapped = nullptr) {
  RetRig rig(from_ring, to_ring);
  ApplyEngine(row, &rig.cpu);
  const int reps = 5000;
  uint64_t total = 0;
  bool saw_trap = false;
  for (int i = 0; i < reps; ++i) {
    rig.Arm(from_ring, to_ring);
    const uint64_t before = rig.cpu.cycles();
    rig.cpu.Step();
    total += rig.cpu.cycles() - before;
    if (rig.cpu.trap_pending()) {
      saw_trap = true;
      rig.cpu.TakeTrap();
    }
  }
  if (trapped != nullptr) {
    *trapped = saw_trap;
  }
  return static_cast<double>(total) / reps;
}

void PrintReport() {
  PrintBanner("F9 — Figure 9: RETURN, by ring distance",
              "Cycles for one RET instruction in isolation. Upward returns of any\n"
              "distance cost the same as same-ring returns (the PR-ring raising is\n"
              "register logic); only the downward return traps for software.");
  std::printf("  scenario                  cycles   trapped\n");
  const auto row = [](const char* label, Ring from, Ring to, const char* suffix = "") {
    bool trapped = false;
    const double cycles = RetCycles(kDefaultEngine, from, to, &trapped);
    std::printf("  %s     %8.2f   %s%s\n", label, cycles, trapped ? "yes" : "no", suffix);
  };
  row("same-ring  (4 -> 4)", 4, 4);
  row("upward     (1 -> 4)", 1, 4);
  row("upward     (0 -> 7)", 0, 7);
  row("downward   (5 -> 4)", 5, 4, " (cost includes the trap)");

  // The PR-raising rule, demonstrated.
  std::printf("\n  PR rings after an upward return 1 -> 4 (all raised to >= 4):\n   ");
  RetRig rig(1, 4);
  rig.cpu.Step();
  for (unsigned i = 0; i < kNumPointerRegisters; ++i) {
    std::printf(" pr%u=%u", i, rig.cpu.regs().pr[i].ring);
  }
  std::printf("\n");
}

// Host time of one armed RET, once per engine row. The site is maximally
// monomorphic (one RET, one target, every rep), so with chaining on the
// crossing cache replays the memoized resolution instead of re-fetching
// the SDW and re-running ResolveReturn. sim_cycles_per_return is measured
// at the same row; tools/bench_check.py gates it, and requires it equal
// across rows.
void Return(benchmark::State& state, const EngineRow& row, Ring from_ring, Ring to_ring) {
  RetRig rig(from_ring, to_ring);
  ApplyEngine(row, &rig.cpu);
  for (auto _ : state) {
    rig.Arm(from_ring, to_ring);
    rig.cpu.Step();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_cycles_per_return"] = RetCycles(row, from_ring, to_ring);
  // Host-only effectiveness counter (fingerprint-excluded).
  state.counters["crossing_hits"] = static_cast<double>(rig.cpu.counters().crossing_hits);
}

void RegisterBenchmarks() {
  RegisterPerEngine("BM_UpwardReturn", Return, Ring{1}, Ring{4});
  RegisterPerEngine("BM_SameRingReturn", Return, Ring{4}, Ring{4});
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
