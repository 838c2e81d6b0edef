// Experiment U5 — the file-search example from the paper's Conclusions:
// "in many file system designs ... complex file search operations are
// carried out entirely by protected supervisor routines rather than by
// unprotected library packages, primarily because a complex file search
// requires many individual file access operations, each of which would
// require transfer to a protected service routine, which transfer is
// presumed costly."
//
// Three structures search the same protected directory (N two-word
// entries, readable only in rings <= 1) for its last key:
//
//   A. monolithic:  the whole linear search runs inside a ring-1 gate
//                   service — one crossing per search (the structure the
//                   expensive-crossing assumption forces);
//   B. library:     the search loop runs in ring 4; each probe calls a
//                   tiny ring-1 "read directory word" gate — one crossing
//                   per probe, viable only if crossings are cheap;
//   C. library/645: structure B on the software-rings baseline — what it
//                   would have cost before this paper's hardware.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace rings {
namespace {

// Directory contents: entries (key, value) with keys 1..n; the searched
// key is n (worst case).
std::vector<Word> MakeDirectory(int n) {
  std::vector<Word> dir;
  for (int i = 1; i <= n; ++i) {
    dir.push_back(static_cast<Word>(i));         // key
    dir.push_back(static_cast<Word>(1000 + i));  // value
  }
  return dir;
}

// Structure A: the search loop lives in the ring-1 service, which derives
// its own directory pointer (it must NOT use a caller pointer — the
// effective ring would deny the read, by design).
std::string MonolithicSource(int n) {
  return StrFormat(R"(
        .segment dirsvc
        .gates 1
gate:   tra   body
body:   stq   kq,*          ; search key arrives in Q
        stz   idx,*
        epp   pr3, sdirp,*
loop:   ldx   x1, idx,*
        lda   pr3|0,x1      ; key at dir[idx]
        sba   kq,*
        tze   found
        aos   idx,*
        aos   idx,*
        lda   idx,*
        sba   dlen
        tmi   loop
        ldai  -1
        ret   pr7|0
found:  ldx   x1, idx,*
        lda   pr3|1,x1      ; the value
        ret   pr7|0
dlen:   .word %d
kq:     .its  1, svcdata, 0
idx:    .its  1, svcdata, 1
sdirp:  .its  1, directory, 0

        .segment svcdata
        .block 2

        .segment main
start:  ldqi  %d             ; the key to find
        epp   pr2, g,*
        call  pr2|0          ; ONE crossing for the whole search
        mme   0              ; exit with the value found
g:      .its  4, dirsvc, 0
)",
                   2 * n, n);
}

// Structure B: the loop in ring 4; each probe crosses into rdsvc, passing
// the word index in Q.
std::string LibrarySource(int n) {
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
start:  stz   idx,*
loop:   ldq   idx,*          ; Q = index of the key word
        epp   pr2, g,*
        call  pr2|0          ; crossing per probe
        sba   key
        tze   found
        aos   idx,*
        aos   idx,*
        lda   idx,*
        sba   dlen
        tmi   loop
        ldai  -1
        mme   0
found:  lda   idx,*
        adai  1
        sta   idx,*
        ldq   idx,*
        epp   pr2, g,*
        call  pr2|0          ; fetch the value word
        mme   0
key:    .word %d
dlen:   .word %d
idx:    .its  4, udata, 0
g:      .its  4, rdsvc, 0

        .segment udata
        .block 1
)",
                   n, 2 * n);
}

// Structure C: structure B on the 645. The index is passed through a
// scratch slot the caller may write; the service reads the directory its
// own descriptor segment permits.
std::string Library645Source(int n) {
  return StrFormat(R"(
        .segment rdsvc
        .gates 1
gate:   ldx   x1, aq,*
        epp   pr3, sdirp,*
        lda   pr3|0,x1
        mme   2
aq:     .its  0, argslot, 0
sdirp:  .its  0, directory, 0

        .segment argslot
        .block 1

        .segment main
start:  stz   idx,*
loop:   lda   idx,*
        sta   argq,*         ; pass the index
        ldq   tgt
        mme   1              ; crossing per probe
        sba   key
        tze   found
        aos   idx,*
        aos   idx,*
        lda   idx,*
        sba   dlen
        tmi   loop
        ldai  -1
        mme   0
found:  lda   idx,*
        adai  1
        sta   argq,*
        ldq   tgt
        mme   1
        mme   0
key:    .word %d
dlen:   .word %d
tgt:    .word 0              ; patched with the packed target
argq:   .its  0, argslot, 0
idx:    .its  0, udata, 0

        .segment udata
        .block 1
)",
                   n, 2 * n);
}

struct SearchCost {
  uint64_t cycles = 0;
  uint64_t crossings = 0;
  uint64_t traps = 0;
  int64_t result = 0;
};

// A loaded, started (but not yet run) search machine. `paged` backs the
// protected directory with a demand-paged segment (prefilled), so every
// service-side probe takes a page-table walk.
struct SearchRig {
  std::unique_ptr<Machine> machine;
  Process* process = nullptr;
};

SearchRig SetupSearchHardware(const std::string& source, const char* svc_seg, int n, bool paged,
                              EngineTier tier) {
  MachineConfig config;
  ApplyTier(tier, &config);
  SearchRig rig;
  rig.machine = std::make_unique<Machine>(config);
  Machine& machine = *rig.machine;
  // The directory must exist before the program so .its patches resolve.
  const AccessControlList dir_acl =
      AccessControlList::Public(MakeReadOnlyDataSegment(1));  // rings 0..1 only
  if (paged) {
    machine.registry().CreatePagedSegment("directory", 2 * static_cast<uint64_t>(n), dir_acl,
                                          /*populate=*/true, MakeDirectory(n));
  } else {
    machine.registry().CreateSegmentWithContents("directory", MakeDirectory(n), 0, 0, dir_acl);
  }
  std::map<std::string, AccessControlList> acls;
  acls[svc_seg] = AccessControlList::Public(MakeProcedureSegment(1, 1, 5, 1));
  acls["svcdata"] = AccessControlList::Public(MakeDataSegment(1, 1));
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["udata"] = AccessControlList::Public(MakeDataSegment(4, 4));
  std::string error;
  if (!machine.LoadProgramSource(source, acls, &error)) {
    std::fprintf(stderr, "filesearch setup failed: %s\n", error.c_str());
    std::abort();
  }
  rig.process = machine.Login("bench");
  machine.supervisor().InitiateAll(rig.process);
  machine.Start(rig.process, "main", "start", kUserRing);
  return rig;
}

SearchCost FinishSearch(SearchRig& rig) {
  rig.machine->Run(1'000'000'000);
  Process* p = rig.process;
  if (p->state != ProcessState::kExited) {
    std::fprintf(stderr, "filesearch killed: %s at %u|%u\n",
                 std::string(TrapCauseName(p->kill_cause)).c_str(), p->kill_pc.segno,
                 p->kill_pc.wordno);
    std::abort();
  }
  return SearchCost{rig.machine->cpu().cycles(),
                    rig.machine->cpu().counters().calls_downward,
                    rig.machine->cpu().counters().TotalTraps(), p->exit_code};
}

SearchCost RunSearchHardware(const std::string& source, const char* svc_seg, int n,
                             bool paged = false, EngineTier tier = EngineTier::kBlocks) {
  SearchRig rig = SetupSearchHardware(source, svc_seg, n, paged, tier);
  return FinishSearch(rig);
}

SearchCost RunSearch645(int n) {
  B645Machine machine;
  machine.registry().CreateSegmentWithContents(
      "directory", MakeDirectory(n), 0, 0,
      AccessControlList::Public(MakeReadOnlyDataSegment(1)));
  std::map<std::string, SegmentAccess> specs;
  specs["rdsvc"] = MakeProcedureSegment(1, 1, 5, 1);
  specs["argslot"] = MakeDataSegment(4, 4);  // the caller passes the index here
  specs["main"] = MakeProcedureSegment(4, 4);
  specs["udata"] = MakeDataSegment(4, 4);
  std::string error;
  if (!machine.LoadProgramSource(Library645Source(n), specs, &error)) {
    std::fprintf(stderr, "645 filesearch setup failed: %s\n", error.c_str());
    std::abort();
  }
  // The directory was registered outside LoadProgram: give it ring specs.
  machine.SetRingSpec("directory", MakeReadOnlyDataSegment(1));
  machine.Start("main", "start", kUserRing);
  const Segno svc = machine.registry().Find("rdsvc")->segno;
  const auto tgt_word = machine.registry().Find("main")->symbols.at("tgt");
  machine.PokeWordForTest("main", tgt_word, PackB645Target(svc, 0));
  machine.Run(1'000'000'000);
  if (!machine.exited()) {
    std::fprintf(stderr, "645 filesearch killed: %s\n",
                 std::string(TrapCauseName(machine.kill_cause())).c_str());
    std::abort();
  }
  return SearchCost{machine.cpu().cycles(), machine.crossings(),
                    machine.cpu().counters().TotalTraps(), machine.exit_code()};
}

void PrintReport() {
  PrintBanner("U5 — file search: protected monolith vs library + protected access",
              "Linear search of a protected directory for its last key.");
  std::printf("  entries  structure              cycles  crossings  traps  result\n");
  for (const int n : {16, 64, 128}) {
    const SearchCost a = RunSearchHardware(MonolithicSource(n), "dirsvc", n);
    const SearchCost b = RunSearchHardware(LibrarySource(n), "rdsvc", n);
    const SearchCost c = RunSearch645(n);
    std::printf("  %7d  A monolithic (hw)   %8llu  %9llu  %5llu  %6lld\n", n,
                static_cast<unsigned long long>(a.cycles),
                static_cast<unsigned long long>(a.crossings),
                static_cast<unsigned long long>(a.traps), static_cast<long long>(a.result));
    std::printf("  %7d  B library    (hw)   %8llu  %9llu  %5llu  %6lld\n", n,
                static_cast<unsigned long long>(b.cycles),
                static_cast<unsigned long long>(b.crossings),
                static_cast<unsigned long long>(b.traps), static_cast<long long>(b.result));
    std::printf("  %7d  C library    (645)  %8llu  %9llu  %5llu  %6lld\n", n,
                static_cast<unsigned long long>(c.cycles),
                static_cast<unsigned long long>(c.crossings),
                static_cast<unsigned long long>(c.traps), static_cast<long long>(c.result));
  }
  std::printf("\n  shape: with ring hardware the library structure (B) costs only a\n"
              "  modest factor over the monolith (A) despite one crossing per\n"
              "  probe; on the 645 (C) the same structure is crushed by trap\n"
              "  costs — which is why such designs put the whole search in the\n"
              "  supervisor, 'increasing the quantity of code which has maximum\n"
              "  privilege'.\n");
}

// Host-time cost of the library-structured search (one crossing per
// probe), machine.Run() only, once per engine tier; the paged variants put
// the directory behind a page table, so they additionally measure the
// page-table walk. The sim_* counters come from one extra run at the same
// tier; tools/bench_check.py gates them, and requires them equal across
// tiers.
void LibrarySearchLoop(benchmark::State& state, EngineTier tier, bool paged) {
  constexpr int kEntries = 64;
  const std::string source = LibrarySource(kEntries);
  for (auto _ : state) {
    state.PauseTiming();
    SearchRig rig = SetupSearchHardware(source, "rdsvc", kEntries, paged, tier);
    state.ResumeTiming();
    rig.machine->Run(1'000'000'000);
    benchmark::DoNotOptimize(rig.machine->cpu().cycles());
    state.PauseTiming();
    if (rig.process->state != ProcessState::kExited) {
      std::fprintf(stderr, "filesearch bench killed: %s\n",
                   std::string(TrapCauseName(rig.process->kill_cause)).c_str());
      std::abort();
    }
    rig.machine.reset();  // destruction stays untimed too
    state.ResumeTiming();
  }
  const SearchCost sim = RunSearchHardware(source, "rdsvc", kEntries, paged, tier);
  state.counters["sim_cycles"] = static_cast<double>(sim.cycles);
  state.counters["sim_crossings"] = static_cast<double>(sim.crossings);
  state.counters["sim_traps"] = static_cast<double>(sim.traps);
}

void RegisterBenchmarks() {
  for (const bool paged : {false, true}) {
    const char* name = paged ? "BM_LibrarySearchHwPagedDir" : "BM_LibrarySearchHw";
    for (auto* b : RegisterPerEngine(name, LibrarySearchLoop, paged)) {
      b->Iterations(5);
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
