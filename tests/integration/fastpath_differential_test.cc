// The fast-path identity: the host-side verdict and decoded-instruction
// caches — and the superblock engine built on top of them — must change
// NOTHING the simulated machine can observe. Every workload here runs
// three times — caches forced off, caches on with the block engine off,
// caches and block engine on — and all runs must agree bit-for-bit on
// architectural state (registers), the simulated cycle count, every
// architectural event counter, the trap sequence, and process outcomes.
// The workloads cover the tier-1 surface: hot loops, indirection, demand
// paging, gate crossings, the supervisor services, fault injection (whose
// RNG stream consumption must also be identical), self-modifying code,
// and the 645-style baseline.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/b645/b645_machine.h"
#include "src/base/strings.h"
#include "src/kasm/assembler.h"
#include "src/mem/descriptor_segment.h"
#include "src/mem/page_table.h"
#include "src/sys/machine.h"
#include "tests/testutil.h"

namespace rings {
namespace {

// The observable face of a finished run. Fast-path statistics
// (verdict_*/insn_cache_*) are intentionally absent: they describe host
// work saved, and are the only counters allowed to differ.
struct Fingerprint {
  uint64_t cycles = 0;
  RegisterFile regs{};
  Counters counters{};
  std::vector<std::string> traps;  // kTrap / kRingSwitch events, in order
  std::vector<std::string> processes;
  std::string tty;

  void CaptureTraps(const EventTrace& trace) {
    for (const TraceEvent& e : trace.events()) {
      if (e.kind == EventKind::kTrap || e.kind == EventKind::kRingSwitch) {
        traps.push_back(e.ToString());
      }
    }
  }
};

void ExpectArchitecturalCountersEqual(const Counters& off, const Counters& on) {
  EXPECT_EQ(off.instructions, on.instructions);
  EXPECT_EQ(off.memory_reads, on.memory_reads);
  EXPECT_EQ(off.memory_writes, on.memory_writes);
  EXPECT_EQ(off.sdw_fetches, on.sdw_fetches);
  EXPECT_EQ(off.sdw_cache_hits, on.sdw_cache_hits);
  EXPECT_EQ(off.indirect_words, on.indirect_words);
  EXPECT_EQ(off.page_walks, on.page_walks);
  EXPECT_EQ(off.pages_supplied, on.pages_supplied);
  EXPECT_EQ(off.links_snapped, on.links_snapped);
  EXPECT_EQ(off.checks_fetch, on.checks_fetch);
  EXPECT_EQ(off.checks_read, on.checks_read);
  EXPECT_EQ(off.checks_write, on.checks_write);
  EXPECT_EQ(off.checks_indirect, on.checks_indirect);
  EXPECT_EQ(off.checks_transfer, on.checks_transfer);
  EXPECT_EQ(off.checks_call, on.checks_call);
  EXPECT_EQ(off.checks_return, on.checks_return);
  EXPECT_EQ(off.calls_same_ring, on.calls_same_ring);
  EXPECT_EQ(off.calls_downward, on.calls_downward);
  EXPECT_EQ(off.returns_same_ring, on.returns_same_ring);
  EXPECT_EQ(off.returns_upward, on.returns_upward);
  EXPECT_EQ(off.supervisor_steps, on.supervisor_steps);
  EXPECT_EQ(off.upward_calls_emulated, on.upward_calls_emulated);
  EXPECT_EQ(off.downward_returns_emulated, on.downward_returns_emulated);
  EXPECT_EQ(off.argument_words_copied, on.argument_words_copied);
  EXPECT_EQ(off.sdw_recoveries, on.sdw_recoveries);
  EXPECT_EQ(off.spurious_pages_ignored, on.spurious_pages_ignored);
  EXPECT_EQ(off.machine_faults, on.machine_faults);
  EXPECT_EQ(off.trap_storm_kills, on.trap_storm_kills);
  EXPECT_EQ(off.double_faults, on.double_faults);
  for (size_t i = 0; i < off.traps.size(); ++i) {
    EXPECT_EQ(off.traps[i], on.traps[i])
        << "trap count for " << TrapCauseName(static_cast<TrapCause>(i));
  }
}

void ExpectFingerprintsEqual(const Fingerprint& off, const Fingerprint& on) {
  EXPECT_EQ(off.cycles, on.cycles);
  EXPECT_EQ(off.regs, on.regs);
  EXPECT_EQ(off.traps, on.traps);
  EXPECT_EQ(off.processes, on.processes);
  EXPECT_EQ(off.tty, on.tty);
  ExpectArchitecturalCountersEqual(off.counters, on.counters);
}

// The fast-path combinations every workload must agree across. Block
// without fast path is not a combination: the engine chains fast-path
// decodes, so it self-disables when the caches are off (asserted in
// FastPathEngages below).
struct PathConfig {
  bool fast_path = true;
  bool block_engine = true;
};

inline constexpr PathConfig kSlowPath{false, false};
inline constexpr PathConfig kFastNoBlock{true, false};
inline constexpr PathConfig kFastWithBlock{true, true};

void ExpectAllFingerprintsEqual(const Fingerprint& slow, const Fingerprint& fast_no_block,
                                const Fingerprint& fast_with_block) {
  {
    SCOPED_TRACE("slow vs fast(no block)");
    ExpectFingerprintsEqual(slow, fast_no_block);
  }
  {
    SCOPED_TRACE("fast(no block) vs fast(block)");
    ExpectFingerprintsEqual(fast_no_block, fast_with_block);
  }
}

// ---------------------------------------------------------------------------
// Hardware machine: the soak fleet (hot spinner, demand pager touching all
// four pages, gate-crossing chatterbox) with optional fault injection.
// ---------------------------------------------------------------------------

constexpr char kFleetSource[] = R"(
        .segment spin
sstart: ldai  0
sloop:  adai  1
        sta   slot,*
        lda   slot,*
        tra   sloop
slot:   .its  4, counters, 0

        .segment counters
        .block 8

        .segment pager
pstart: ldai  1
ploop:  adai  1
        sta   p0,*
        lda   p1,*
        sta   p1,*
        lda   p2,*
        sta   p2,*
        lda   p3,*
        sta   p3,*
        lda   p0,*
        tra   ploop
p0:     .its  4, bigdata, 10
p1:     .its  4, bigdata, 1034
p2:     .its  4, bigdata, 2058
p3:     .its  4, bigdata, 3082

        .segment chatty
cstart: epp   pr1, arglist
        epp   pr2, gateptr,*
        call  pr2|0
        tra   cstart
arglist: .word 1
        .its  4, chatty, buf
        .word 1
buf:    .word 88
gateptr: .its 4, sup_gates, 1
)";

std::map<std::string, AccessControlList> FleetAcls() {
  std::map<std::string, AccessControlList> acls;
  acls["spin"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["counters"] = AccessControlList::Public(MakeDataSegment(4, 4));
  acls["pager"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["chatty"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  return acls;
}

Fingerprint RunFleet(PathConfig path, uint64_t fault_seed, uint32_t fault_rate_ppm) {
  MachineConfig config;
  config.memory_words = size_t{1} << 24;
  config.quantum = 500;  // frequent dispatches
  config.fast_path = path.fast_path;
  config.block_engine = path.block_engine;
  if (fault_rate_ppm != 0) {
    config.fault = FaultConfig::Uniform(fault_seed, fault_rate_ppm);
  }
  Machine machine(config);
  EXPECT_TRUE(machine.ok());
  EXPECT_TRUE(machine.registry()
                  .CreatePagedSegment("bigdata", 4 * kPageWords,
                                      AccessControlList::Public(MakeDataSegment(4, 4)),
                                      /*populate=*/false)
                  .has_value());
  EXPECT_TRUE(machine.LoadProgramSource(kFleetSource, FleetAcls()));
  machine.trace().set_enabled(true);

  const struct {
    const char* segment;
    const char* entry;
  } kFleet[] = {{"spin", "sstart"}, {"pager", "pstart"}, {"chatty", "cstart"}};
  for (const auto& e : kFleet) {
    Process* p = machine.Login(e.segment);
    EXPECT_NE(p, nullptr);
    machine.supervisor().InitiateAll(p);
    EXPECT_TRUE(machine.Start(p, e.segment, e.entry, kUserRing));
  }

  // Several bounded slices, so scheduling/trap interleavings recur.
  for (int i = 0; i < 4; ++i) {
    machine.Run(400'000);
  }

  Fingerprint fp;
  fp.cycles = machine.cpu().cycles();
  fp.regs = machine.cpu().regs();
  fp.counters = machine.cpu().counters();
  fp.CaptureTraps(machine.trace());
  fp.tty = machine.TtyOutput();
  for (const auto& process : machine.supervisor().processes()) {
    fp.processes.push_back(StrFormat(
        "pid=%lld state=%d cause=%s", static_cast<long long>(process->pid),
        static_cast<int>(process->state),
        std::string(TrapCauseName(process->kill_cause)).c_str()));
  }
  return fp;
}

TEST(FastPathDifferential, FleetNoFaults) {
  ExpectAllFingerprintsEqual(RunFleet(kSlowPath, 0, 0), RunFleet(kFastNoBlock, 0, 0),
                             RunFleet(kFastWithBlock, 0, 0));
}

// With fault injection the identity is stronger: the injector's RNG
// stream is consumed at SDW-fetch misses, instruction boundaries and
// indirect-word retrievals, so any divergence in what the fast path
// skips would desynchronize every subsequent injection.
TEST(FastPathDifferential, FleetFaultSeedA) {
  ExpectAllFingerprintsEqual(RunFleet(kSlowPath, 0xA11CE, 2'000),
                             RunFleet(kFastNoBlock, 0xA11CE, 2'000),
                             RunFleet(kFastWithBlock, 0xA11CE, 2'000));
}

TEST(FastPathDifferential, FleetFaultSeedB) {
  ExpectAllFingerprintsEqual(RunFleet(kSlowPath, 0xB0B, 5'000),
                             RunFleet(kFastNoBlock, 0xB0B, 5'000),
                             RunFleet(kFastWithBlock, 0xB0B, 5'000));
}

// The fast path must actually engage for the runs above to mean anything.
// The fleet's pager pounds a paged segment, so the TLB must be taking
// hits as well as the verdict and instruction caches.
TEST(FastPathDifferential, FastPathEngages) {
  const Fingerprint on = RunFleet(kFastWithBlock, 0, 0);
  EXPECT_GT(on.counters.verdict_hits, 0u);
  EXPECT_GT(on.counters.insn_cache_hits, 0u);
  EXPECT_GT(on.counters.tlb_hits, 0u);
  EXPECT_GT(on.counters.block_builds, 0u);
  EXPECT_GT(on.counters.block_hits, 0u);
  EXPECT_GT(on.counters.block_ops, 0u);
  const Fingerprint no_block = RunFleet(kFastNoBlock, 0, 0);
  EXPECT_GT(no_block.counters.verdict_hits, 0u);
  EXPECT_EQ(no_block.counters.block_ops, 0u);
  const Fingerprint off = RunFleet(kSlowPath, 0, 0);
  EXPECT_EQ(off.counters.verdict_hits, 0u);
  EXPECT_EQ(off.counters.insn_cache_hits, 0u);
  EXPECT_EQ(off.counters.tlb_hits, 0u);
  EXPECT_EQ(off.counters.block_ops, 0u);
}

// ---------------------------------------------------------------------------
// Self-modifying code: a program overwrites the instruction it then jumps
// back to. The decoded-instruction cache must see the store; a stale
// decode would leave A at 1 instead of 99.
// ---------------------------------------------------------------------------

Fingerprint RunSelfModify(PathConfig path) {
  MachineConfig config;
  config.fast_path = path.fast_path;
  config.block_engine = path.block_engine;
  Machine machine(config);
  EXPECT_TRUE(machine.ok());
  // A procedure segment ring 4 may also write into: write bracket [0,4],
  // execute bracket [4,4].
  SegmentAccess access = MakeProcedureSegment(4, 4);
  access.flags.write = true;
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(access);
  EXPECT_TRUE(machine.LoadProgramSource(R"(
        .segment main
start:  ldq   patch
        ldai  1
target: ldai  1
        stq   target
        tra   target
patch:  ldai  99
)",
                                        acls));
  Process* p = machine.Login("selfmod");
  EXPECT_NE(p, nullptr);
  machine.supervisor().InitiateAll(p);
  EXPECT_TRUE(machine.Start(p, "main", "start", kUserRing));
  machine.trace().set_enabled(true);
  machine.Run(50'000);

  Fingerprint fp;
  fp.cycles = machine.cpu().cycles();
  fp.regs = machine.cpu().regs();
  fp.counters = machine.cpu().counters();
  fp.CaptureTraps(machine.trace());
  // The patched instruction must have taken effect (this is what a stale
  // cached decode would break).
  EXPECT_EQ(fp.regs.a, 99u);
  return fp;
}

TEST(FastPathDifferential, SelfModifyingCode) {
  ExpectAllFingerprintsEqual(RunSelfModify(kSlowPath), RunSelfModify(kFastNoBlock),
                             RunSelfModify(kFastWithBlock));
}

// ---------------------------------------------------------------------------
// Self-modifying PAGED code: the same patch-and-jump program, but the
// procedure segment lives behind a page table, so instruction fetches run
// through the TLB + decoded-instruction fast path. A stale decode (or a
// stale translation revalidating one) would leave A at 1 instead of 99.
// ---------------------------------------------------------------------------

Fingerprint RunSelfModifyPaged(PathConfig path) {
  MachineConfig config;
  config.fast_path = path.fast_path;
  config.block_engine = path.block_engine;
  Machine machine(config);
  EXPECT_TRUE(machine.ok());
  SegmentAccess access = MakeProcedureSegment(4, 4);
  access.flags.write = true;
  // The loader only creates unpaged segments, so assemble by hand and put
  // the words into a paged segment (entry = word 0; all references are
  // same-segment, so no .its patches are needed).
  const Program program = AssembleOrDie(R"(
        .segment pmain
start:  ldq   patch
        ldai  1
target: ldai  1
        stq   target
        tra   target
patch:  ldai  99
)");
  EXPECT_EQ(program.segments.size(), 1u);
  EXPECT_TRUE(machine.registry()
                  .CreatePagedSegment("pmain", kPageWords + 8,
                                      AccessControlList::Public(access),
                                      /*populate=*/true, program.segments[0].words)
                  .has_value());
  Process* p = machine.Login("selfmod-paged");
  EXPECT_NE(p, nullptr);
  machine.supervisor().InitiateAll(p);
  EXPECT_TRUE(machine.Start(p, "pmain", "", kUserRing));
  machine.trace().set_enabled(true);
  machine.Run(50'000);

  Fingerprint fp;
  fp.cycles = machine.cpu().cycles();
  fp.regs = machine.cpu().regs();
  fp.counters = machine.cpu().counters();
  fp.CaptureTraps(machine.trace());
  EXPECT_EQ(fp.regs.a, 99u);
  return fp;
}

TEST(FastPathDifferential, SelfModifyingPagedCode) {
  ExpectAllFingerprintsEqual(RunSelfModifyPaged(kSlowPath), RunSelfModifyPaged(kFastNoBlock),
                             RunSelfModifyPaged(kFastWithBlock));
}

// ---------------------------------------------------------------------------
// Page-table relocation and in-place PTW rewrites. A counter program
// pounds a paged data segment while the "supervisor" (the test, between
// run slices) first moves the whole page table to a new address — an SDW
// edit, announced via InvalidateSdw — and then migrates one page to a new
// frame — a PTW store, announced via NotePtwStore. The vacated table and
// frame are poisoned, so any stale translation surviving either
// announcement reads garbage and diverges from the slow-path run.
// ---------------------------------------------------------------------------

constexpr char kPagedCounterSource[] = R"(
        .segment psum
start:  lda   d0,*
        adai  1
        sta   d0,*
        lda   d1,*
        adai  1
        sta   d1,*
        lda   d0,*
        ada   d1,*
        sta   out,*
        tra   start
d0:     .its  4, pdata, 10
d1:     .its  4, pdata, 1034
out:    .its  4, pdata, 2058
)";

Fingerprint RunPageTableUpheaval(PathConfig path) {
  MachineConfig config;
  config.fast_path = path.fast_path;
  config.block_engine = path.block_engine;
  Machine machine(config);
  EXPECT_TRUE(machine.ok());
  EXPECT_TRUE(machine.registry()
                  .CreatePagedSegment("pdata", 3 * kPageWords,
                                      AccessControlList::Public(MakeDataSegment(4, 4)),
                                      /*populate=*/true)
                  .has_value());
  std::map<std::string, AccessControlList> acls;
  acls["psum"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  EXPECT_TRUE(machine.LoadProgramSource(kPagedCounterSource, acls));
  Process* p = machine.Login("upheaval");
  EXPECT_NE(p, nullptr);
  machine.supervisor().InitiateAll(p);
  EXPECT_TRUE(machine.Start(p, "psum", "start", kUserRing));
  machine.trace().set_enabled(true);

  machine.Run(50'000);  // warm the caches on the original table

  // --- Relocate the whole page table (descriptor edit). ---
  RegisteredSegment* seg = machine.registry().FindMutable("pdata");
  EXPECT_NE(seg, nullptr);
  const uint64_t pages = PageCount(seg->bound);
  const auto new_table = machine.memory().Allocate(pages);
  EXPECT_TRUE(new_table.has_value());
  for (uint64_t page = 0; page < pages; ++page) {
    machine.memory().Write(*new_table + page, machine.memory().Read(seg->base + page));
    // Poison the vacated PTW: a walk that still trusts the old table
    // faults on a page the new table maps.
    machine.memory().Write(seg->base + page, EncodePtw(Ptw{}));
  }
  seg->base = *new_table;
  DescriptorSegment dseg(&machine.memory(), p->dbr);
  auto sdw = dseg.Fetch(seg->segno);
  EXPECT_TRUE(sdw.has_value());
  sdw->base = *new_table;
  dseg.Store(seg->segno, *sdw);
  machine.cpu().InvalidateSdw(seg->segno);

  machine.Run(50'000);  // re-warm on the relocated table

  // --- Migrate page 1 (the page holding word 1034) to a new frame. ---
  const Ptw old_ptw = DecodePtw(machine.memory().Read(seg->base + 1));
  EXPECT_TRUE(old_ptw.present);
  const auto new_frame = machine.memory().Allocate(kPageWords);
  EXPECT_TRUE(new_frame.has_value());
  for (uint64_t i = 0; i < kPageWords; ++i) {
    machine.memory().Write(*new_frame + i, machine.memory().Read(old_ptw.frame + i));
    // Poison the vacated frame: a stale translation reads garbage counts.
    machine.memory().Write(old_ptw.frame + i, 0xDEADBEEFu);
  }
  machine.memory().Write(seg->base + 1, EncodePtw(Ptw{true, *new_frame}));
  machine.cpu().NotePtwStore(seg->base + 1);

  machine.Run(50'000);

  Fingerprint fp;
  fp.cycles = machine.cpu().cycles();
  fp.regs = machine.cpu().regs();
  fp.counters = machine.cpu().counters();
  fp.CaptureTraps(machine.trace());
  fp.tty = machine.TtyOutput();
  // The data pages themselves survived both moves: the counters kept
  // counting, and the published sum is exactly d0 + d1.
  const auto d0 = machine.PeekSegment("pdata", 10);
  const auto d1 = machine.PeekSegment("pdata", 1034);
  const auto out = machine.PeekSegment("pdata", 2058);
  EXPECT_TRUE(d0.has_value() && d1.has_value() && out.has_value());
  EXPECT_GT(*d0, 0u);
  EXPECT_GT(*d1, 0u);
  // The final slice can stop mid-iteration, after the increments but
  // before the sum is republished, so `out` may trail by up to 2.
  EXPECT_LE(*out, *d0 + *d1);
  EXPECT_GE(*out + 2, *d0 + *d1);
  fp.processes.push_back(
      StrFormat("d0=%llu d1=%llu out=%llu", static_cast<unsigned long long>(*d0),
                static_cast<unsigned long long>(*d1), static_cast<unsigned long long>(*out)));
  return fp;
}

TEST(FastPathDifferential, PageTableRelocationAndFrameMove) {
  ExpectAllFingerprintsEqual(RunPageTableUpheaval(kSlowPath),
                             RunPageTableUpheaval(kFastNoBlock),
                             RunPageTableUpheaval(kFastWithBlock));
}

// ---------------------------------------------------------------------------
// The 645-style baseline: MME crossings swap the DBR on every transition,
// stressing the flush/epoch machinery.
// ---------------------------------------------------------------------------

Fingerprint RunB645(PathConfig path) {
  MachineConfig config;
  config.fast_path = path.fast_path;
  config.block_engine = path.block_engine;
  B645Machine machine(config);
  EXPECT_TRUE(machine.ok());
  std::map<std::string, SegmentAccess> specs;
  specs["main"] = MakeProcedureSegment(4, 4);
  specs["data"] = MakeDataSegment(2, 5);
  specs["scratch"] = MakeDataSegment(4, 5);
  specs["writer"] = MakeProcedureSegment(2, 2, 5, 1);
  EXPECT_TRUE(machine.LoadProgramSource(R"(
        .segment main
start:  ldai  12
loop:   sta   cptr,*
        ldq   target
        mme   1              ; cross-ring call to writer$0
        lda   cptr,*
        sba   one
        tnz   loop
        mme   0
target: .word 0              ; patched: packed (writer, 0)
cptr:   .its  0, scratch, 0
one:    .word 1

        .segment scratch
        .word 0

        .segment writer
        .gates 1
entry:  lda   wptr,*
        adai  1
        sta   wptr,*
        mme   2              ; cross-ring return
wptr:   .its  0, data, 0

        .segment data
        .word 0
)",
                                        specs));
  const Segno writer_segno = machine.registry().Find("writer")->segno;
  EXPECT_TRUE(machine.Start("main", "start", kUserRing));
  EXPECT_TRUE(machine.PokeWordForTest("main", 8, PackB645Target(writer_segno, 0)));
  machine.Run(2'000'000);

  Fingerprint fp;
  fp.cycles = machine.cpu().cycles();
  fp.regs = machine.cpu().regs();
  fp.counters = machine.cpu().counters();
  fp.processes.push_back(StrFormat(
      "exited=%d cause=%s code=%lld crossings=%llu", machine.exited() ? 1 : 0,
      std::string(TrapCauseName(machine.kill_cause())).c_str(),
      static_cast<long long>(machine.exit_code()),
      static_cast<unsigned long long>(machine.crossings())));
  // The workload itself must have worked: 12 round trips, 12 increments.
  EXPECT_TRUE(machine.exited()) << TrapCauseName(machine.kill_cause());
  EXPECT_EQ(machine.crossings(), 12u);
  EXPECT_EQ(machine.PeekWordForTest("data", 0), 12u);
  return fp;
}

TEST(FastPathDifferential, B645Crossings) {
  ExpectAllFingerprintsEqual(RunB645(kSlowPath), RunB645(kFastNoBlock),
                             RunB645(kFastWithBlock));
}

// ---------------------------------------------------------------------------
// Per-kind charge equality. Every reference kind crossed with every
// outcome, on paged and unpaged segments, run on a bare processor twice
// from the same start: the first pass walks descriptors and fills the
// verdict, decode, TLB and crossing caches, the second meets them warm
// (a denied or out-of-bounds reference then finds a verdict that does not
// vouch for it). Slow path, fast path and block engine must agree on
// cycles, architectural counters and the trap cause of each pass; the
// two configurations with a live TLB must agree on tlb_hits. Allowed
// fetches, operands, indirections and transfers are left to the
// workloads above; CALL and RETURN get allowed rows here too, since this
// is where their crossing memo replays a same-segment crossing.
// ---------------------------------------------------------------------------

enum class RefCase { kFetch, kIndirect, kRead, kWrite, kTransfer, kCall, kReturn };
enum class Outcome { kAllowed, kDenied, kOutOfBounds, kMissingSegment };

struct ChargeRow {
  RefCase kind;
  Outcome outcome;
  bool paged;
};

std::string RowName(const ChargeRow& row) {
  static constexpr const char* kKinds[] = {"fetch",    "indirect", "read",  "write",
                                           "transfer", "call",     "return"};
  static constexpr const char* kOutcomes[] = {"allowed", "denied", "oob", "missing"};
  return StrFormat("%s/%s/%s", kKinds[static_cast<int>(row.kind)],
                   kOutcomes[static_cast<int>(row.outcome)], row.paged ? "paged" : "unpaged");
}

// The trap each pass of the row must end in; an allowed reference runs
// on to the MME behind it.
TrapCause ExpectedCause(const ChargeRow& row) {
  switch (row.outcome) {
    case Outcome::kAllowed:
      return TrapCause::kMasterModeEntry;
    case Outcome::kOutOfBounds:
      return TrapCause::kBoundsViolation;
    case Outcome::kMissingSegment:
      return TrapCause::kMissingSegment;
    case Outcome::kDenied:
      break;
  }
  switch (row.kind) {
    case RefCase::kIndirect:
    case RefCase::kRead:
      return TrapCause::kReadViolation;
    case RefCase::kWrite:
      return TrapCause::kWriteViolation;
    case RefCase::kTransfer:
      return TrapCause::kTransferRingViolation;
    case RefCase::kCall:
      return TrapCause::kGateViolation;
    case RefCase::kFetch:
    case RefCase::kReturn:
      return TrapCause::kExecuteViolation;
  }
  return TrapCause::kNone;
}

// Adds a segment, then (paged) moves it behind a one-page page table
// whose frame is the segment's own storage.
Segno AddRowSegment(BareMachine& m, const std::vector<Word>& words, const SegmentAccess& access,
                    bool paged) {
  const Segno segno = m.AddSegment(words, access);
  if (paged) {
    Sdw sdw = *m.dseg().Fetch(segno);
    const AbsAddr table = *m.memory().Allocate(1);
    m.memory().Write(table, EncodePtw(Ptw{true, sdw.base}));
    sdw.paged = true;
    sdw.base = table;
    m.dseg().Store(segno, sdw);
    m.cpu().InvalidateSdw(segno);
  }
  return segno;
}

Fingerprint RunChargeRow(const ChargeRow& row, PathConfig path) {
  // The code segment C holds the reference at word 0, an MME at word 1
  // (every allowed row ends there), a data word and an indirect word to
  // it. E is a ring-4 data segment (not executable), G a procedure with
  // one gate; segment 63 is absent.
  constexpr int32_t kEnd = 1;  // the MME
  constexpr int32_t kData = 2;
  constexpr int32_t kIndirect = 3;
  constexpr int32_t kBeyond = 200;
  constexpr Segno kCode = 0;
  constexpr Segno kAbsent = 63;
  constexpr uint8_t kPrAbsent = 1;
  constexpr uint8_t kPrHigher = 2;  // ring 5 pointer into C
  constexpr uint8_t kPrGate = 3;    // G
  constexpr uint8_t kPrData = 4;    // E

  const bool denied = row.outcome == Outcome::kDenied;
  const bool oob = row.outcome == Outcome::kOutOfBounds;
  const bool missing = row.outcome == Outcome::kMissingSegment;
  auto operand = [&](Opcode op, bool indirect) {
    Instruction ins = missing ? MakeInsPr(op, kPrAbsent, 0)
                              : MakeIns(op, oob ? kBeyond : indirect ? kIndirect : kData);
    ins.indirect = indirect;
    return ins;
  };
  auto transfer = [&](Opcode op, uint8_t denied_pr, int32_t denied_offset) {
    if (missing) {
      return MakeInsPr(op, kPrAbsent, 0);
    }
    if (denied) {
      return MakeInsPr(op, denied_pr, denied_offset);
    }
    return MakeIns(op, oob ? kBeyond : kEnd);
  };
  Instruction ref = MakeIns(Opcode::kNop);
  switch (row.kind) {
    case RefCase::kFetch:
      break;  // the start address below is the reference
    case RefCase::kIndirect:
      ref = operand(Opcode::kLda, /*indirect=*/true);
      break;
    case RefCase::kRead:
      ref = operand(Opcode::kLda, /*indirect=*/false);
      break;
    case RefCase::kWrite:
      ref = operand(Opcode::kSta, /*indirect=*/false);
      break;
    case RefCase::kTransfer:
      ref = transfer(Opcode::kTra, kPrHigher, kEnd);
      break;
    case RefCase::kCall:
      ref = transfer(Opcode::kCall, kPrGate, 1);  // G has one gate: word 1 is not one
      break;
    case RefCase::kReturn:
      ref = transfer(Opcode::kRet, kPrData, 0);
      break;
  }

  BareMachine m;
  m.cpu().set_fast_path_enabled(path.fast_path);
  SegmentAccess code_access = MakeProcedureSegment(4, 4);
  code_access.flags.read =
      !(denied && (row.kind == RefCase::kRead || row.kind == RefCase::kIndirect));
  code_access.flags.write = !(denied && row.kind == RefCase::kWrite);
  const std::vector<Word> code = {
      EncodeInstruction(ref), EncodeInstruction(MakeIns(Opcode::kMme)), 7,
      EncodeIndirectWord(IndirectWord{4, false, kCode, static_cast<Wordno>(kData)})};
  EXPECT_EQ(AddRowSegment(m, code, code_access, row.paged), kCode);
  const Segno data = AddRowSegment(m, {0}, MakeDataSegment(4, 4), row.paged);
  const Segno gate = AddRowSegment(
      m, {EncodeInstruction(MakeIns(Opcode::kMme)), EncodeInstruction(MakeIns(Opcode::kMme))},
      MakeProcedureSegment(4, 4, 5, 1), row.paged);

  // Where each pass starts: fetch rows start at the fetch under test.
  Segno start_segno = kCode;
  Wordno start_wordno = 0;
  if (row.kind == RefCase::kFetch) {
    start_segno = denied ? data : missing ? kAbsent : kCode;
    start_wordno = oob ? static_cast<Wordno>(code.size()) : 0;
  }

  Fingerprint fp;
  for (int pass = 0; pass < 2; ++pass) {
    m.SetIpr(4, start_segno, start_wordno);
    m.SetPr(kPrAbsent, 4, kAbsent, 0);
    m.SetPr(kPrHigher, 5, kCode, kEnd);
    m.SetPr(kPrGate, 4, gate, 0);
    m.SetPr(kPrData, 4, data, 0);
    for (int i = 0; i < 8 && !m.cpu().trap_pending(); ++i) {
      if (path.block_engine) {
        m.cpu().StepBlock(UINT64_MAX);
      } else {
        m.cpu().Step();
      }
    }
    EXPECT_TRUE(m.cpu().trap_pending());
    fp.traps.push_back(std::string(TrapCauseName(m.cpu().TakeTrap().cause)));
  }
  fp.cycles = m.cpu().cycles();
  fp.regs = m.cpu().regs();
  fp.counters = m.cpu().counters();
  return fp;
}

TEST(FastPathDifferential, PerKindChargesMatchForEveryOutcome) {
  for (int kind = 0; kind <= static_cast<int>(RefCase::kReturn); ++kind) {
    for (int outcome = 0; outcome <= static_cast<int>(Outcome::kMissingSegment); ++outcome) {
      for (const bool paged : {false, true}) {
        const ChargeRow row{static_cast<RefCase>(kind), static_cast<Outcome>(outcome), paged};
        if (row.outcome == Outcome::kAllowed && row.kind != RefCase::kCall &&
            row.kind != RefCase::kReturn) {
          continue;  // covered by the workloads above
        }
        SCOPED_TRACE(RowName(row));
        const Fingerprint slow = RunChargeRow(row, kSlowPath);
        const Fingerprint fast = RunChargeRow(row, kFastNoBlock);
        const Fingerprint block = RunChargeRow(row, kFastWithBlock);
        const std::string want(TrapCauseName(ExpectedCause(row)));
        EXPECT_EQ(slow.traps, (std::vector<std::string>{want, want}));
        ExpectAllFingerprintsEqual(slow, fast, block);
        EXPECT_EQ(fast.counters.tlb_hits, block.counters.tlb_hits);
        EXPECT_EQ(slow.counters.tlb_hits, 0u);
        // Every segment that exists got a verdict on the first pass, so
        // the second pass met it warm.
        if (row.kind != RefCase::kFetch || row.outcome != Outcome::kMissingSegment) {
          EXPECT_GT(fast.counters.verdict_misses, 0u);
        }
      }
    }
  }
}

}  // namespace
}  // namespace rings
