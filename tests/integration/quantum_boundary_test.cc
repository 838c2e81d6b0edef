// Quantum-boundary regression: events that land BETWEEN two instructions
// of a hot straight-line run — the timer running out, and a fault-injector
// trap — must produce identical architectural outcomes on every engine
// tier (kEngineTiers), compared through the one run comparator. This is
// the sharpest edge of the block engine's contract: the per-instruction
// boundary work (timer decrement, fault-injection hooks, trap capture
// state) runs before every op of a block, and a trap raised there must
// deliver exactly as it would between two Step() calls, with the rest of
// the block abandoned.
//
// The quantum is swept over values coprime to the hot loop's length so the
// runout lands at many different offsets inside a cached block, not just
// at block heads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/fleet/fingerprint.h"
#include "src/sys/machine.h"
#include "tests/testutil.h"

namespace rings {
namespace {

// A hot straight-line run: 14 data-free or same-slot instructions between
// back edges, so the superblock engine chains one long block per lap and
// almost every timer runout lands in its interior.
constexpr char kHotSource[] = R"(
        .segment hot
start:  ldai  0
loop:   adai  1
        adai  1
        adai  1
        adai  1
        adai  1
        adai  1
        sta   slot,*
        lda   slot,*
        adai  1
        adai  1
        adai  1
        sta   slot,*
        lda   slot,*
        tra   loop
slot:   .its  4, counters, 0

        .segment counters
        .word 0
)";

RunSignature RunHotLoop(EngineTier tier, uint64_t quantum, uint64_t fault_seed,
                        uint32_t fault_rate_ppm) {
  MachineConfig config;
  config.quantum = quantum;
  ApplyTier(tier, &config);
  if (fault_rate_ppm != 0) {
    config.fault = FaultConfig::Uniform(fault_seed, fault_rate_ppm);
  }
  Machine machine(config);
  EXPECT_TRUE(machine.ok());
  std::map<std::string, AccessControlList> acls;
  acls["hot"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["counters"] = AccessControlList::Public(MakeDataSegment(4, 4));
  EXPECT_TRUE(machine.LoadProgramSource(kHotSource, acls));
  Process* p = machine.Login("hot");
  EXPECT_NE(p, nullptr);
  machine.supervisor().InitiateAll(p);
  EXPECT_TRUE(machine.Start(p, "hot", "start", kUserRing));
  machine.trace().set_enabled(true);

  // Several bounded slices: runouts, trap deliveries and re-dispatches
  // recur at shifting offsets into the hot block.
  for (int i = 0; i < 3; ++i) {
    machine.Run(40'000);
  }

  return SignatureOf(machine);
}

// Timer runout mid-block. Quanta are chosen coprime to the loop's cycle
// footprint so successive runouts sweep across every intra-block offset.
TEST(QuantumBoundary, TimerRunoutLandsIdenticallyAcrossFastPaths) {
  for (const uint64_t quantum : {61u, 97u, 127u, 509u}) {
    SCOPED_TRACE(StrFormat("quantum=%llu", static_cast<unsigned long long>(quantum)));
    const std::vector<RunSignature> runs = ExpectSameRunOnEveryTier(
        [quantum](EngineTier tier) { return RunHotLoop(tier, quantum, 0, 0); });
    // The scenario must actually exercise its edge: runouts happened, and
    // the block engine was executing the hot run when they did.
    const RunSignature& blocks = runs[0];
    EXPECT_GT(blocks.counters.TrapCount(TrapCause::kTimerRunout), 0u);
    EXPECT_GT(blocks.counters.block_ops, 0u);
    EXPECT_GT(blocks.counters.block_hits, 0u);
  }
}

// Fault-injector traps mid-block: the injector consumes its RNG stream at
// every instruction boundary, so a spurious missing-page trap (and the
// cache drops that precede it) lands between two ops of a hot block. Any
// divergence in boundary-work placement desynchronizes the stream and the
// fingerprints split immediately.
TEST(QuantumBoundary, InjectedTrapLandsIdenticallyAcrossFastPaths) {
  for (const uint64_t seed : {0x5EEDu, 0xFACEu}) {
    SCOPED_TRACE(StrFormat("seed=%llx", static_cast<unsigned long long>(seed)));
    const std::vector<RunSignature> runs = ExpectSameRunOnEveryTier(
        [seed](EngineTier tier) { return RunHotLoop(tier, 509, seed, 5'000); });
    // The injector must actually have fired into the hot run: some trap
    // other than the scheduler's timer runout was delivered.
    const RunSignature& blocks = runs[0];
    uint64_t injected_traps = 0;
    for (size_t i = 0; i < blocks.counters.traps.size(); ++i) {
      if (static_cast<TrapCause>(i) != TrapCause::kTimerRunout) {
        injected_traps += blocks.counters.traps[i];
      }
    }
    EXPECT_GT(injected_traps, 0u);
    EXPECT_GT(blocks.counters.block_ops, 0u);
  }
}

}  // namespace
}  // namespace rings
