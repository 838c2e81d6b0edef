// Seeded random guest-program generator for the differential fuzzer.
//
// GenerateGuest(seed) produces a complete, self-contained ringsim guest
// source file — `;;` manifest lines plus assembly — that is guaranteed to
// assemble and to terminate within a modest cycle budget (every loop is
// counted, every call returns, every trap either resumes or kills the
// process deterministically). The same seed always yields byte-identical
// source, so a seed alone is a full repro.
//
// The instruction mix is deliberately weighted toward the regions where
// the three engines (per-instruction slow path, fast path, superblock
// engine) and the fleet/snapshot machinery have historically been most at
// risk of diverging:
//   - CALL/RETURN gate crossings, including calls executed inside counted
//     loops (the only place the block engine re-executes a decoded CALL);
//   - indirect-word chains through planted .its words, including chains
//     that deepen inside data segments;
//   - stores into an executable segment (self-modifying code, the block
//     store-invalidation site);
//   - demand-paged segments whose pages fault in mid-run;
//   - access-violation probes that kill a process mid-program;
//   - loop counts sized to straddle scheduling-quantum boundaries, and
//     occasionally a second process multiplexed on the same machine;
//   - tty output through the supervisor gate (I/O completions in flight).
#ifndef SRC_FUZZ_GENERATOR_H_
#define SRC_FUZZ_GENERATOR_H_

#include <cstdint>
#include <string>

namespace rings {

struct GeneratorConfig {
  // Number of top-level program steps in the main process body.
  int min_steps = 6;
  int max_steps = 18;
  // A budget every generated program must terminate well within (the
  // harness and tests run with this; generated loops are sized to use a
  // few percent of it at most).
  uint64_t max_cycles = 2'000'000;
};

struct GeneratedGuest {
  uint64_t seed = 0;
  std::string source;  // manifest + assembly, ringsim-runnable as-is
};

GeneratedGuest GenerateGuest(uint64_t seed, const GeneratorConfig& config = GeneratorConfig{});

}  // namespace rings

#endif  // SRC_FUZZ_GENERATOR_H_
