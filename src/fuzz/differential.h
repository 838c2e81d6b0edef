// The differential oracle: run one guest program under every execution
// configuration the simulator promises is bit-identical — every
// EngineTier, the fleet engine at several thread counts, and a
// snapshot/restore cut mid-run — and compare each run with the reference
// tier's through the one run comparator (Compare, src/fleet/fingerprint.h).
// Any disagreement is a Divergence naming the leg and the first
// differing field.
#ifndef SRC_FUZZ_DIFFERENTIAL_H_
#define SRC_FUZZ_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fleet/fingerprint.h"
#include "src/sys/machine.h"
#include "src/sys/manifest.h"

namespace rings {

struct FuzzOptions {
  // Cycle budget every leg runs under. Generated guests terminate well
  // within this; a guest that does not is reported as an error, not a
  // divergence.
  uint64_t max_cycles = 2'000'000;
  // Deliberately sabotage the superblock engine on every non-reference
  // leg (MachineConfig::block_call_ablation) so tests can prove the
  // oracle and shrinker actually catch a broken engine.
  bool ablate_block_call = false;
  // Same, for block-to-block chaining (MachineConfig::chain_ablation):
  // one spurious cycle per followed link on every chaining leg.
  bool ablate_chain = false;
};

struct Divergence {
  bool found = false;
  std::string leg;     // an EngineTierName, "fleet-4", "snapshot", ...
  std::string detail;  // first differing field, ref vs leg values

  std::string ToString() const;
};

struct CheckResult {
  // False when the guest could not be checked at all (assembly or
  // manifest error, failed instantiation, reference run not terminating);
  // `error` says why. Divergence is only meaningful when ok.
  bool ok = false;
  std::string error;
  Divergence divergence;
  RunSignature reference;  // the reference tier's signature, for reporting
};

// Runs the full differential check on one guest source file (manifest
// lines included).
CheckResult CheckGuest(const std::string& source, const FuzzOptions& options = FuzzOptions{});

}  // namespace rings

#endif  // SRC_FUZZ_DIFFERENTIAL_H_
