#include "src/fuzz/differential.h"

#include <memory>
#include <utility>

#include "src/base/strings.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/fleet.h"
#include "src/snapshot/snapshot.h"

namespace rings {

namespace {

// Fleet legs to run: one single-machine fleet per thread count. The
// fleet must agree with the standalone reference at every count.
constexpr int kFleetThreads[] = {1, 4, 8};

// All legs share one machine shape; only the engine tiers differ.
// 1M words is plenty for generated guests and keeps a leg's core store
// cheap to construct eight times per trial.
MachineConfig BaseConfig() {
  MachineConfig config;
  config.memory_words = size_t{1} << 20;
  return config;
}

}  // namespace

std::string Divergence::ToString() const {
  if (!found) {
    return "no divergence";
  }
  return StrFormat("leg %s: %s", leg.c_str(), detail.c_str());
}

CheckResult CheckGuest(const std::string& source, const FuzzOptions& options) {
  CheckResult result;

  const AssembleResult assembled = Assemble(source);
  if (!assembled.ok) {
    result.error = "assembly: " + assembled.error.ToString();
    return result;
  }
  const Manifest manifest = ParseManifest(source);
  if (!manifest.ok()) {
    result.error = "manifest: " + manifest.error;
    return result;
  }
  const Program& program = assembled.program;

  // --- reference leg: the reference tier -------------------------------
  // Every leg boots traced, so every leg, fleet and clone legs included,
  // records its trap/ring-switch sequence for RunSignature::traps (the
  // fingerprint never reads the trace).
  MachineConfig slow = BaseConfig();
  ApplyTier(EngineTier::kReference, &slow);
  std::string error;
  auto ref_machine = BootGuest(slow, program, manifest, &error, /*trace=*/true);
  if (ref_machine == nullptr) {
    result.error = "instantiate: " + error;
    return result;
  }
  const RunResult ref_run = ref_machine->Run(options.max_cycles);
  if (!ref_run.idle) {
    result.error = StrFormat("reference run did not terminate within %llu cycles",
                             static_cast<unsigned long long>(options.max_cycles));
    return result;
  }
  result.reference = SignatureOf(*ref_machine);
  result.ok = true;

  auto diverged = [&result](const std::string& leg, std::string detail) {
    result.divergence.found = true;
    result.divergence.leg = leg;
    result.divergence.detail = std::move(detail);
  };

  // Every other leg runs with the options' sabotage switched on; only the
  // tiers that run blocks (or chain them) can trip it.
  MachineConfig optimized = BaseConfig();
  optimized.block_call_ablation = options.ablate_block_call;
  optimized.chain_ablation = options.ablate_chain;

  // --- standalone legs: one per other tier, fastest first ----------------
  for (const EngineTier tier : kEngineTiers) {
    if (tier == EngineTier::kReference) {
      continue;
    }
    const std::string leg(EngineTierName(tier));
    MachineConfig config = optimized;
    ApplyTier(tier, &config);
    auto machine = BootGuest(config, program, manifest, &error, /*trace=*/true);
    if (machine == nullptr) {
      diverged(leg, "instantiate: " + error);
      return result;
    }
    machine->Run(options.max_cycles);
    if (std::string diff = Compare(result.reference, SignatureOf(*machine)); !diff.empty()) {
      diverged(leg, std::move(diff));
      return result;
    }
  }

  // --- fleet legs: one-machine fleets at several thread counts -----------
  // (thread count must not matter, but each count exercises different
  // worker/steal interleavings of the quantum schedule).
  // One cold build, sealed as a golden image; every fleet leg then
  // spawns by copy-on-write clone (the serving daemon's path), so the
  // fleet legs double as a clone-vs-cold bit-identity check.
  auto cold = BootGuest(optimized, program, manifest, &error, /*trace=*/true);
  if (cold == nullptr) {
    diverged("fleet-golden", "instantiate: " + error);
    return result;
  }
  cold->memory().SealForCloning();
  const std::shared_ptr<const Machine> golden = std::move(cold);
  for (const int threads : kFleetThreads) {
    FleetConfig fc;
    fc.threads = threads;
    fc.slice_cycles = 50'000;
    Fleet fleet(fc);
    fleet.Add("fuzz", [golden] { return Machine::CloneFrom(*golden); });
    fleet.Run();
    if (std::string diff = Compare(result.reference, fleet.results()[0].run); !diff.empty()) {
      diverged(StrFormat("fleet-%d", threads), std::move(diff));
      return result;
    }
  }

  // --- snapshot leg: cut the block-engine run in half, snapshot, restore
  // into a bare machine, and finish there --------------------------------
  if (result.reference.cycles >= 2) {
    auto live = BootGuest(optimized, program, manifest, &error, /*trace=*/true);
    if (live == nullptr) {
      diverged("snapshot", "instantiate: " + error);
      return result;
    }
    live->Run(result.reference.cycles / 2);
    std::vector<uint8_t> image;
    if (!SaveSnapshot(*live, &image, &error)) {
      diverged("snapshot", "save: " + error);
      return result;
    }
    auto restored = RestoreGuest(optimized, image, optimized.memory_words, &error);
    if (restored == nullptr) {
      diverged("snapshot", "restore: " + error);
      return result;
    }
    restored->Run(options.max_cycles);
    if (std::string diff = Compare(result.reference, SignatureOf(*restored)); !diff.empty()) {
      diverged("snapshot", std::move(diff));
      return result;
    }
  }

  return result;
}

}  // namespace rings
