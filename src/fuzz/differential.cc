#include "src/fuzz/differential.h"

#include <memory>
#include <utility>

#include "src/base/strings.h"
#include "src/fleet/fingerprint.h"
#include "src/fleet/fleet.h"
#include "src/snapshot/snapshot.h"

namespace rings {

namespace {

// All legs share one machine shape; only the engine switches differ.
// 1M words is plenty for generated guests and keeps a leg's core store
// cheap to construct eight times per trial.
MachineConfig BaseConfig() {
  MachineConfig config;
  config.memory_words = size_t{1} << 20;
  return config;
}

RunSignature SignatureOf(const Machine& machine) {
  RunSignature sig;
  sig.fingerprint = FingerprintMachine(machine);
  sig.cycles = machine.cpu().cycles();
  sig.instructions = machine.cpu().counters().instructions;
  sig.counters_digest = FingerprintCounters(machine.cpu().counters());
  for (const TraceEvent& event : machine.trace().events()) {
    if (event.kind == EventKind::kTrap || event.kind == EventKind::kRingSwitch) {
      sig.traps.push_back(event.ToString());
    }
  }
  for (const auto& process : machine.supervisor().processes()) {
    sig.processes.push_back(ProcessStatusLine(*process));
  }
  sig.tty = machine.TtyOutput();
  return sig;
}

std::string CompareLists(const char* what, const std::vector<std::string>& ref,
                         const std::vector<std::string>& got) {
  if (ref.size() != got.size()) {
    return StrFormat("%s count %zu vs %zu", what, ref.size(), got.size());
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (ref[i] != got[i]) {
      return StrFormat("%s[%zu] '%s' vs '%s'", what, i, ref[i].c_str(), got[i].c_str());
    }
  }
  return "";
}

// Empty string when the signatures agree; otherwise the first differing
// field with both values.
std::string Compare(const RunSignature& ref, const RunSignature& got) {
  if (ref.cycles != got.cycles) {
    return StrFormat("cycles %llu vs %llu", static_cast<unsigned long long>(ref.cycles),
                     static_cast<unsigned long long>(got.cycles));
  }
  if (ref.instructions != got.instructions) {
    return StrFormat("instructions %llu vs %llu",
                     static_cast<unsigned long long>(ref.instructions),
                     static_cast<unsigned long long>(got.instructions));
  }
  if (ref.counters_digest != got.counters_digest) {
    return StrFormat("counters digest %016llx vs %016llx",
                     static_cast<unsigned long long>(ref.counters_digest),
                     static_cast<unsigned long long>(got.counters_digest));
  }
  if (std::string diff = CompareLists("trap", ref.traps, got.traps); !diff.empty()) {
    return diff;
  }
  if (std::string diff = CompareLists("process", ref.processes, got.processes); !diff.empty()) {
    return diff;
  }
  if (ref.tty != got.tty) {
    return StrFormat("tty '%s' vs '%s'", ref.tty.c_str(), got.tty.c_str());
  }
  if (ref.fingerprint != got.fingerprint) {
    return StrFormat("fingerprint %016llx vs %016llx",
                     static_cast<unsigned long long>(ref.fingerprint),
                     static_cast<unsigned long long>(got.fingerprint));
  }
  return "";
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

  // --- reference leg: the per-instruction slow path ----------------------
  // Every leg boots traced, so every leg records the identical event
  // sequence (the fingerprint folds the trace in when enabled).
  MachineConfig slow = BaseConfig();
  slow.fast_path = false;
  slow.block_engine = false;
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

  // --- standalone legs: fast path, superblock engine, chaining off -------
  struct EngineLeg {
    const char* name;
    bool fast_path;
    bool block_engine;
    bool chain;
  };
  static constexpr EngineLeg kLegs[] = {
      {"fast", true, false, false},
      {"block", true, true, true},
      {"block-nochain", true, true, false},
  };
  for (const EngineLeg& leg : kLegs) {
    MachineConfig config = BaseConfig();
    config.fast_path = leg.fast_path;
    config.block_engine = leg.block_engine;
    config.chain = leg.chain && options.chain;
    config.shared_decode = options.shared_decode;
    config.block_call_ablation = options.ablate_block_call;
    config.chain_ablation = options.ablate_chain;
    auto machine = BootGuest(config, program, manifest, &error, /*trace=*/true);
    if (machine == nullptr) {
      diverged(leg.name, "instantiate: " + error);
      return result;
    }
    machine->Run(options.max_cycles);
    if (std::string diff = Compare(result.reference, SignatureOf(*machine)); !diff.empty()) {
      diverged(leg.name, std::move(diff));
      return result;
    }
  }

  // --- fleet legs: one-machine fleets at several thread counts -----------
  // (thread count must not matter, but each count exercises different
  // worker/steal interleavings of the quantum schedule).
  MachineConfig fleet_config = BaseConfig();
  fleet_config.block_call_ablation = options.ablate_block_call;
  fleet_config.chain = options.chain;
  fleet_config.shared_decode = options.shared_decode;
  fleet_config.chain_ablation = options.ablate_chain;
  if (options.check_fleet) {
    // One cold build, sealed as a golden image; every fleet leg then
    // spawns by copy-on-write clone (the serving daemon's path), so the
    // fleet legs double as a clone-vs-cold bit-identity check.
    std::shared_ptr<const Machine> golden;
    if (options.fleet_clone) {
      auto cold = BootGuest(fleet_config, program, manifest, &error, /*trace=*/true);
      if (cold == nullptr) {
        diverged("fleet-golden", "instantiate: " + error);
        return result;
      }
      cold->memory().SealForCloning();
      golden = std::move(cold);
    }
    for (const int threads : options.fleet_threads) {
      FleetConfig fc;
      fc.threads = threads;
      fc.slice_cycles = 50'000;
      Fleet fleet(fc);
      fleet.Add("fuzz", [golden, fleet_config, program, manifest]() -> std::unique_ptr<Machine> {
        if (golden != nullptr) {
          return Machine::CloneFrom(*golden);
        }
        std::string factory_error;
        return BootGuest(fleet_config, program, manifest, &factory_error, /*trace=*/true);
      });
      fleet.Run();
      const MachineResult& res = fleet.results()[0];
      const std::string leg = StrFormat("fleet-%d", threads);
      RunSignature got;
      got.fingerprint = res.fingerprint;
      got.cycles = res.cycles;
      got.instructions = res.instructions;
      got.counters_digest = FingerprintCounters(res.counters);
      got.traps = result.reference.traps;  // fleet results carry no trap list;
                                           // the fingerprint covers it
      got.processes = res.process_status;
      got.tty = res.tty;
      if (std::string diff = Compare(result.reference, got); !diff.empty()) {
        diverged(leg, std::move(diff));
        return result;
      }
    }
  }

  // --- snapshot leg: cut the block-engine run in half --------------------
  if (options.check_snapshot && result.reference.cycles >= 2) {
    MachineConfig config = BaseConfig();
    config.block_call_ablation = options.ablate_block_call;
    config.chain = options.chain;
    config.shared_decode = options.shared_decode;
    config.chain_ablation = options.ablate_chain;
    auto live = BootGuest(config, program, manifest, &error, /*trace=*/true);
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
    auto restored = RestoreGuest(config, image, config.memory_words, &error);
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
