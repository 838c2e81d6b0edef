// Deterministic hardware-fault injection. The paper's third acceptance
// criterion for a protection mechanism is "confidence that no way exists to
// circumvent it"; this module supplies the adversarial half of that
// confidence by letting tests and long-running simulations subject the
// supervisor to the faults real hardware produces: corrupted descriptor
// words, dropped descriptor-cache entries, flaky ring fields in indirect
// words, spurious missing-page traps, and late I/O completions.
//
// Fault model (see DESIGN.md, "Fault model & recovery"): the injector
// simulates *detected* faults — the kind parity-checked hardware converts
// into traps or into more-restrictive state. Corruption is therefore
// restriction-only (a bracket never widens, a flag never turns on, a ring
// field never drops). A fault that silently *granted* access would be a
// corrupted protection TCB, which no software above it can defend against;
// that failure class is explicitly out of scope.
//
// Everything is driven by the seedable Xorshift generator, so a run is
// exactly reproducible from (seed, rates); the bounded event log makes each
// injected fault attributable after the fact.
#ifndef SRC_FAULT_FAULT_INJECTOR_H_
#define SRC_FAULT_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/xorshift.h"
#include "src/isa/indirect_word.h"
#include "src/mem/sdw.h"
#include "src/mem/word.h"

namespace rings {

// The instrumented sites. Each site is rolled independently at every
// opportunity (an SDW fetch, an instruction boundary, ...).
enum class FaultSite {
  kSdwCorruption = 0,      // restrictive bit damage to an SDW at fetch time
  kSdwCacheDrop,           // a descriptor-cache entry silently invalidated
  kIndirectRingCorruption, // ring field of an indirect word raised
  kSpuriousMissingPage,    // missing-page trap with nothing actually wrong
  kIoDelay,                // extra latency on an I/O completion
  kSnapshotWrite,          // a snapshot image byte damaged on its way to stable storage
  kSnapshotRead,           // a snapshot image byte damaged on its way back
  kNumSites,
};

inline constexpr size_t kNumFaultSites = static_cast<size_t>(FaultSite::kNumSites);

std::string_view FaultSiteName(FaultSite site);

struct FaultConfig {
  bool enabled = false;
  uint64_t seed = 1;
  // Per-site injection probability in parts per million per opportunity.
  std::array<uint32_t, kNumFaultSites> rate_ppm{};

  // Convenience: every site at the same rate.
  static FaultConfig Uniform(uint64_t seed, uint32_t ppm) {
    FaultConfig config;
    config.enabled = ppm > 0;
    config.seed = seed;
    config.rate_ppm.fill(ppm);
    return config;
  }

  uint32_t rate(FaultSite site) const { return rate_ppm[static_cast<size_t>(site)]; }
  void set_rate(FaultSite site, uint32_t ppm) {
    rate_ppm[static_cast<size_t>(site)] = ppm;
    if (ppm > 0) {
      enabled = true;
    }
  }
};

// One injected fault, for the replayable log.
struct FaultEvent {
  uint64_t sequence = 0;  // 0-based injection order (stable across replays)
  FaultSite site = FaultSite::kSdwCorruption;
  uint64_t cycle = 0;
  Segno segno = 0;
  Wordno wordno = 0;
  std::string detail;

  std::string ToString() const;
};

class FaultInjector {
 public:
  // Retained log entries; injections past the cap are counted but not
  // logged, so unattended soaks stay bounded in memory.
  static constexpr size_t kMaxLoggedEvents = 4096;

  explicit FaultInjector(FaultConfig config);

  const FaultConfig& config() const { return config_; }

  // --- hooks, called from the instrumented sites -------------------------
  // Each returns whether a fault was injected (and records it if so).

  // Damages `sdw` in a restriction-only way (clear present, clear flags,
  // collapse R2/R3 down onto R1, or halve the bound).
  bool MaybeCorruptSdw(uint64_t cycle, Segno segno, Sdw* sdw);

  // A descriptor-cache entry to invalidate this instruction, or nullopt.
  // The caller maps the returned value onto its cache geometry.
  bool MaybeDropCacheEntry(uint64_t cycle, size_t cache_entries, size_t* entry_index);

  // Raises the ring field of an indirect word (never lowers it).
  bool MaybeCorruptIndirectRing(uint64_t cycle, Segno segno, Wordno wordno, IndirectWord* iw);

  // Whether to raise a spurious missing-page trap at this instruction.
  bool MaybeSpuriousMissingPage(uint64_t cycle, Segno segno, Wordno wordno);

  // Extra cycles to add to an I/O completion (0 = no fault).
  uint64_t MaybeIoDelay(uint64_t cycle);

  // Snapshot-path faults: a byte of an image damaged on its way to stable
  // storage (kSnapshotWrite) or back (kSnapshotRead). On injection fills
  // the byte index and a nonzero XOR mask; the snapshot layer applies the
  // damage and its CRCs detect it (tests pin the structured rejection).
  // These sites draw from a dedicated stream, never the architectural
  // one: checkpointing frequency must not perturb the guest-visible fault
  // sequence (crash-consistent checkpointing is observation-free).
  bool MaybeCorruptSnapshotWrite(uint64_t cycle, size_t image_bytes, size_t* byte_index,
                                 uint8_t* xor_mask);
  bool MaybeCorruptSnapshotRead(uint64_t cycle, size_t image_bytes, size_t* byte_index,
                                uint8_t* xor_mask);

  // --- accounting --------------------------------------------------------

  const std::vector<FaultEvent>& events() const { return events_; }
  uint64_t injected(FaultSite site) const {
    return counts_[static_cast<size_t>(site)];
  }
  uint64_t total_injected() const;
  std::string Summary() const;

  // --- machine state (Machine::CaptureState / RestoreState) -------------
  // The injector's stream is machine state: a cloned or restored machine
  // must draw the exact fault sequence the original would have drawn.
  struct State {
    FaultConfig config;
    std::array<uint64_t, 2> rng{};
    std::array<uint64_t, 2> snapshot_rng{};
    std::array<uint64_t, kNumFaultSites> counts{};
    uint64_t sequence = 0;
    std::vector<FaultEvent> events;
  };
  State CaptureState() const;
  void RestoreState(State state);

  // Fleet self-healing: a machine restarted from a checkpoint would
  // otherwise replay the exact injected fault that killed it. Disarming
  // models the transient hardware fault having been repaired; recovery
  // stays deterministic because the decision depends only on the
  // machine's own trajectory.
  void Disarm() { config_.enabled = false; }

 private:
  bool Roll(FaultSite site);
  bool MaybeCorruptSnapshotByte(FaultSite site, uint64_t cycle, size_t image_bytes,
                                size_t* byte_index, uint8_t* xor_mask);
  void Record(FaultSite site, uint64_t cycle, Segno segno, Wordno wordno, std::string detail);

  FaultConfig config_;
  Xorshift rng_;            // architectural sites: guest-visible stream
  Xorshift snapshot_rng_;   // kSnapshotWrite/kSnapshotRead only
  std::vector<FaultEvent> events_;
  std::array<uint64_t, kNumFaultSites> counts_{};
  uint64_t sequence_ = 0;
};

}  // namespace rings

#endif  // SRC_FAULT_FAULT_INJECTOR_H_
