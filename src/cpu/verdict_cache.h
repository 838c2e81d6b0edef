// Per-(segment, effective-ring) access-verdict cache: the memo of the
// descriptor walk in Cpu::Reference, the one routine every Figure 4-7
// reference runs. The paper's hardware latches a validated descriptor so
// consecutive references to the same segment do not repeat the bracket
// comparisons; this cache is the simulator's equivalent. An entry holds
// each reference kind's predicate outcome for its ring plus the SDW
// fields the reference reads, so a hit supplies the same facts the walk
// would and the rest of the reference runs unchanged.
//
// A verdict is purely derived state: it changes nothing the simulated
// machine can observe. Correctness therefore rests on one invariant —
//
//   a valid entry with a current epoch implies the SDW cache holds the
//   same segment's descriptor, unchanged since the verdict was filled.
//
// The epoch is SdwCache::flush_epoch() (bumped on every flush, including
// DBR reloads); slot-level invalidation is mirrored by the Cpu on every
// SDW insert/eviction, InvalidateSdw, and fault-injected cache drop. The
// slot geometry is identical to SdwCache so the mirroring is index-exact.
// Under that invariant a memo hit charges exactly the cycles and counters
// of the walk taken with an SDW-cache hit, so simulated time is
// bit-identical with the fast path on or off.
#ifndef SRC_CPU_VERDICT_CACHE_H_
#define SRC_CPU_VERDICT_CACHE_H_

#include <array>
#include <cstdint>

#include "src/core/ring.h"
#include "src/cpu/sdw_cache.h"
#include "src/mem/sdw.h"
#include "src/mem/word.h"

namespace rings {

class VerdictCache {
 public:
  // Same geometry as the SDW cache: verdict slot i can only vouch for a
  // segment the SDW cache could hold in its slot i.
  static constexpr size_t kEntries = SdwCache::kEntries;

  struct Entry {
    bool valid = false;
    Segno segno = 0;
    Ring ring = 0;       // the effective ring the verdicts were computed for
    uint64_t epoch = 0;  // SdwCache::flush_epoch() at fill time

    // Precomputed Check* outcomes for (access, ring).
    bool read_ok = false;
    bool write_ok = false;
    bool execute_ok = false;
    bool indirect_ok = false;

    // Addressing and access fields the fast path needs downstream.
    AbsAddr base = 0;
    uint64_t bound = 0;
    bool paged = false;
    bool flags_execute = false;  // SDW execute flag (store-to-code detection)
    Ring r1 = 0;                 // top of write bracket (indirect ring max)
  };

  // Returns the entry when it vouches for (segno, ring) at `epoch`,
  // nullptr otherwise. Pure probe: no statistics, no state change.
  const Entry* Lookup(Segno segno, Ring ring, uint64_t epoch) const {
    const Entry& e = entries_[segno % kEntries];
    if (e.valid && e.segno == segno && e.ring == ring && e.epoch == epoch) {
      return &e;
    }
    return nullptr;
  }

  // Memoizes the verdicts for `sdw` as seen by `ring`. Only call when the
  // SDW cache currently holds `segno` (see the invariant above).
  void Fill(Segno segno, Ring ring, uint64_t epoch, const Sdw& sdw);

  // Drops the slot that could vouch for `segno` (SDW edited or evicted).
  void InvalidateSegment(Segno segno) { entries_[segno % kEntries].valid = false; }
  // Drops by cache index (mirrors SdwCache::InvalidateIndex).
  void InvalidateSlot(size_t index) { entries_[index % kEntries].valid = false; }
  void Flush();

 private:
  std::array<Entry, kEntries> entries_{};
};

}  // namespace rings

#endif  // SRC_CPU_VERDICT_CACHE_H_
