// A small direct-mapped descriptor cache. The 645-era hardware kept
// recently used SDWs in fast associative registers so that address
// translation did not walk the descriptor segment on every reference; the
// cycle model charges a descriptor fetch only on a miss. The cache must be
// flushed whenever the DBR changes or the supervisor edits an SDW.
//
// The processor answers a reference from the descriptor resident here
// (Resident) by running the reference kind's check of Figures 4-7 against
// it, as the hardware does against its associative memory; no outcome of
// a check is kept, so nothing derived from a descriptor can outlive it.
#ifndef SRC_CPU_SDW_CACHE_H_
#define SRC_CPU_SDW_CACHE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <optional>

#include "src/mem/sdw.h"
#include "src/mem/word.h"

namespace rings {

class SdwCache {
 public:
  static constexpr size_t kEntries = 16;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    Flush();
  }

  // Lookup/Peek/Insert sit on the per-reference path, so they live in the
  // header and inline to an index, a tag compare, and a copy.
  std::optional<Sdw> Lookup(Segno segno) const {
    if (!enabled_) {
      ++misses_;
      return std::nullopt;
    }
    const Entry& e = entries_[segno % kEntries];
    if (e.valid && e.segno == segno) {
      ++hits_;
      return e.sdw;
    }
    ++misses_;
    return std::nullopt;
  }
  // Like Lookup, but does not count a hit or miss: used by the supervisor's
  // fault-recovery path to inspect what the processor believes without
  // perturbing the cache statistics.
  std::optional<Sdw> Peek(Segno segno) const {
    if (!enabled_) {
      return std::nullopt;
    }
    const Entry& e = entries_[segno % kEntries];
    if (e.valid && e.segno == segno) {
      return e.sdw;
    }
    return std::nullopt;
  }
  void Insert(Segno segno, const Sdw& sdw) {
    if (!enabled_) {
      return;
    }
    const size_t index = segno % kEntries;
    entries_[index] = Entry{true, segno, sdw};
  }
  void Invalidate(Segno segno);
  // Invalidates by cache index rather than segment number (fault injection:
  // a dropped associative register, whatever it happened to hold).
  void InvalidateIndex(size_t index);
  // The segment number held by the register at `index`, if any — lets the
  // fault-drop site retire derived state (decoded blocks) for whatever
  // segment the dropped register happened to describe.
  std::optional<Segno> SegnoAtIndex(size_t index) const {
    const Entry& e = entries_[index % kEntries];
    return e.valid ? std::optional<Segno>(e.segno) : std::nullopt;
  }
  void Flush();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  // Counts `n` hits without a lookup: the processor answers from Resident,
  // which counts nothing, but the statistics must read as if each of those
  // references had taken Lookup. The processor folds its tallied
  // hits in here once per dispatch (Cpu::SettleTally).
  void CountHits(uint64_t n) const { hits_ += n; }

  // The present descriptor resident for `segno`, or nullptr: the one a
  // reference may be answered from without a descriptor walk. Points into
  // the slot, so it holds only until the next operation that writes a
  // slot. Pure probe: no statistics, no state change.
  const Sdw* Resident(Segno segno) const {
    const Entry& e = entries_[segno % kEntries];
    return e.valid && e.segno == segno && e.sdw.present ? &e.sdw : nullptr;
  }

  // --- machine state (Machine::CaptureState / RestoreState) -------------
  // The descriptor cache is timing-architectural: the cycle model charges
  // a descriptor fetch only on a miss and hits/misses feed architectural
  // counters, so a cloned or restored machine must resume with the exact
  // entries and statistics the original had (unlike the host-only block
  // cache, which is dropped and rebuilt).
  struct Entry {
    bool valid = false;
    Segno segno = 0;
    Sdw sdw;
    bool operator==(const Entry&) const = default;
  };
  struct State {
    bool enabled = true;
    uint64_t hits = 0;
    uint64_t misses = 0;
    std::array<Entry, kEntries> entries{};
    bool operator==(const State&) const = default;
    // Whether the state holds a valid entry while disabled, which no
    // captured cache does (set_enabled flushes, a disabled Insert writes
    // nothing). Restored, such entries would vouch for references that
    // Lookup, and so the reference tier, never answers from the cache.
    bool HoldsWhileDisabled() const {
      return !enabled && std::any_of(entries.begin(), entries.end(),
                                     [](const Entry& e) { return e.valid; });
    }
  };
  State CaptureState() const { return State{enabled_, hits_, misses_, entries_}; }
  // The snapshot decoder rejects a state that HoldsWhileDisabled.
  void RestoreState(const State& state) {
    assert(!state.HoldsWhileDisabled());
    set_enabled(state.enabled);
    hits_ = state.hits;
    misses_ = state.misses;
    entries_ = state.entries;
  }

 private:
  bool enabled_ = true;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
  std::array<Entry, kEntries> entries_{};
};

}  // namespace rings

#endif  // SRC_CPU_SDW_CACHE_H_
