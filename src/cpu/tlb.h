// Software TLB: the host-side memo of the page-table walk. The paper
// treats paging as "totally transparent to an executing machine language
// program", so the walk is pure per-reference overhead for the simulator
// to re-derive; this cache holds (segno, pageno) -> frame translations the
// way the SDW cache's slots hold access verdicts.
//
// An entry is a fact about the core store: "the PTW at table_base + pageno
// decodes to a present page at `frame`". It is keyed by the page table's
// base address as well as by (segno, pageno), so a descriptor edit that
// moves a segment's page table can never revalidate a stale translation —
// the caller always probes with the base of the descriptor it currently
// trusts (the resident SDW behind a verdict, or a fresh fetch). What remains
// is exactly one staleness vector, a store to the PTW word itself, and
// NoteStore snoops every store for that (a membership filter keeps the
// common non-PTW store to one bit test). Only the page-table walk reads
// the TLB: blocks are built only from unpaged segments, so no decoded
// block, resolved hop or operand memo holds a translation.
//
// Like the access verdicts, the TLB is purely derived state: the walk's
// cycle charge and page_walks counter are applied by the processor whether
// the translation comes from the TLB or from the core store, missing pages
// always take the slow path (absent PTWs are never cached), and the
// differential test pins bit-identical machine behavior with the fast path
// on or off. Flush() is an O(1) generation bump, wired to every event that
// retires the whole translation regime (DBR reloads, descriptor-cache
// flushes, raw pokes into the core store).
#ifndef SRC_CPU_TLB_H_
#define SRC_CPU_TLB_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/mem/word.h"

namespace rings {

class Tlb {
 public:
  // Set-associative: 64 sets x 4 ways. Victim choice within a set is
  // round-robin, so fills are deterministic for a given reference stream.
  static constexpr size_t kSets = 64;
  static constexpr size_t kWays = 4;
  static constexpr size_t kEntries = kSets * kWays;

  struct Entry {
    uint64_t gen = 0;  // valid iff equal to the cache's current generation
    Segno segno = 0;
    uint64_t pageno = 0;
    AbsAddr table_base = 0;  // SDW.base the walk started from
    AbsAddr frame = 0;       // the present page's first word
  };

  // Returns the entry translating page `pageno` of `segno` via the page
  // table at `table_base`, or nullptr. Pure probe: no statistics.
  const Entry* Lookup(Segno segno, uint64_t pageno, AbsAddr table_base) const {
    const size_t set = SetIndex(segno, pageno);
    for (size_t way = 0; way < kWays; ++way) {
      const Entry& e = entries_[set * kWays + way];
      if (e.gen == gen_ && e.segno == segno && e.pageno == pageno &&
          e.table_base == table_base) {
        return &e;
      }
    }
    return nullptr;
  }

  // Memoizes a successful walk. Only present pages are ever filled; a
  // missing page must re-walk (and re-trap) on every reference.
  void Fill(Segno segno, uint64_t pageno, AbsAddr table_base, AbsAddr frame);

  // A store landed at absolute address `addr`; drops any entry decoded
  // from that word (the PTW snoop). Returns the number of entries
  // dropped. One filter probe on the fast path; the scan runs only when
  // the filter admits the address.
  size_t NoteStore(AbsAddr addr);

  // Drops every translation for `segno` (its SDW was edited, evicted, or
  // corrupted — the page table may have moved). Returns entries dropped.
  size_t InvalidateSegment(Segno segno);

  // Drops one page's translation (supervisor page-table edit with the
  // segment number in hand). Returns entries dropped.
  size_t InvalidatePage(Segno segno, uint64_t pageno);

  // O(1) whole-TLB invalidation (generation bump).
  void Flush();

 private:
  static size_t SetIndex(Segno segno, uint64_t pageno) {
    return static_cast<size_t>((pageno ^ (uint64_t{segno} * 0x9E3779B1u)) % kSets);
  }

  // Membership filter over the PTW addresses of resident entries: a set
  // bit means "some entry may have been decoded from this address". No
  // false negatives; a false positive costs one scan of the entries.
  static constexpr size_t kFilterWords = 32;  // 2048 bits
  static size_t FilterBit(AbsAddr addr) {
    return static_cast<size_t>((addr * 0x9E3779B97F4A7C15ull) >> 53);  // top 11 bits
  }
  bool FilterTest(AbsAddr addr) const {
    const size_t bit = FilterBit(addr);
    return (filter_[bit / 64] >> (bit % 64)) & 1;
  }
  void FilterSet(AbsAddr addr) {
    const size_t bit = FilterBit(addr);
    filter_[bit / 64] |= uint64_t{1} << (bit % 64);
  }

  uint64_t gen_ = 1;  // entries zero-initialize to gen 0 == invalid
  std::array<Entry, kEntries> entries_{};
  std::array<uint8_t, kSets> victim_{};
  std::array<uint64_t, kFilterWords> filter_{};
};

}  // namespace rings

#endif  // SRC_CPU_TLB_H_
