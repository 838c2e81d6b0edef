// Eviction-pressure tests for the host-side caches. Each cache is filled
// past its capacity with keys chosen to collide in the index function, and
// the tests pin down the two properties the fast path's correctness
// argument leans on:
//
//   1. a displaced entry never answers for its old key (no stale hits
//      after eviction), and
//   2. a re-fill after displacement or a flush/generation bump serves
//      the *new* contents, not a resurrected old entry.
//
// The caches are purely derived state, so these are host-only unit tests:
// nothing here touches a Machine or simulated cycles.
#include <gtest/gtest.h>

#include "src/cpu/block_cache.h"
#include "src/cpu/sdw_cache.h"
#include "tests/testutil.h"

namespace rings {
namespace {

// ---------------------------------------------------------------------------
// SdwCache residency, which every probe answers from: 16 direct-mapped
// slots, indexed segno % kEntries. Segments segno and segno + kEntries
// collide.
// ---------------------------------------------------------------------------

Sdw PressureSdw(AbsAddr base, uint64_t bound = 32) {
  Sdw sdw;
  sdw.present = true;
  sdw.base = base;
  sdw.bound = bound;
  sdw.access = MakeDataSegment(4, 4);
  return sdw;
}

TEST(SdwCacheVerdictPressure, CollidingFillDisplacesAndNeverAliases) {
  SdwCache cache;
  // Fill every slot, then a full second wave that collides slot-for-slot.
  for (Segno s = 0; s < SdwCache::kEntries; ++s) {
    cache.Insert(s, PressureSdw(1000 + 100 * s));
  }
  for (Segno s = 0; s < SdwCache::kEntries; ++s) {
    const Segno hi = s + SdwCache::kEntries;
    cache.Insert(hi, PressureSdw(5000 + 100 * s));
  }
  for (Segno s = 0; s < SdwCache::kEntries; ++s) {
    const Segno hi = s + SdwCache::kEntries;
    // The displaced first-wave segment must miss, not alias the winner.
    EXPECT_EQ(cache.Resident(s), nullptr) << "stale hit for segno " << s;
    const Sdw* sdw = cache.Resident(hi);
    ASSERT_NE(sdw, nullptr) << "lost fill for segno " << hi;
    EXPECT_EQ(sdw->base, 5000u + 100 * s);
  }
  // Re-fill of a displaced segment reclaims its slot with fresh contents.
  cache.Insert(3, PressureSdw(7777));
  const Sdw* sdw = cache.Resident(3);
  ASSERT_NE(sdw, nullptr);
  EXPECT_EQ(sdw->base, 7777u);
  EXPECT_EQ(cache.Resident(3 + SdwCache::kEntries), nullptr);
}

TEST(SdwCacheVerdictPressure, FlushRetiresEveryResidentVerdict) {
  SdwCache cache;
  for (Segno s = 0; s < SdwCache::kEntries; ++s) {
    cache.Insert(s, PressureSdw(1000 + s));
  }
  // The SDW cache flushed: every probe must miss.
  cache.Flush();
  for (Segno s = 0; s < SdwCache::kEntries; ++s) {
    EXPECT_EQ(cache.Resident(s), nullptr) << "stale hit after flush, segno " << s;
  }
  // A descriptor fetched again after the flush serves the new contents.
  cache.Insert(5, PressureSdw(4242));
  const Sdw* sdw = cache.Resident(5);
  ASSERT_NE(sdw, nullptr);
  EXPECT_EQ(sdw->base, 4242u);
}

// ---------------------------------------------------------------------------
// BlockCache: 256 direct-mapped blocks, index (start ^ segno*0x9E3779B1)
// & 255. For a fixed segment, starts s and s + kEntries collide.
// ---------------------------------------------------------------------------

BlockCache::Block* FillBlock(BlockCache& cache, Segno segno, Wordno start, uint16_t count) {
  BlockCache::Block* b = cache.SlotFor(segno, start);
  b->segno = segno;
  b->start = start;
  b->count = count;
  b->ring = 4;
  b->base = 0;
  b->gen = cache.generation();
  return b;
}

TEST(BlockCachePressure, CollidingStartsDisplaceWithoutAliasing) {
  BlockCache cache;
  constexpr Segno kSeg = 12;
  for (Wordno s = 0; s < BlockCache::kEntries; ++s) {
    FillBlock(cache, kSeg, s, 1);
  }
  for (Wordno s = 0; s < BlockCache::kEntries; ++s) {
    FillBlock(cache, kSeg, s + BlockCache::kEntries, 2);
  }
  for (Wordno s = 0; s < BlockCache::kEntries; ++s) {
    EXPECT_EQ(cache.Lookup(kSeg, s), nullptr) << "stale block at start " << s;
    const BlockCache::Block* b = cache.Lookup(kSeg, s + BlockCache::kEntries);
    ASSERT_NE(b, nullptr) << "lost block at start " << s + BlockCache::kEntries;
    EXPECT_EQ(b->count, 2);
  }
}

TEST(BlockCachePressure, FlushAndSegmentInvalidationRetireBlocks) {
  BlockCache cache;
  FillBlock(cache, 3, 10, 4);
  FillBlock(cache, 5, 10, 4);
  EXPECT_EQ(cache.InvalidateSegment(3), 1u);
  EXPECT_EQ(cache.Lookup(3, 10), nullptr);
  ASSERT_NE(cache.Lookup(5, 10), nullptr);
  const uint64_t version_before = cache.version();
  cache.Flush();  // generation bump retires everything, bumps version
  EXPECT_EQ(cache.Lookup(5, 10), nullptr);
  EXPECT_GT(cache.version(), version_before);
  // Refill after the flush is served at the new generation.
  FillBlock(cache, 5, 10, 7);
  const BlockCache::Block* b = cache.Lookup(5, 10);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->count, 7);
}

}  // namespace
}  // namespace rings
