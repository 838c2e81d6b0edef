// Copy-on-write frame sharing in the physical store: clones alias the
// parent's frames read-only and privatize on first store, never-written
// frames alias the immortal zero frame, and none of it changes the
// store's observable read/write/latch semantics.
#include <gtest/gtest.h>

#include "src/mem/physical_memory.h"

namespace rings {
namespace {

constexpr size_t kWords = 4 * PhysicalMemory::kFrameWords;

TEST(CowMemory, FreshStoreReadsZeroAndAliasesZeroFrame) {
  PhysicalMemory memory(kWords);
  EXPECT_EQ(memory.size(), kWords);
  for (AbsAddr a = 0; a < kWords; a += PhysicalMemory::kFrameWords / 2) {
    EXPECT_EQ(memory.Read(a), 0u);
  }
  const PhysicalMemory::FrameStats stats = memory.frame_stats();
  EXPECT_EQ(stats.frames, 4u);
  EXPECT_EQ(stats.zero_frames, 4u);  // reads never materialize storage
  EXPECT_EQ(stats.private_frames, 0u);
}

TEST(CowMemory, FirstWriteMaterializesExactlyOneFrame) {
  PhysicalMemory memory(kWords);
  memory.Write(10, 42);
  EXPECT_EQ(memory.Read(10), 42u);
  EXPECT_EQ(memory.Read(11), 0u);  // rest of the frame is still zero
  const PhysicalMemory::FrameStats stats = memory.frame_stats();
  EXPECT_EQ(stats.zero_frames, 3u);
  EXPECT_EQ(stats.private_frames, 1u);
  EXPECT_EQ(memory.frames_privatized(), 1u);
  // Further writes to the same frame are free.
  memory.Write(11, 43);
  EXPECT_EQ(memory.frames_privatized(), 1u);
}

TEST(CowMemory, CloneSeesParentContents) {
  PhysicalMemory parent(kWords);
  parent.Write(5, 111);
  parent.Write(PhysicalMemory::kFrameWords + 7, 222);
  PhysicalMemory clone(parent, PhysicalMemory::CowClone{});
  EXPECT_EQ(clone.size(), parent.size());
  EXPECT_EQ(clone.Read(5), 111u);
  EXPECT_EQ(clone.Read(PhysicalMemory::kFrameWords + 7), 222u);
  EXPECT_EQ(clone.Read(100), 0u);
  // The two written frames are now shared, the other two still zero.
  const PhysicalMemory::FrameStats stats = clone.frame_stats();
  EXPECT_EQ(stats.shared_frames, 2u);
  EXPECT_EQ(stats.zero_frames, 2u);
}

TEST(CowMemory, CloneWriteDoesNotLeakIntoParent) {
  PhysicalMemory parent(kWords);
  parent.Write(5, 111);
  PhysicalMemory clone(parent, PhysicalMemory::CowClone{});
  clone.Write(5, 999);
  clone.Write(6, 888);
  EXPECT_EQ(clone.Read(5), 999u);
  EXPECT_EQ(clone.Read(6), 888u);
  EXPECT_EQ(parent.Read(5), 111u);
  EXPECT_EQ(parent.Read(6), 0u);
}

TEST(CowMemory, ParentWriteAfterSealDoesNotLeakIntoClone) {
  PhysicalMemory parent(kWords);
  parent.Write(5, 111);
  PhysicalMemory clone(parent, PhysicalMemory::CowClone{});
  parent.Write(5, 777);  // re-privatizes the sealed frame in the parent
  EXPECT_EQ(parent.Read(5), 777u);
  EXPECT_EQ(clone.Read(5), 111u);
}

TEST(CowMemory, CloneOfCloneChains) {
  PhysicalMemory a(kWords);
  a.Write(0, 1);
  PhysicalMemory b(a, PhysicalMemory::CowClone{});
  b.Write(0, 2);
  PhysicalMemory c(b, PhysicalMemory::CowClone{});
  c.Write(0, 3);
  PhysicalMemory d(c, PhysicalMemory::CowClone{});
  EXPECT_EQ(a.Read(0), 1u);
  EXPECT_EQ(b.Read(0), 2u);
  EXPECT_EQ(c.Read(0), 3u);
  EXPECT_EQ(d.Read(0), 3u);
  // The untouched tail of the chain still shares: d aliases c's frame.
  EXPECT_EQ(d.frame_stats().shared_frames, 1u);
}

TEST(CowMemory, CloneOutlivesParent) {
  auto parent = std::make_unique<PhysicalMemory>(kWords);
  parent->Write(9, 123);
  PhysicalMemory clone(*parent, PhysicalMemory::CowClone{});
  parent.reset();  // the shared frame must survive via the clone's ref
  EXPECT_EQ(clone.Read(9), 123u);
  clone.Write(9, 124);
  EXPECT_EQ(clone.Read(9), 124u);
}

TEST(CowMemory, SealIsIdempotentAndPreservesContents) {
  PhysicalMemory memory(kWords);
  memory.Write(3, 33);
  memory.SealForCloning();
  memory.SealForCloning();
  EXPECT_EQ(memory.Read(3), 33u);
  // Write-after-seal re-adopts the exclusively-owned frame in place: no
  // copy, contents intact.
  memory.Write(4, 44);
  EXPECT_EQ(memory.Read(3), 33u);
  EXPECT_EQ(memory.Read(4), 44u);
}

TEST(CowMemory, AllocatorAndPolicyCarryIntoClone) {
  PhysicalMemory parent(kWords);
  ASSERT_TRUE(parent.Allocate(100).has_value());
  PhysicalMemory clone(parent, PhysicalMemory::CowClone{});
  EXPECT_EQ(clone.allocated(), parent.allocated());
  const auto base = clone.Allocate(10);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(*base, 100u);
  EXPECT_EQ(parent.allocated(), 100u);  // clone allocation is private
  EXPECT_EQ(clone.out_of_range_policy(), parent.out_of_range_policy());
}

TEST(CowMemory, OutOfRangeLatchSemanticsSurviveCloning) {
  PhysicalMemory parent(kWords);
  PhysicalMemory clone(parent, PhysicalMemory::CowClone{});
  EXPECT_EQ(clone.Read(kWords + 5), 0u);  // inert, latched
  clone.Write(kWords + 9, 1);             // dropped, counted
  ASSERT_TRUE(clone.fault_pending());
  EXPECT_EQ(clone.fault_count(), 2u);
  const auto fault = clone.TakeFault();
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->addr, kWords + 5);
  EXPECT_FALSE(fault->write);
  EXPECT_FALSE(clone.fault_pending());
  // The parent's latch is untouched.
  EXPECT_FALSE(parent.fault_pending());
  EXPECT_EQ(parent.fault_count(), 0u);
}

TEST(CowMemory, PendingLatchCopiesIntoClone) {
  PhysicalMemory parent(kWords);
  parent.Read(kWords);  // latch a fault in the parent
  PhysicalMemory clone(parent, PhysicalMemory::CowClone{});
  EXPECT_TRUE(clone.fault_pending());
  EXPECT_EQ(clone.fault_count(), 1u);
}

TEST(CowMemory, RestoreIdenticalContentsKeepsFramesShared) {
  PhysicalMemory parent(kWords);
  parent.Write(5, 111);
  PhysicalMemory clone(parent, PhysicalMemory::CowClone{});

  // Rebuild the parent's exact contents in a staging store and restore
  // them into the clone: every frame matches, so nothing privatizes (the
  // restore-into-clone fast path).
  PhysicalMemory staged(kWords);
  staged.Write(5, 111);
  clone.RestoreContents(std::move(staged));
  EXPECT_EQ(clone.frames_privatized(), 0u);
  EXPECT_EQ(clone.frame_stats().shared_frames, 1u);
  EXPECT_EQ(clone.Read(5), 111u);
}

TEST(CowMemory, RestoreDifferingContentsPrivatizesOnlyChangedFrames) {
  PhysicalMemory parent(kWords);
  parent.Write(5, 111);
  parent.Write(PhysicalMemory::kFrameWords + 3, 222);
  PhysicalMemory clone(parent, PhysicalMemory::CowClone{});

  PhysicalMemory staged(kWords);
  staged.Write(5, 111);                                // frame 0 unchanged
  staged.Write(PhysicalMemory::kFrameWords + 3, 555);  // frame 1 differs
  clone.RestoreContents(std::move(staged));
  EXPECT_EQ(clone.frames_privatized(), 1u);
  EXPECT_EQ(clone.Read(5), 111u);
  EXPECT_EQ(clone.Read(PhysicalMemory::kFrameWords + 3), 555u);
  EXPECT_EQ(parent.Read(PhysicalMemory::kFrameWords + 3), 222u);
  const PhysicalMemory::FrameStats stats = clone.frame_stats();
  EXPECT_EQ(stats.shared_frames, 1u);   // frame 0 still aliased
  EXPECT_EQ(stats.private_frames, 1u);  // frame 1 copied
}

TEST(CowMemory, RestoreMovesStagedFramesIn) {
  PhysicalMemory memory(kWords);
  PhysicalMemory staged(kWords);
  staged.Write(2 * PhysicalMemory::kFrameWords + 9, 42);
  memory.RestoreContents(std::move(staged));
  EXPECT_EQ(memory.Read(2 * PhysicalMemory::kFrameWords + 9), 42u);
  EXPECT_EQ(memory.frames_privatized(), 1u);
  PhysicalMemory::FrameStats stats = memory.frame_stats();
  EXPECT_EQ(stats.private_frames, 1u);
  EXPECT_EQ(stats.zero_frames, 3u);
  // The moved-in frame is this store's own: writing it copies nothing.
  memory.Write(2 * PhysicalMemory::kFrameWords + 10, 43);
  EXPECT_EQ(memory.frames_privatized(), 1u);
  // The staging store gave its frame up and reads zero again.
  stats = staged.frame_stats();
  EXPECT_EQ(stats.zero_frames, 4u);
  EXPECT_EQ(staged.Read(2 * PhysicalMemory::kFrameWords + 9), 0u);
}

TEST(CowMemory, RestoredFrameStillAliasedByAStagingCloneCopiesOnWrite) {
  PhysicalMemory staged(kWords);
  staged.Write(7, 1);
  PhysicalMemory other(staged, PhysicalMemory::CowClone{});
  PhysicalMemory memory(kWords);
  memory.RestoreContents(std::move(staged));
  EXPECT_EQ(memory.frame_stats().shared_frames, 1u);  // with `other`
  memory.Write(7, 2);
  EXPECT_EQ(memory.Read(7), 2u);
  EXPECT_EQ(other.Read(7), 1u);
}

TEST(CowMemory, RestoreZeroFrameOverNonZeroFrameReadsZero) {
  PhysicalMemory parent(kWords);
  parent.Write(PhysicalMemory::kFrameWords + 1, 5);  // shared with the clone
  PhysicalMemory clone(parent, PhysicalMemory::CowClone{});
  clone.Write(3 * PhysicalMemory::kFrameWords, 6);  // the clone's own
  clone.RestoreContents(PhysicalMemory(kWords));
  EXPECT_EQ(clone.Read(PhysicalMemory::kFrameWords + 1), 0u);
  EXPECT_EQ(clone.Read(3 * PhysicalMemory::kFrameWords), 0u);
  EXPECT_EQ(clone.frame_stats().zero_frames, 4u);
  EXPECT_EQ(parent.Read(PhysicalMemory::kFrameWords + 1), 5u);
  EXPECT_EQ(parent.frame_stats().private_frames, 1u);  // no longer aliased
}

TEST(CowMemory, NonFrameMultipleSizeWorks) {
  const size_t odd = PhysicalMemory::kFrameWords + 100;
  PhysicalMemory memory(odd);
  EXPECT_EQ(memory.size(), odd);
  memory.Write(odd - 1, 7);
  EXPECT_EQ(memory.Read(odd - 1), 7u);
  EXPECT_EQ(memory.Read(odd), 0u);  // out of range latches
  EXPECT_TRUE(memory.fault_pending());

  PhysicalMemory clone(memory, PhysicalMemory::CowClone{});
  EXPECT_EQ(clone.Read(odd - 1), 7u);
  PhysicalMemory staged(odd);
  staged.Write(odd - 1, 7);
  clone.RestoreContents(std::move(staged));  // partial-frame compare path
  EXPECT_EQ(clone.frames_privatized(), 0u);
}

}  // namespace
}  // namespace rings
