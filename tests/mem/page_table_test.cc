// PTW encoding round-trips and PageCount edge cases. The PTW is the word
// every paged reference reads and decodes, so its encoding must be exact
// for every representable frame address.
#include "src/mem/page_table.h"

#include <gtest/gtest.h>

#include "src/mem/physical_memory.h"
#include "src/mem/word.h"

namespace rings {
namespace {

TEST(PtwEncoding, RoundTripPresent) {
  const Ptw ptw{true, 0x12345 * kPageWords};
  EXPECT_EQ(DecodePtw(EncodePtw(ptw)), ptw);
}

TEST(PtwEncoding, RoundTripAbsent) {
  const Ptw ptw{false, 0};
  EXPECT_EQ(DecodePtw(EncodePtw(ptw)), ptw);
}

TEST(PtwEncoding, RoundTripZeroFrame) {
  // Frame 0 is a legal frame address and must be distinguishable from
  // "absent" by the present bit alone.
  const Ptw ptw{true, 0};
  const Ptw back = DecodePtw(EncodePtw(ptw));
  EXPECT_TRUE(back.present);
  EXPECT_EQ(back.frame, 0u);
}

TEST(PtwEncoding, RoundTripMaxFrame) {
  // The frame field is 40 bits wide, like SDW.base.
  const AbsAddr max_frame = (AbsAddr{1} << 40) - 1;
  const Ptw ptw{true, max_frame};
  EXPECT_EQ(DecodePtw(EncodePtw(ptw)), ptw);
}

TEST(PtwEncoding, DefaultWordDecodesAbsent) {
  EXPECT_FALSE(DecodePtw(Word{0}).present);
}

TEST(PageCountEdges, ZeroWordsNeedsNoPages) { EXPECT_EQ(PageCount(0), 0u); }

TEST(PageCountEdges, OneWordNeedsOnePage) { EXPECT_EQ(PageCount(1), 1u); }

TEST(PageCountEdges, ExactMultiple) {
  EXPECT_EQ(PageCount(kPageWords), 1u);
  EXPECT_EQ(PageCount(4 * kPageWords), 4u);
}

TEST(PageCountEdges, OnePastBoundary) {
  EXPECT_EQ(PageCount(kPageWords + 1), 2u);
  EXPECT_EQ(PageCount(4 * kPageWords + 1), 5u);
}

TEST(PageTableAllocation, FreshTableIsAllAbsent) {
  PhysicalMemory memory(64 * kPageWords);
  const auto table = AllocatePageTable(&memory, 4);
  ASSERT_TRUE(table.has_value());
  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_FALSE(DecodePtw(memory.Read(*table + p)).present) << "page " << p;
  }
}

TEST(PageTableAllocation, InstallZeroPageWritesPresentPtw) {
  PhysicalMemory memory(64 * kPageWords);
  const auto table = AllocatePageTable(&memory, 4);
  ASSERT_TRUE(table.has_value());
  const auto frame = InstallZeroPage(&memory, *table, 2);
  ASSERT_TRUE(frame.has_value());
  const Ptw ptw = DecodePtw(memory.Read(*table + 2));
  EXPECT_TRUE(ptw.present);
  EXPECT_EQ(ptw.frame, *frame);
  for (uint64_t i = 0; i < kPageWords; ++i) {
    ASSERT_EQ(memory.Read(*frame + i), 0u);
  }
}

}  // namespace
}  // namespace rings
