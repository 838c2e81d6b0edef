// Frame accounting of snapshot restore. The memory section decodes into a
// staging store that materializes only the frames holding non-zero words,
// and the commit moves frames in one at a time. So a restore into a fresh
// machine materializes exactly the image's non-zero frames, a restore into
// a clone of the machine that took the image keeps every frame shared, and
// a rejected image leaves the target's contents and frame bookkeeping as
// they were.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fingerprint.h"
#include "src/fuzz/generator.h"
#include "src/snapshot/snapshot.h"
#include "tests/snapshot/image_testutil.h"

namespace rings {
namespace {

using namespace image_testutil;

constexpr size_t kFrameWords = PhysicalMemory::kFrameWords;

// Whether frame `index` of `memory` holds a non-zero word.
bool FrameIsNonZero(const PhysicalMemory& memory, size_t index) {
  const Word* frame = memory.frame(index);
  return frame != nullptr &&
         std::any_of(frame, frame + kFrameWords, [](Word w) { return w != 0; });
}

void ExpectSameFrames(const PhysicalMemory& memory, const PhysicalMemory::FrameStats& before,
                      uint64_t privatized_before) {
  const PhysicalMemory::FrameStats after = memory.frame_stats();
  EXPECT_EQ(after.frames, before.frames);
  EXPECT_EQ(after.zero_frames, before.zero_frames);
  EXPECT_EQ(after.shared_frames, before.shared_frames);
  EXPECT_EQ(after.private_frames, before.private_frames);
  EXPECT_EQ(memory.frames_privatized(), privatized_before);
}

std::unique_ptr<Machine> Cut(uint64_t seed) {
  return CutAtHalf(GenerateGuest(seed).source, SmallConfig());
}

void Restore(const std::vector<uint8_t>& image, Machine* target) {
  std::string error;
  ASSERT_TRUE(RestoreSnapshot(image, target, &error)) << error;
}

TEST(SnapshotFrames, RestoreIntoAFreshMachineMaterializesOnlyNonZeroFrames) {
  for (const uint64_t seed : {1, 5, 101}) {
    SCOPED_TRACE(seed);
    std::unique_ptr<Machine> live = Cut(seed);
    ASSERT_NE(live, nullptr);
    const std::vector<uint8_t> image = Save(*live);
    Machine target(SmallConfig());
    ASSERT_TRUE(target.ok());
    Restore(image, &target);

    const PhysicalMemory::FrameStats stats = target.memory().frame_stats();
    size_t non_zero = 0;
    for (size_t i = 0; i < stats.frames; ++i) {
      const bool expected = FrameIsNonZero(live->memory(), i);
      non_zero += expected ? 1 : 0;
      EXPECT_EQ(target.memory().frame(i) != nullptr, expected) << "frame " << i;
    }
    EXPECT_GT(non_zero, 0u);
    EXPECT_EQ(stats.private_frames, non_zero);
    EXPECT_EQ(stats.zero_frames, stats.frames - non_zero);
    EXPECT_EQ(stats.shared_frames, 0u);
    EXPECT_EQ(Save(target), image);
  }
}

TEST(SnapshotFrames, RestoreIntoACloneOfTheSourcePrivatizesNothing) {
  for (const uint64_t seed : {1, 5, 101}) {
    SCOPED_TRACE(seed);
    std::unique_ptr<Machine> live = Cut(seed);
    ASSERT_NE(live, nullptr);
    const std::vector<uint8_t> image = Save(*live);
    std::unique_ptr<Machine> clone = Machine::CloneFrom(*live);
    ASSERT_NE(clone, nullptr);
    const PhysicalMemory::FrameStats before = clone->memory().frame_stats();
    ASSERT_GT(before.shared_frames, 0u);
    const uint64_t privatized = clone->memory().frames_privatized();
    Restore(image, clone.get());
    ExpectSameFrames(clone->memory(), before, privatized);
    EXPECT_EQ(Save(*clone), image);
  }
}

// The payload offset of every run tag in a memory section without a
// latched fault: the bookkeeping takes 17 bytes, the word count 8.
std::vector<size_t> RunOffsets(const std::vector<uint8_t>& memory) {
  std::vector<size_t> runs;
  for (size_t pos = 17 + 8; pos < memory.size();) {
    runs.push_back(pos);
    const uint64_t count = Load(memory, pos + 1, 8);
    pos += 1 + 8 + (memory[pos] == 1 ? 8 * count : 0);
  }
  return runs;
}

TEST(SnapshotFrames, ARejectedMemoryRunLeavesTheTargetUntouched) {
  std::unique_ptr<Machine> live = Cut(1);
  ASSERT_NE(live, nullptr);
  const std::vector<uint8_t> image = Save(*live);
  const std::vector<uint8_t> memory = Payload(image, kMemory);
  ASSERT_EQ(memory[16], 0u) << "the cut must not latch a memory fault";
  const uint64_t words = Load(memory, 17, 8);
  const std::vector<size_t> runs = RunOffsets(memory);
  ASSERT_GE(runs.size(), 3u);
  // Corrupt the last run, so the decoder has staged every earlier run's
  // frames when it fails.
  const size_t last = runs.back();

  struct Case {
    const char* what;
    std::vector<uint8_t> image;
    const char* detail;
  };
  const std::vector<Case> cases = {
      {"overflowing run", Patch(image, kMemory, last + 1, words, 8), "overflows"},
      {"unknown tag", Patch(image, kMemory, last, 2, 1), "unknown memory run tag 2"},
      {"zero count", Patch(image, kMemory, last + 1, 0, 8), "memory run of 0 words"},
  };
  std::unique_ptr<Machine> other = Cut(5);
  ASSERT_NE(other, nullptr);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    std::string error;
    ASSERT_TRUE(VerifySnapshot(c.image, &error)) << "not CRC-valid: " << error;
    // A clone that has run on: shared frames and privatized ones.
    std::unique_ptr<Machine> target = Machine::CloneFrom(*other);
    ASSERT_NE(target, nullptr);
    target->Run(2000);
    const PhysicalMemory::FrameStats before = target->memory().frame_stats();
    ASSERT_GT(before.shared_frames, 0u);
    const uint64_t privatized = target->memory().frames_privatized();
    const uint64_t fingerprint = FingerprintMachine(*target);
    const std::vector<uint8_t> saved = Save(*target);

    EXPECT_FALSE(RestoreSnapshot(c.image, target.get(), &error));
    EXPECT_NE(error.find("(memory)"), std::string::npos) << error;
    EXPECT_NE(error.find(c.detail), std::string::npos) << error;
    ExpectSameFrames(target->memory(), before, privatized);
    EXPECT_EQ(FingerprintMachine(*target), fingerprint);
    EXPECT_EQ(Save(*target), saved);
  }
}

TEST(SnapshotFrames, AnAllZeroImageFrameZeroesANonZeroTargetFrame) {
  std::unique_ptr<Machine> live = Cut(1);
  ASSERT_NE(live, nullptr);
  const std::vector<uint8_t> image = Save(*live);
  const AbsAddr top = live->memory().size() - 1;  // past every allocation
  const size_t top_frame = top / kFrameWords;
  ASSERT_FALSE(FrameIsNonZero(live->memory(), top_frame));

  // The non-zero target frame is private in one case and shared with a
  // parent in the other; the parent keeps its word either way.
  Machine parent(SmallConfig());
  parent.memory().Write(top, 0x1234);
  std::unique_ptr<Machine> shared = Machine::CloneFrom(parent);
  ASSERT_NE(shared, nullptr);
  auto owned = std::make_unique<Machine>(SmallConfig());
  owned->memory().Write(top, 0x1234);
  for (Machine* target : {owned.get(), shared.get()}) {
    SCOPED_TRACE(target == owned.get() ? "private frame" : "shared frame");
    ASSERT_NE(target->memory().frame(top_frame), nullptr);
    Restore(image, target);
    EXPECT_EQ(target->memory().Read(top), 0u);
    EXPECT_EQ(target->memory().frame(top_frame), nullptr);
    EXPECT_EQ(Save(*target), image);
  }
  EXPECT_EQ(parent.memory().Read(top), 0x1234u);
}

}  // namespace
}  // namespace rings
