// RestoreGuest builds its machine from the image alone: one CRC pass, the
// decoded store moved in, no supervisor boot. Whatever it hands out must
// be the machine a restore into a booted Machine(config) gives: the same
// image bytes, fingerprint and frames, and the same run to completion on
// every engine tier. A refused image yields no machine and the same
// error as the other consumers of the format.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fleet/fingerprint.h"
#include "src/fuzz/generator.h"
#include "src/snapshot/snapshot.h"
#include "tests/snapshot/image_testutil.h"
#include "tests/testutil.h"

namespace rings {
namespace {

using namespace image_testutil;

std::vector<std::pair<std::string, MachineConfig>> Guests() {
  MachineConfig faulty = SmallConfig();
  faulty.fault = FaultConfig::Uniform(/*seed=*/11, /*ppm=*/3000);
  return {
      {GenerateGuest(1).source, SmallConfig()},
      {GenerateGuest(2).source, faulty},
      {GenerateGuest(5).source, SmallConfig()},
      {GenerateGuest(101).source, SmallConfig()},
  };
}

void ExpectSameFrameStats(const PhysicalMemory& want, const PhysicalMemory& got) {
  const PhysicalMemory::FrameStats a = want.frame_stats();
  const PhysicalMemory::FrameStats b = got.frame_stats();
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.zero_frames, b.zero_frames);
  EXPECT_EQ(a.shared_frames, b.shared_frames);
  EXPECT_EQ(a.private_frames, b.private_frames);
}

TEST(RestoreGuest, MatchesARestoreIntoABootedMachine) {
  const std::vector<std::pair<std::string, MachineConfig>> guests = Guests();
  for (size_t i = 0; i < guests.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& [source, config] = guests[i];
    std::unique_ptr<Machine> live = CutAtHalf(source, config);
    ASSERT_NE(live, nullptr);
    ASSERT_FALSE(live->supervisor().Idle()) << "the cut must land mid-run";
    const std::vector<uint8_t> image = Save(*live);

    ExpectSameRunOnEveryTier([&](EngineTier tier) {
      SCOPED_TRACE(std::string(EngineTierName(tier)));
      MachineConfig engine = config;
      ApplyTier(tier, &engine);
      std::string error;
      std::unique_ptr<Machine> restored =
          RestoreGuest(engine, image, engine.memory_words, &error);
      EXPECT_NE(restored, nullptr) << error;
      Machine booted(engine);
      EXPECT_TRUE(RestoreSnapshot(image, &booted, &error)) << error;
      if (restored == nullptr) {
        return RunSignature{};
      }
      EXPECT_EQ(EngineTierOf(restored->config()), tier);
      EXPECT_EQ(Save(*restored), Save(booted));
      EXPECT_EQ(Save(*restored), image);
      EXPECT_EQ(FingerprintMachine(*restored), FingerprintMachine(booted));
      ExpectSameFrameStats(booted.memory(), restored->memory());
      // The adopted store's frames are sealed for cloning like any other
      // store's: a clone taken now keeps the image's contents while the
      // restored machine runs on.
      const std::unique_ptr<Machine> clone = Machine::CloneFrom(*restored);

      EXPECT_TRUE(booted.Run(100'000'000).idle);
      EXPECT_TRUE(restored->Run(100'000'000).idle);
      EXPECT_TRUE(SameRun(SignatureOf(booted), SignatureOf(*restored)));
      EXPECT_EQ(Save(*clone), image);
      return SignatureOf(*restored);
    });
  }
}

// The SDW cache's slots are machine state and travel into a clone and into
// an image, and every probe answers from them alone. A clone and a restore
// of the same cut therefore answer from their restored descriptors at
// once: over the same slice they walk exactly as often as the cut
// machine, whose host caches are warm.
TEST(RestoreGuest, ClonesAndRestoresAnswerFromRestoredDescriptors) {
  const MachineConfig config = SmallConfig();
  std::unique_ptr<Machine> live = CutAtHalf(GenerateGuest(1).source, config);
  ASSERT_NE(live, nullptr);
  const std::vector<uint8_t> image = Save(*live);
  const std::unique_ptr<Machine> clone = Machine::CloneFrom(*live);
  std::string error;
  const std::unique_ptr<Machine> restored =
      RestoreGuest(config, image, config.memory_words, &error);
  ASSERT_NE(clone, nullptr);
  ASSERT_NE(restored, nullptr) << error;

  const SdwCache::State state = live->cpu().sdw_cache().CaptureState();
  EXPECT_EQ(clone->cpu().sdw_cache().CaptureState(), state);
  EXPECT_EQ(restored->cpu().sdw_cache().CaptureState(), state);

  const auto verdict_misses_over_slice = [](Machine& machine) {
    const uint64_t before = machine.cpu().counters().verdict_misses;
    machine.Run(20'000);
    return machine.cpu().counters().verdict_misses - before;
  };
  const uint64_t clone_misses = verdict_misses_over_slice(*clone);
  EXPECT_GT(clone_misses, 0u);
  EXPECT_EQ(verdict_misses_over_slice(*restored), clone_misses);
  EXPECT_EQ(verdict_misses_over_slice(*live), clone_misses);
  EXPECT_EQ(clone->cpu().sdw_cache().CaptureState(), restored->cpu().sdw_cache().CaptureState());
}

// Each refusal names the same problem VerifySnapshot or the size cap
// names, and leaves no machine behind.
TEST(RestoreGuest, RefusesBadImagesWithTheirErrors) {
  std::unique_ptr<Machine> live = CutAtHalf(GenerateGuest(1).source, SmallConfig());
  ASSERT_NE(live, nullptr);
  const std::vector<uint8_t> image = Save(*live);
  const size_t words = SmallConfig().memory_words;
  const size_t memory_payload = 16 + 16 + Payload(image, kMeta).size() + 16;
  const size_t device_bytes = Payload(image, kDevice).size();

  struct Case {
    const char* name;
    std::vector<uint8_t> image;
    size_t limit;
    std::string error;
  };
  std::vector<Case> cases;
  cases.push_back({"bad CRC", image, words, "section 2 payload CRC mismatch"});
  cases.back().image[memory_payload + 5] ^= 0x10;
  cases.push_back({"over the memory cap", image, words - 1,
                   "image wants a 1048576-word machine, limit is 1048575 words"});
  cases.push_back({"truncated section", image, words,
                   "section 8 truncated: " + std::to_string(device_bytes) +
                       " payload bytes declared, " + std::to_string(device_bytes - 1) +
                       " remain"});
  cases.back().image.pop_back();
  cases.push_back({"truncated header", std::vector<uint8_t>(image.begin(), image.begin() + 10),
                   words, "image truncated: 10 bytes, header needs 16"});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string error;
    EXPECT_EQ(RestoreGuest(MachineConfig{}, c.image, c.limit, &error), nullptr);
    EXPECT_EQ(error, c.error);
    if (c.limit == words) {
      std::string verify_error;
      EXPECT_FALSE(VerifySnapshot(c.image, &verify_error));
      EXPECT_EQ(verify_error, c.error);
    }
  }
}

}  // namespace
}  // namespace rings
