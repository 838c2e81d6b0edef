// Fleet-shared read-only decode (src/cpu/shared_decode.h): machines
// loading the identical program share one pre-decoded image through the
// process-wide registry, and a machine that modifies its own code
// diverges from the image word-by-word (the copy-on-write split) without
// its siblings ever seeing the change.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/cpu/shared_decode.h"
#include "src/sys/machine.h"

namespace rings {
namespace {

// A guest that copies one word from the `patch` data segment over its own
// `target` instruction, executes it, and exits with the A register:
//
//   main w0: lda src,*     main w4: src -> patch[0]
//        w1: sta dst,*          w5: dst -> main[2]
//        w2: ldai 7  (target)
//        w3: mme 0
//
// Poking patch[0] with the original `ldai 7` encoding makes the
// self-store a no-op (exit 7); poking a different instruction makes the
// guest genuinely self-modifying (exit = the new immediate).
constexpr char kSelfPatchSource[] = R"(
        .segment main
start:  lda   src,*
        sta   dst,*
target: ldai  7
        mme   0
src:    .its  4, patch, 0
dst:    .its  4, main, 2

        .segment patch
        .word 0
)";

std::unique_ptr<Machine> MakeSelfPatchMachine(bool shared_decode) {
  MachineConfig config;
  config.memory_words = size_t{1} << 18;
  config.shared_decode = shared_decode;
  auto machine = std::make_unique<Machine>(config);
  SegmentAccess writable_code = MakeProcedureSegment(4, 4);
  writable_code.flags.write = true;  // the guest stores into its own code
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(writable_code);
  acls["patch"] = AccessControlList::Public(MakeDataSegment(4, 4));
  std::string error;
  if (!machine->LoadProgramSource(kSelfPatchSource, acls, &error)) {
    ADD_FAILURE() << "load failed: " << error;
    return nullptr;
  }
  return machine;
}

int64_t RunToExit(Machine* machine) {
  Process* process = machine->Login("test");
  machine->supervisor().InitiateAll(process);
  machine->Start(process, "main", "start", kUserRing);
  machine->Run(10'000'000);
  EXPECT_EQ(process->state, ProcessState::kExited);
  return process->exit_code;
}

TEST(SharedDecode, PinRetainsEachIdentityOnce) {
  SharedDecodeRegistry& registry = SharedDecodeRegistry::Instance();
  const uint64_t identity = 0x0DDBA11DEC0DEull;
  const SharedDecodeRegistry::Pin pin;
  std::vector<std::shared_ptr<const SharedDecodeImage>> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(registry.Acquire(
        identity, [identity] { return SharedDecodeImage::Builder().Publish(identity); }));
  }
  handles.resize(1);
  EXPECT_EQ(handles.front().use_count(), 2);  // this handle + the pin's one
}

TEST(SharedDecode, SiblingsShareOneImageAndBuildOnce) {
  const size_t live_before = SharedDecodeRegistry::Instance().LiveImages();
  auto a = MakeSelfPatchMachine(/*shared_decode=*/true);
  auto b = MakeSelfPatchMachine(/*shared_decode=*/true);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(a->cpu().has_decode_image());
  EXPECT_TRUE(b->cpu().has_decode_image());
  // One build between the two siblings; the identical program identity
  // resolves to one registry image.
  EXPECT_EQ(a->cpu().counters().shared_decode_builds +
                b->cpu().counters().shared_decode_builds,
            1u);
  EXPECT_EQ(SharedDecodeRegistry::Instance().LiveImages(), live_before + 1);
  EXPECT_GT(a->cpu().decode_image_bytes(), 0u);
  EXPECT_EQ(a->cpu().decode_image_bytes(), b->cpu().decode_image_bytes());

  // The image is refcounted: it outlives either single machine and
  // expires with the last.
  a.reset();
  EXPECT_EQ(SharedDecodeRegistry::Instance().LiveImages(), live_before + 1);
  b.reset();
  EXPECT_EQ(SharedDecodeRegistry::Instance().LiveImages(), live_before);
}

TEST(SharedDecode, PrivateImagesWhenSharingIsDisabled) {
  const size_t live_before = SharedDecodeRegistry::Instance().LiveImages();
  auto a = MakeSelfPatchMachine(/*shared_decode=*/false);
  auto b = MakeSelfPatchMachine(/*shared_decode=*/false);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Every machine decodes for itself and nothing is published.
  EXPECT_EQ(a->cpu().counters().shared_decode_builds, 1u);
  EXPECT_EQ(b->cpu().counters().shared_decode_builds, 1u);
  EXPECT_EQ(SharedDecodeRegistry::Instance().LiveImages(), live_before);
}

TEST(SharedDecode, SelfModifyingSiblingDivergesWithoutTouchingTheImage) {
  auto a = MakeSelfPatchMachine(/*shared_decode=*/true);
  auto b = MakeSelfPatchMachine(/*shared_decode=*/true);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  // A's self-store rewrites `target` with its original encoding (a
  // content no-op); B's rewrites it with `ldai 31`.
  ASSERT_TRUE(a->PokeSegment("patch", 0, EncodeInstruction(MakeIns(Opcode::kLdai, 7))));
  ASSERT_TRUE(b->PokeSegment("patch", 0, EncodeInstruction(MakeIns(Opcode::kLdai, 31))));

  // B runs (and diverges) first; A still reads the shared image after.
  EXPECT_EQ(RunToExit(b.get()), 31);
  EXPECT_EQ(RunToExit(a.get()), 7);

  // B's rewritten word missed the image (the CoW split) and was decoded
  // live; A's identical word kept hitting it — B's store never reached
  // the shared copy.
  EXPECT_GT(b->cpu().counters().shared_decode_misses, 0u);
  EXPECT_EQ(a->cpu().counters().shared_decode_misses, 0u);
  EXPECT_GT(a->cpu().counters().shared_decode_hits, 0u);
}

}  // namespace
}  // namespace rings
