// The snapshot image format, pinned. Images of fixed guests saved at
// fixed cuts must hash to fixed FNV-1a digests: any change to a field's
// order, width or encoding moves a digest, so a refactor of the encoder
// cannot silently change kSnapshotVersion 1's byte layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/fleet/fingerprint.h"
#include "src/fuzz/generator.h"
#include "src/snapshot/snapshot.h"
#include "tests/snapshot/image_testutil.h"

namespace rings {
namespace {

using namespace image_testutil;

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(RINGS_EXAMPLES_DIR) + "/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// The generator never makes upward calls, so the live-return-gate image
// comes from this guest: a ring-4 caller passes an in/out argument to a
// ring-6 gate whose body spins long enough for the cut to land inside
// it, with the supervisor's return gate (and its copied argument) live.
constexpr char kUpwardCallGuest[] = R"(
;; acl main * procedure 4 4
;; acl lowdata * data 4 4
;; acl high * procedure 6 6
;; acl hidata * data 6 6
;; start main start 4
        .segment main
start:  epp   pr1, arglist
        epp   pr2, hiptr,*
        call  pr2|0
        lda   dptr,*
        mme   0
arglist: .word 1
        .its  4, lowdata, 0
        .word 1
hiptr:  .its  4, high, 0
dptr:   .its  4, lowdata, 0

        .segment lowdata
        .word 5

        .segment hidata
        .word 0

        .segment high
        .gates 1
entry:  lda   pr1|1,*
        adai  100
        sta   pr1|1,*
spin:   aos   cnt,*
        lda   cnt,*
        sba   lim
        tmi   spin
        ret   pr7|0
lim:    .word 200
cnt:    .its  6, hidata, 0
)";

MachineConfig FaultConfigured() {
  MachineConfig config = SmallConfig();
  config.fault = FaultConfig::Uniform(/*seed=*/11, /*ppm=*/3000);
  return config;
}

struct PinnedImage {
  const char* name;
  std::string source;
  MachineConfig config;
  uint64_t digest;
};

std::vector<PinnedImage> PinnedImages() {
  return {
      {"hello.asm", ReadExample("hello.asm"), SmallConfig(), 0xb6e75db3109dc050ull},
      {"generated seed 1", GenerateGuest(1).source, SmallConfig(), 0xd3e5edbbc8e140b5ull},
      {"generated seed 2, fault injector", GenerateGuest(2).source, FaultConfigured(),
       0x050234d4ec242a12ull},
      {"generated seed 5", GenerateGuest(5).source, SmallConfig(), 0xafb4fd435cd0a9c2ull},
      {"upward call, live return gate", kUpwardCallGuest, SmallConfig(),
       0x885950b620d108d4ull},
  };
}

TEST(SnapshotFormat, PinnedImagesAreByteStable) {
  EXPECT_EQ(kSnapshotVersion, 1u);
  for (const PinnedImage& pinned : PinnedImages()) {
    SCOPED_TRACE(pinned.name);
    std::unique_ptr<Machine> live = CutAtHalf(pinned.source, pinned.config);
    ASSERT_NE(live, nullptr);
    std::vector<uint8_t> image;
    std::string error;
    ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
    EXPECT_EQ(Fnv1a(image), pinned.digest)
        << std::hex << "digest 0x" << Fnv1a(image) << std::dec << ", " << image.size()
        << " bytes";
  }
}

// The pinned images exercise what they claim to: injected faults in the
// fault section, a live return gate with a copied argument in the
// supervisor section.
TEST(SnapshotFormat, PinnedCutsCarryTheirState) {
  const std::vector<PinnedImage> pinned = PinnedImages();
  std::unique_ptr<Machine> faulty = CutAtHalf(pinned[2].source, pinned[2].config);
  ASSERT_NE(faulty, nullptr);
  ASSERT_NE(faulty->fault_injector(), nullptr);
  EXPECT_FALSE(faulty->fault_injector()->events().empty());

  std::unique_ptr<Machine> upward = CutAtHalf(pinned[4].source, pinned[4].config);
  ASSERT_NE(upward, nullptr);
  ASSERT_EQ(upward->supervisor().processes().size(), 1u);
  const Process& process = *upward->supervisor().processes()[0];
  ASSERT_EQ(process.return_gates.size(), 1u);
  EXPECT_EQ(process.return_gates[0].copied_args.size(), 1u);
}

// A word-by-word reference for the store part of the memory section: the
// word count, then maximal zero and non-zero runs, each a tag u8 (0 or 1)
// and a count u64, a non-zero run followed by its words.
std::vector<uint8_t> ReferenceStoreRuns(const PhysicalMemory& memory) {
  std::vector<uint8_t> out;
  const auto put = [&out](uint64_t value, size_t width) {
    for (size_t i = 0; i < width; ++i) {
      out.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  };
  const size_t size = memory.size();
  put(size, 8);
  for (size_t i = 0; i < size;) {
    const bool zero = memory.Read(i) == 0;
    size_t j = i;
    while (j < size && (memory.Read(j) == 0) == zero) {
      ++j;
    }
    put(zero ? 0 : 1, 1);
    put(j - i, 8);
    for (size_t k = i; k < j && !zero; ++k) {
      put(memory.Read(k), 8);
    }
    i = j;
  }
  return out;
}

// The memory section is the store's bookkeeping (next_free u64,
// fault_count u64, the optional latched fault: a presence byte, then
// addr u64 and write u8), then the store part, which must match the
// reference byte for byte.
void ExpectStoreRuns(const Machine& machine) {
  const std::vector<uint8_t> memory = Payload(Save(machine), kMemory);
  ASSERT_GE(memory.size(), 17u);
  const size_t bookkeeping = memory[16] == 0 ? 17 : 17 + 9;
  EXPECT_EQ(std::vector<uint8_t>(memory.begin() + bookkeeping, memory.end()),
            ReferenceStoreRuns(machine.memory()));
}

// The encoder walks frames and skips never-written ones whole; its bytes
// must still be those of a word-by-word encoder, with runs merged across
// frame boundaries whichever frames happen to be materialized.
TEST(SnapshotFormat, MemoryRunsMatchAWordByWordEncoder) {
  constexpr size_t kFrame = PhysicalMemory::kFrameWords;
  const size_t small = SmallConfig().memory_words;
  struct Case {
    const char* what;
    size_t words;
    std::function<void(PhysicalMemory&)> fill;
  };
  const std::vector<Case> cases = {
      {"untouched store", small, [](PhysicalMemory&) {}},
      {"non-zero run across a frame boundary", small,
       [](PhysicalMemory& m) {
         for (size_t a = 100 * kFrame - 3; a < 100 * kFrame + 5; ++a) {
           m.Write(a, a);
         }
         for (size_t a = 150 * kFrame - kFrame / 2; a < 152 * kFrame + 1; ++a) {
           m.Write(a, 0x5555);  // spans one whole frame and two boundaries
         }
       }},
      {"store size not a multiple of the frame", small + 100,
       [small](PhysicalMemory& m) {
         m.Write(small - 2, 1);  // a run across into the final partial frame
         m.Write(small - 1, 2);
         m.Write(small, 3);
         m.Write(small + 40, 4);
         m.Write(small + 99, 5);  // the store's last word
       }},
      {"zero run spanning many frames", small,
       [small](PhysicalMemory& m) {
         m.Write(80 * kFrame + 7, 9);
         m.Write(90 * kFrame + 11, 1);  // a materialized frame that is all zero
         m.Write(90 * kFrame + 11, 0);
         m.Write(200 * kFrame + 12, 3);
         m.Write(small - 1, 4);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    MachineConfig config;
    config.memory_words = c.words;
    Machine machine(config);
    ASSERT_TRUE(machine.ok());
    c.fill(machine.memory());
    ExpectStoreRuns(machine);
  }
  for (const PinnedImage& pinned : PinnedImages()) {
    SCOPED_TRACE(pinned.name);
    std::unique_ptr<Machine> live = CutAtHalf(pinned.source, pinned.config);
    ASSERT_NE(live, nullptr);
    ExpectStoreRuns(*live);
  }
}

// ---------------------------------------------------------------------------
// The decoder's semantic checks, reached through CRC-valid malformed images.
// ---------------------------------------------------------------------------

// The payload offset just past the first string field holding `text`.
size_t After(const std::vector<uint8_t>& payload, const std::string& text) {
  std::vector<uint8_t> field(8);
  Store(&field, 0, text.size(), 8);
  field.insert(field.end(), text.begin(), text.end());
  const auto it = std::search(payload.begin(), payload.end(), field.begin(), field.end());
  EXPECT_NE(it, payload.end()) << "no string field \"" << text << "\"";
  return static_cast<size_t>(it - payload.begin()) + field.size();
}

// Restoring `image` into a fresh machine of `config` must fail with an
// error naming `section` and containing `detail`, and leave the machine
// untouched.
void ExpectRejected(const std::vector<uint8_t>& image, const MachineConfig& config,
                    const std::string& section, const std::string& detail) {
  std::string error;
  ASSERT_TRUE(VerifySnapshot(image, &error)) << "not CRC-valid: " << error;
  Machine target(config);
  ASSERT_TRUE(target.ok());
  const uint64_t untouched = FingerprintMachine(target);
  EXPECT_FALSE(RestoreSnapshot(image, &target, &error));
  EXPECT_NE(error.find("(" + section + ")"), std::string::npos) << error;
  EXPECT_NE(error.find(detail), std::string::npos) << error;
  EXPECT_EQ(FingerprintMachine(target), untouched);
}

// Payload offsets of the cpu section (all fixed-width): cycles u64, then
// the register file (a, q, 8 index registers, 8 pointer registers of
// ring u8 + segno u32 + wordno u32, the IPR, the DBR), the TPR, three
// flags and the timer, then the trap state, the counters and the
// descriptor cache.
constexpr size_t kRegisterFileBytes = 8 + 8 + 8 * 4 + 9 * 9 + 16;
constexpr size_t kPr0Ring = 8 + 8 + 8 + 8 * 4;
constexpr size_t kTrapCause = 8 + kRegisterFileBytes + 9 + 1 + 1 + 8 + 1;
constexpr size_t kCounterCount = kTrapCause + 4 + kRegisterFileBytes + 9 + 14 + 8 + 8;

size_t CounterFields() {
  size_t fields = 0;
  Counters::ForEachField([&fields](const char*, uint64_t Counters::*, bool) { ++fields; });
  return fields;
}
size_t TrapArraySize() { return kCounterCount + 4 + 8 * CounterFields(); }
size_t SdwCacheStart() { return TrapArraySize() + 4 + 8 * Counters{}.traps.size(); }
size_t SdwCacheGeometry() { return SdwCacheStart() + 1 + 8 + 8; }
// Entry 0: valid u8, segno u32, then its SDW: present, paged, base u64,
// bound u64, the packed flags byte, then R1.
size_t FirstCachedR1() { return SdwCacheGeometry() + 4 + 1 + 4 + 1 + 1 + 8 + 8 + 1; }

// Supervisor-section offsets: next_pid, anonymous segments, handling_trap,
// current pid, the ready count and the first ready pid; then, past a
// process's user name: its state, DBR, saved registers, exit code, kill
// cause and pc, four statistics and the return-gate count.
constexpr size_t kCurrentPid = 8 + 8 + 1;
constexpr size_t kReadyCount = kCurrentPid + 8;
constexpr size_t kFirstReadyPid = kReadyCount + 8;
constexpr size_t kFirstGateFromUser = 1 + 16 + kRegisterFileBytes + 8 + 4 + 8 + 4 * 8 + 8;
// Within a return gate: expected target, the two rings, three saved
// pointer registers, the transfer size and the copied-arg count; within a
// copied arg: two addresses and the length, then its ring.
constexpr size_t kCallerRingInGate = 8;
constexpr size_t kFirstArgRingInGate = 8 + 1 + 1 + 3 * 9 + 8 + 8 + 8 + 8 + 4;

// Fault-section offsets: present, enabled, seed, the rate count and rates,
// both RNG streams, the count-array size and counts, the sequence, the
// event count, then the first event's sequence and site.
constexpr size_t kFirstFaultSite =
    1 + 1 + 8 + 4 + 4 * kNumFaultSites + 32 + 4 + 8 * kNumFaultSites + 8 + 8 + 8;

std::string TwoProcessHello() {
  return ReadExample("hello.asm") + "\n;; start main start 4 second\n";
}

TEST(SnapshotDecoder, RejectsOutOfRangeFieldsInCrcValidImages) {
  const MachineConfig config = SmallConfig();
  // Early enough that the second process still waits in the ready queue.
  std::unique_ptr<Machine> hello = CutAt(TwoProcessHello(), config, 60);
  ASSERT_NE(hello, nullptr);
  const std::vector<uint8_t> image = Save(*hello);
  const std::vector<uint8_t> supervisor = Payload(image, kSupervisor);
  ASSERT_NE(Load(supervisor, kCurrentPid, 8), 0u) << "the cut needs a current process";
  ASSERT_GE(Load(supervisor, kReadyCount, 8), 1u) << "the cut needs a ready process";
  ASSERT_GE(Load(Payload(image, kTrace), 1, 8), 1u) << "the cut needs a trace event";
  ASSERT_EQ(Payload(image, kMemory)[16], 0u) << "the cut must not latch a memory fault";
  const uint64_t store_words = Load(Payload(image, kMemory), 17, 8);

  struct Case {
    const char* what;
    std::vector<uint8_t> image;
    const char* section;
    const char* detail;
  };
  const std::vector<Case> cases = {
      {"pointer-register ring", Patch(image, kCpu, kPr0Ring, 9, 1), "cpu",
       "pointer-register ring 9 out of range"},
      {"bracket ring", Patch(image, kCpu, FirstCachedR1(), 8, 1), "cpu",
       "bracket ring 8 out of range"},
      {"trace ring", Patch(image, kTrace, 1 + 8 + 1 + 8, 200, 1), "trace",
       "trace event ring 200 out of range"},
      {"protection mode", Patch(image, kMeta, 8, 2, 1), "meta", "protection mode 2 out of range"},
      {"trap cause", Patch(image, kCpu, kTrapCause, 0xFFFF, 4), "cpu",
       "trap cause 65535 out of range"},
      {"trace kind", Patch(image, kTrace, 1 + 8, 6, 1), "trace",
       "trace event kind 6 out of range"},
      {"counter field count", Patch(image, kCpu, kCounterCount, CounterFields() + 1, 4), "cpu",
       "counter field count"},
      {"trap-array size", Patch(image, kCpu, TrapArraySize(), 3, 4), "cpu", "trap array size 3"},
      {"descriptor-cache geometry", Patch(image, kCpu, SdwCacheGeometry(), 17, 4), "cpu",
       "descriptor-cache geometry 17"},
      {"unknown ready pid", Patch(image, kSupervisor, kFirstReadyPid, 99, 8), "supervisor",
       "unknown ready pid 99"},
      {"unknown current pid", Patch(image, kSupervisor, kCurrentPid, 77, 8), "supervisor",
       "unknown current pid 77"},
      {"overflowing memory run", Patch(image, kMemory, 26, store_words + 1, 8), "memory",
       "overflows"},
      {"unknown run tag", Patch(image, kMemory, 25, 7, 1), "memory", "unknown memory run tag 7"},
      {"unconsumed payload bytes",
       RewriteSection(image, kDevice, [](std::vector<uint8_t>* p) { p->push_back(0); }),
       "device", "unconsumed payload bytes"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    ExpectRejected(c.image, config, c.section, c.detail);
  }
}

TEST(SnapshotDecoder, RejectsOutOfRangeProcessFields) {
  const MachineConfig config = SmallConfig();
  std::unique_ptr<Machine> upward = CutAtHalf(kUpwardCallGuest, config);
  ASSERT_NE(upward, nullptr);
  const std::vector<uint8_t> image = Save(*upward);
  const size_t user = After(Payload(image, kSupervisor), "user");
  const size_t gate = user + kFirstGateFromUser;
  ASSERT_EQ(Load(Payload(image, kSupervisor), gate - 8, 8), 1u) << "the cut needs a live gate";

  ExpectRejected(Patch(image, kSupervisor, user, 5, 1), config, "supervisor",
                 "process state 5 out of range");
  ExpectRejected(Patch(image, kSupervisor, gate + kCallerRingInGate, 8, 1), config, "supervisor",
                 "return-gate ring 8 out of range");
  ExpectRejected(Patch(image, kSupervisor, gate + kFirstArgRingInGate, 8, 1), config, "supervisor",
                 "copied-arg ring 8 out of range");
}

TEST(SnapshotDecoder, RejectsOutOfRangeLinkRingAndFaultSite) {
  const MachineConfig config = SmallConfig();
  std::unique_ptr<Machine> linked = Instantiate(ReadExample("linked.asm"), config);
  ASSERT_NE(linked, nullptr);
  const std::vector<uint8_t> linked_image = Save(*linked);
  // main's one link: segment "greeter" (the first string field naming it),
  // an empty symbol, the offset, then the ring.
  const std::vector<uint8_t> registry = Payload(linked_image, kRegistry);
  const size_t link_ring = After(registry, "greeter") + 8 + 8;
  ASSERT_EQ(Load(registry, link_ring - 16, 8), 0u) << "the link names no symbol";
  ExpectRejected(Patch(linked_image, kRegistry, link_ring, 8, 1), config, "registry",
                 "link ring 8 out of range");

  std::unique_ptr<Machine> faulty = CutAtHalf(GenerateGuest(2).source, FaultConfigured());
  ASSERT_NE(faulty, nullptr);
  ASSERT_FALSE(faulty->fault_injector()->events().empty());
  ExpectRejected(Patch(Save(*faulty), kFault, kFirstFaultSite, kNumFaultSites, 4),
                 FaultConfigured(), "fault", "fault site 7 out of range");
}

// The store's size is checked against the machine before the decoder
// allocates anything: a ~100-byte CRC-valid image declaring 2^34 words must
// not make restore allocate 128 GiB.
TEST(SnapshotDecoder, MemorySizeIsCheckedBeforeAllocating) {
  const MachineConfig config;  // 2^22 words
  std::unique_ptr<Machine> hello = CutAtHalf(ReadExample("hello.asm"), config);
  ASSERT_NE(hello, nullptr);
  const std::vector<uint8_t> image = Save(*hello);
  ASSERT_EQ(Load(Payload(image, kMemory), 17, 8), uint64_t{1} << 22);
  ExpectRejected(Patch(image, kMemory, 17, uint64_t{1} << 34, 8), config, "memory",
                 "17179869184 words for a 4194304-word machine");
}

// ---------------------------------------------------------------------------
// A clone and a restore carry the same state.
// ---------------------------------------------------------------------------

TEST(SnapshotState, CloneAndRestoreReproduceTheSavedImage) {
  std::vector<std::pair<std::string, MachineConfig>> guests = {
      {ReadExample("hello.asm"), SmallConfig()},
      {kUpwardCallGuest, SmallConfig()},
      {GenerateGuest(2).source, FaultConfigured()},
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    guests.emplace_back(GenerateGuest(100 + seed).source, SmallConfig());
  }
  for (size_t i = 0; i < guests.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& [source, config] = guests[i];
    std::unique_ptr<Machine> live = CutAtHalf(source, config);
    ASSERT_NE(live, nullptr);
    const std::vector<uint8_t> image = Save(*live);

    std::unique_ptr<Machine> clone = Machine::CloneFrom(*live);
    ASSERT_NE(clone, nullptr);
    EXPECT_EQ(Save(*clone), image) << "clone";

    Machine restored(config);
    std::string error;
    ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
    EXPECT_EQ(Save(restored), image) << "restore";
  }
}

// The one piece of machine state images do not carry: the per-quantum
// audit findings. CloneFrom copies them; a restored machine starts with
// none.
TEST(SnapshotState, AuditFindingsTravelWithClonesOnly) {
  MachineConfig config = SmallConfig();
  config.audit_every_quantum = true;
  config.quantum = 50;
  // A gate extension on a segment without gates: one audit warning per
  // quantum.
  std::string source = kUpwardCallGuest;
  const std::string acl = ";; acl main * procedure 4 4";
  source.replace(source.find(acl), acl.size(), acl + " 5");
  std::unique_ptr<Machine> live = CutAtHalf(source, config);
  ASSERT_NE(live, nullptr);
  ASSERT_FALSE(live->audit_findings().empty());

  std::unique_ptr<Machine> clone = Machine::CloneFrom(*live);
  ASSERT_NE(clone, nullptr);
  ASSERT_EQ(clone->audit_findings().size(), live->audit_findings().size());
  for (size_t i = 0; i < live->audit_findings().size(); ++i) {
    EXPECT_EQ(clone->audit_findings()[i].ToString(), live->audit_findings()[i].ToString());
  }

  Machine restored(config);
  std::string error;
  ASSERT_TRUE(RestoreSnapshot(Save(*live), &restored, &error)) << error;
  EXPECT_TRUE(restored.audit_findings().empty());
  EXPECT_EQ(Save(restored), Save(*clone));
}

}  // namespace
}  // namespace rings
