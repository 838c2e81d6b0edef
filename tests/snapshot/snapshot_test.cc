// Snapshot/restore correctness. The headline contract: restoring a
// mid-run image into a fresh machine and running to completion produces
// the exact fingerprint, counters, and trap sequence the live machine
// produces uninterrupted — on every engine tier. The robustness contract: truncated, bit-flipped,
// wrong-endian, and wrong-shape images are rejected with structured
// errors and leave the target machine untouched.
#include "src/snapshot/snapshot.h"

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/xorshift.h"
#include "src/fleet/fingerprint.h"
#include "src/kasm/assembler.h"
#include "src/mem/page_table.h"
#include "src/sys/machine.h"
#include "src/sys/manifest.h"
#include "tests/testutil.h"

namespace rings {
namespace {

// --- the three pinned guest workloads --------------------------------------

// Gate-crossing call loop: repeated downward calls through a ring-1 gate.
constexpr char kCallLoopSource[] = R"(
        .segment main
start:
loop:   epp   pr2, gptr,*
        call  pr2|0
        aos   cnt,*
        lda   cnt,*
        sba   limit
        tmi   loop
        mme   0
limit:  .word 300
cnt:    .its  4, counter, 0
gptr:   .its  4, target, 0

        .segment counter
        .word 0

        .segment target
        .gates 1
entry:  ret   pr7|0
)";

std::unique_ptr<Machine> MakeCallLoopMachine(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  std::map<std::string, AccessControlList> acls;
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["counter"] = AccessControlList::Public(MakeDataSegment(4, 4));
  acls["target"] = AccessControlList::Public(MakeProcedureSegment(1, 1, 7, 1));
  if (!machine->LoadProgramSource(kCallLoopSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(true);
  Process* p = machine->Login("caller");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "main", "start", kUserRing)) {
    return nullptr;
  }
  return machine;
}

// Demand pager: pounds two pages of an initially absent paged segment,
// so missing-page traps and supervisor page fills cross the snapshot.
constexpr char kPagerSource[] = R"(
        .segment pager
pstart: aos   cnt,*
        lda   far,*
        adai  1
        sta   far,*
        lda   cnt,*
        sba   plim
        tmi   pstart
        mme   0
plim:   .word 400
cnt:    .its  4, bigdata, 10
far:    .its  4, bigdata, 1034
)";

std::unique_ptr<Machine> MakePagerMachine(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  if (!machine->registry()
           .CreatePagedSegment("bigdata", 2 * kPageWords,
                               AccessControlList::Public(MakeDataSegment(4, 4)),
                               /*populate=*/false)
           .has_value()) {
    return nullptr;
  }
  std::map<std::string, AccessControlList> acls;
  acls["pager"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  if (!machine->LoadProgramSource(kPagerSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(true);
  Process* p = machine->Login("pager");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "pager", "pstart", kUserRing)) {
    return nullptr;
  }
  return machine;
}

// Protected-directory search (the paper's file-search workload): a ring-4
// loop probing a rings<=1 directory through a tiny ring-1 gate service —
// one ring crossing per probe, exiting with the found value.
constexpr char kSearchSource[] = R"(
        .segment rdsvc
        .gates 1
gate:   stq   tq,*
        ldx   x1, tq,*
        epp   pr3, sdirp,*
        lda   pr3|0,x1
        ret   pr7|0
tq:     .its  1, svcdata, 0
sdirp:  .its  1, directory, 0

        .segment svcdata
        .block 1

        .segment main
start:  stz   idx,*
loop:   ldq   idx,*
        epp   pr2, g,*
        call  pr2|0
        sba   key
        tze   found
        aos   idx,*
        aos   idx,*
        lda   idx,*
        sba   dlen
        tmi   loop
        ldai  -1
        mme   0
found:  lda   idx,*
        adai  1
        sta   idx,*
        ldq   idx,*
        epp   pr2, g,*
        call  pr2|0
        mme   0
key:    .word 40
dlen:   .word 80
idx:    .its  4, udata, 0
g:      .its  4, rdsvc, 0

        .segment udata
        .block 1
)";

std::unique_ptr<Machine> MakeSearchMachine(const MachineConfig& config) {
  auto machine = std::make_unique<Machine>(config);
  std::vector<Word> directory;
  for (int i = 1; i <= 40; ++i) {
    directory.push_back(static_cast<Word>(i));
    directory.push_back(static_cast<Word>(1000 + i));
  }
  machine->registry().CreateSegmentWithContents(
      "directory", directory, 0, 0, AccessControlList::Public(MakeReadOnlyDataSegment(1)));
  std::map<std::string, AccessControlList> acls;
  acls["rdsvc"] = AccessControlList::Public(MakeProcedureSegment(1, 1, 5, 1));
  acls["svcdata"] = AccessControlList::Public(MakeDataSegment(1, 1));
  acls["main"] = AccessControlList::Public(MakeProcedureSegment(4, 4));
  acls["udata"] = AccessControlList::Public(MakeDataSegment(4, 4));
  if (!machine->LoadProgramSource(kSearchSource, acls)) {
    return nullptr;
  }
  machine->trace().set_enabled(true);
  Process* p = machine->Login("searcher");
  machine->supervisor().InitiateAll(p);
  if (!machine->Start(p, "main", "start", kUserRing)) {
    return nullptr;
  }
  return machine;
}

using MachineFactory = std::unique_ptr<Machine> (*)(const MachineConfig&);

struct Guest {
  const char* name;
  MachineFactory factory;
};
constexpr Guest kGuests[] = {
    {"call-loop", MakeCallLoopMachine},
    {"pager", MakePagerMachine},
    {"dir-search", MakeSearchMachine},
};

// ---------------------------------------------------------------------------
// Exact-restore determinism: every guest, every engine.
// ---------------------------------------------------------------------------

TEST(Snapshot, RestoreTrajectoryMatchesUninterruptedRun) {
  for (const Guest& guest : kGuests) {
    for (const EngineTier tier : kEngineTiers) {
      SCOPED_TRACE(std::string(guest.name) + "/" + std::string(EngineTierName(tier)));
      MachineConfig config;
      ApplyTier(tier, &config);

      // The reference: the same machine run uninterrupted to completion.
      std::unique_ptr<Machine> reference = guest.factory(config);
      ASSERT_NE(reference, nullptr);
      ASSERT_TRUE(reference->Run(100'000'000).idle);
      const RunSignature want = SignatureOf(*reference);
      ASSERT_FALSE(want.traps.empty());

      // The live machine runs a few short slices, then is snapshotted.
      std::unique_ptr<Machine> live = guest.factory(config);
      ASSERT_NE(live, nullptr);
      for (int slice = 0; slice < 3; ++slice) {
        live->Run(2'000);
      }
      std::vector<uint8_t> image;
      std::string error;
      ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
      ASSERT_TRUE(VerifySnapshot(image, &error)) << error;

      // Restore into a bare machine (no program loaded): the image alone
      // must carry the full state.
      Machine restored(config);
      ASSERT_TRUE(restored.ok());
      ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
      EXPECT_TRUE(SameRun(SignatureOf(*live), SignatureOf(restored)));

      // Both the interrupted original and the restored copy must land on
      // the uninterrupted run's exact final state.
      ASSERT_TRUE(live->Run(100'000'000).idle);
      ASSERT_TRUE(restored.Run(100'000'000).idle);
      EXPECT_TRUE(SameRun(want, SignatureOf(*live)));
      EXPECT_TRUE(SameRun(want, SignatureOf(restored)));
    }
  }
}

// The snapshot point must not matter: images taken at many different
// cut points all converge to the same final state.
TEST(Snapshot, EveryCutPointConverges) {
  const MachineConfig config;
  std::unique_ptr<Machine> reference = MakeSearchMachine(config);
  ASSERT_NE(reference, nullptr);
  ASSERT_TRUE(reference->Run(100'000'000).idle);
  const uint64_t want_fingerprint = FingerprintMachine(*reference);
  const std::vector<std::string> want_traps = TrapSequence(*reference);

  for (const uint64_t cut : {1u, 500u, 1'500u, 4'000u, 9'000u}) {
    SCOPED_TRACE(cut);
    std::unique_ptr<Machine> live = MakeSearchMachine(config);
    ASSERT_NE(live, nullptr);
    live->Run(cut);
    std::vector<uint8_t> image;
    std::string error;
    ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
    Machine restored(config);
    ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
    ASSERT_TRUE(restored.Run(100'000'000).idle);
    EXPECT_EQ(FingerprintMachine(restored), want_fingerprint);
    EXPECT_EQ(TrapSequence(restored), want_traps);
  }
}

// A snapshot of a completed machine round-trips exactly.
TEST(Snapshot, CompletedMachineRoundTrips) {
  const MachineConfig config;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  ASSERT_TRUE(live->Run(100'000'000).idle);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
  Machine restored(config);
  ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
  EXPECT_EQ(FingerprintMachine(restored), FingerprintMachine(*live));
  EXPECT_TRUE(restored.Run(1'000'000).idle);  // nothing left to run
  EXPECT_EQ(FingerprintMachine(restored), FingerprintMachine(*live));
}

// Observing never perturbs identity: the event trace is not state the
// fingerprint reads, so a traced and an untraced boot of one guest
// fingerprint the same, live and through images written either way.
TEST(Snapshot, TracingNeverChangesTheFingerprint) {
  const std::string source = std::string(R"(;; acl main * procedure 4 4
;; acl counter * data 4 4
;; acl target * procedure 1 1 7
;; start main start 4
)") + kCallLoopSource;
  const AssembleResult assembled = Assemble(source);
  ASSERT_TRUE(assembled.ok) << assembled.error.ToString();
  const Manifest manifest = ParseManifest(source);
  ASSERT_TRUE(manifest.ok()) << manifest.error;
  const MachineConfig config;
  uint64_t live[2] = {};
  uint64_t restored[2] = {};
  for (const bool trace : {false, true}) {
    SCOPED_TRACE(trace ? "traced" : "untraced");
    std::string error;
    auto machine = BootGuest(config, assembled.program, manifest, &error, trace);
    ASSERT_NE(machine, nullptr) << error;
    machine->Run(2'000);
    std::vector<uint8_t> image;
    ASSERT_TRUE(SaveSnapshot(*machine, &image, &error)) << error;
    ASSERT_TRUE(machine->Run(100'000'000).idle);
    EXPECT_EQ(machine->trace().events().empty(), !trace);
    live[trace] = FingerprintMachine(*machine);

    Machine copy(config);
    ASSERT_TRUE(RestoreSnapshot(image, &copy, &error)) << error;
    EXPECT_EQ(copy.trace().enabled(), trace);
    ASSERT_TRUE(copy.Run(100'000'000).idle);
    restored[trace] = FingerprintMachine(copy);
  }
  EXPECT_EQ(live[true], live[false]);
  EXPECT_EQ(restored[true], restored[false]);
  EXPECT_EQ(restored[false], live[false]);
}

TEST(Snapshot, PeekMetaReportsMachineShape) {
  MachineConfig config;
  config.memory_words = size_t{1} << 20;
  config.quantum = 1234;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(3'000);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;

  SnapshotMeta meta;
  ASSERT_TRUE(PeekSnapshotMeta(image, &meta, &error)) << error;
  EXPECT_EQ(meta.memory_words, uint64_t{1} << 20);
  EXPECT_EQ(meta.quantum, 1234);
  EXPECT_EQ(meta.mode, ProtectionMode::kRingHardware);
  EXPECT_EQ(meta.cycle_model.instruction_base, CycleModel{}.instruction_base);
}

// ---------------------------------------------------------------------------
// Rejection: corrupted, truncated, wrong-endian, wrong-shape images.
// ---------------------------------------------------------------------------

std::vector<uint8_t> MakeValidImage(const MachineConfig& config) {
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  EXPECT_NE(live, nullptr);
  live->Run(3'000);
  std::vector<uint8_t> image;
  std::string error;
  EXPECT_TRUE(SaveSnapshot(*live, &image, &error)) << error;
  return image;
}

TEST(Snapshot, TruncatedImagesAreRejectedAtEveryLength) {
  const MachineConfig config;
  const std::vector<uint8_t> image = MakeValidImage(config);
  ASSERT_GT(image.size(), 64u);

  Machine target(config);
  ASSERT_TRUE(target.ok());
  const uint64_t untouched = FingerprintMachine(target);

  std::vector<size_t> lengths = {0, 1, 4, 8, 12, 15, 16, 17, 31, image.size() - 1};
  for (size_t len = 32; len < image.size(); len += 97) {
    lengths.push_back(len);
  }
  for (const size_t len : lengths) {
    SCOPED_TRACE(len);
    std::string error;
    EXPECT_FALSE(VerifySnapshot(image.data(), len, &error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(RestoreSnapshot(image.data(), len, &target, &error));
    EXPECT_FALSE(error.empty());
  }
  // A rejected image never modifies the target machine.
  EXPECT_EQ(FingerprintMachine(target), untouched);
}

TEST(Snapshot, EverySingleBitFlipIsDetected) {
  const MachineConfig config;
  std::vector<uint8_t> image = MakeValidImage(config);
  Machine target(config);
  ASSERT_TRUE(target.ok());
  const uint64_t untouched = FingerprintMachine(target);

  Xorshift rng(0xF11Fu);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t byte = rng.Below(image.size());
    const uint8_t mask = static_cast<uint8_t>(1u << rng.Below(8));
    image[byte] ^= mask;
    SCOPED_TRACE(trial);
    std::string error;
    EXPECT_FALSE(VerifySnapshot(image, &error)) << "byte " << byte;
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(RestoreSnapshot(image, &target, &error)) << "byte " << byte;
    EXPECT_FALSE(error.empty());
    image[byte] ^= mask;  // un-flip for the next trial
  }
  std::string error;
  EXPECT_TRUE(VerifySnapshot(image, &error)) << error;  // pristine again
  EXPECT_EQ(FingerprintMachine(target), untouched);
}

TEST(Snapshot, WrongEndianImageIsNamedAsSuch) {
  const std::vector<uint8_t> image = MakeValidImage(MachineConfig{});
  std::vector<uint8_t> swapped = image;
  std::swap(swapped[0], swapped[3]);
  std::swap(swapped[1], swapped[2]);
  std::string error;
  EXPECT_FALSE(VerifySnapshot(swapped, &error));
  EXPECT_NE(error.find("wrong-endian"), std::string::npos) << error;
}

TEST(Snapshot, GarbageAndEmptyImagesAreRejected) {
  std::string error;
  EXPECT_FALSE(VerifySnapshot(nullptr, 0, &error));
  const std::vector<uint8_t> garbage(1024, 0xA5);
  error.clear();
  EXPECT_FALSE(VerifySnapshot(garbage, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
}

TEST(Snapshot, MemoryShapeMismatchIsRejected) {
  const std::vector<uint8_t> image = MakeValidImage(MachineConfig{});
  MachineConfig smaller;
  smaller.memory_words = size_t{1} << 20;
  Machine target(smaller);
  ASSERT_TRUE(target.ok());
  std::string error;
  EXPECT_FALSE(RestoreSnapshot(image, &target, &error));
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
}

TEST(Snapshot, CycleModelMismatchIsRejected) {
  const std::vector<uint8_t> image = MakeValidImage(MachineConfig{});
  MachineConfig other;
  other.cycle_model.trap = 99;
  Machine target(other);
  ASSERT_TRUE(target.ok());
  std::string error;
  EXPECT_FALSE(RestoreSnapshot(image, &target, &error));
  EXPECT_NE(error.find("cycle model"), std::string::npos) << error;
}

TEST(Snapshot, FileRoundTripAndFileErrors) {
  const MachineConfig config;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(3'000);
  const std::string path = testing::TempDir() + "/snapshot_test.image";
  std::string error;
  ASSERT_TRUE(SaveSnapshotFile(*live, path, &error)) << error;
  Machine restored(config);
  ASSERT_TRUE(RestoreSnapshotFile(path, &restored, &error)) << error;
  EXPECT_EQ(FingerprintMachine(restored), FingerprintMachine(*live));

  error.clear();
  EXPECT_FALSE(RestoreSnapshotFile("/nonexistent/dir/image", &restored, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Snapshot fault-injection sites.
// ---------------------------------------------------------------------------

TEST(Snapshot, WriteFaultSiteCorruptsTheImage) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 7;
  fault.rate_ppm[static_cast<size_t>(FaultSite::kSnapshotWrite)] = 1'000'000;
  FaultInjector injector(fault);

  const MachineConfig config;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(3'000);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error, &injector)) << error;
  // The certain-rate write fault flipped one bit; verification catches it.
  EXPECT_FALSE(VerifySnapshot(image, &error));
  EXPECT_EQ(injector.injected(FaultSite::kSnapshotWrite), 1u);
}

TEST(Snapshot, ReadFaultSiteRejectsOnTheWayIn) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 7;
  fault.rate_ppm[static_cast<size_t>(FaultSite::kSnapshotRead)] = 1'000'000;
  FaultInjector injector(fault);

  const MachineConfig config;
  const std::vector<uint8_t> image = MakeValidImage(config);
  Machine target(config);
  ASSERT_TRUE(target.ok());
  const uint64_t untouched = FingerprintMachine(target);
  std::string error;
  EXPECT_FALSE(RestoreSnapshot(image.data(), image.size(), &target, &error, &injector));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(FingerprintMachine(target), untouched);
  // The original buffer is never modified — the fault damages a copy.
  EXPECT_TRUE(VerifySnapshot(image, &error)) << error;
}

TEST(Snapshot, DisabledFaultSitesConsumeNoRandomness) {
  FaultConfig fault;
  fault.enabled = true;
  fault.seed = 7;  // all rates zero
  FaultInjector injector(fault);
  const std::array<uint64_t, 2> rng = injector.CaptureState().rng;

  const MachineConfig config;
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(3'000);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error, &injector)) << error;
  EXPECT_TRUE(VerifySnapshot(image, &error)) << error;
  EXPECT_EQ(injector.CaptureState().rng, rng);
}

// The injector's own stream survives the round trip: a machine with live
// fault injection restored from a snapshot continues the exact stream.
TEST(Snapshot, FaultInjectorStreamRoundTrips) {
  MachineConfig config;
  config.fault = FaultConfig::Uniform(/*seed=*/42, /*rate_ppm=*/2'000);
  std::unique_ptr<Machine> live = MakeCallLoopMachine(config);
  ASSERT_NE(live, nullptr);
  live->Run(2'000);
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(*live, &image, &error)) << error;

  // Restore into a machine built with NO injector: the image reinstates
  // configuration, RNG position, counts, and the event log.
  Machine restored(MachineConfig{});
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored.fault_injector(), nullptr);
  ASSERT_TRUE(RestoreSnapshot(image, &restored, &error)) << error;
  ASSERT_NE(restored.fault_injector(), nullptr);
  ASSERT_NE(live->fault_injector(), nullptr);
  EXPECT_EQ(restored.fault_injector()->CaptureState().sequence,
            live->fault_injector()->CaptureState().sequence);

  live->Run(100'000'000);
  restored.Run(100'000'000);
  EXPECT_EQ(FingerprintMachine(restored), FingerprintMachine(*live));
  const FaultInjector::State restored_stream = restored.fault_injector()->CaptureState();
  const FaultInjector::State live_stream = live->fault_injector()->CaptureState();
  EXPECT_EQ(restored_stream.sequence, live_stream.sequence);
  EXPECT_EQ(restored_stream.counts, live_stream.counts);
}

// ---------------------------------------------------------------------------
// Counters::ForEachField completeness guard: the snapshot codec (and the
// fingerprint) visit every scalar field. If someone adds a counter
// without updating ForEachField, this breaks.
// ---------------------------------------------------------------------------

TEST(Counters, ForEachFieldVisitsEveryScalarField) {
  size_t visited = 0;
  Counters::ForEachField([&visited](const char*, uint64_t Counters::*, bool) { ++visited; });
  EXPECT_EQ(sizeof(Counters), visited * sizeof(uint64_t) + sizeof(Counters{}.traps))
      << "Counters has a field ForEachField does not visit (or vice versa); "
         "update Counters::ForEachField in src/trace/counters.h";
}

}  // namespace
}  // namespace rings
