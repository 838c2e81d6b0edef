// Golden-image cloning. The headline assertion: a machine spawned by
// Machine::CloneFrom from a sealed golden image runs the exact trajectory
// — fingerprint, counters, trap sequence, tty — a fresh boot+load of the
// same program would, across engine configurations and fleet thread
// counts; and the GoldenImageRegistry boots each program once, with Pin
// keeping the image alive across machine retirement.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fingerprint.h"
#include "src/fleet/fleet.h"
#include "src/fleet/golden_image.h"
#include "src/mem/page_table.h"
#include "src/sys/machine.h"

namespace rings {
namespace {

// Gate-crossing loop: downward calls through a ring-1 gate, clean exit.
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

std::unique_ptr<Machine> MakeCallLoopMachine(MachineConfig config) {
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

// Demand-paged counter: every page fill is a store into a shared frame
// performed inside the supervisor's trap handler.
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

std::unique_ptr<Machine> MakePagerMachine(MachineConfig config) {
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

void ExpectArchCountersIdentical(const Counters& a, const Counters& b) {
  Counters::ForEachField(
      [&a, &b](const char* name, uint64_t Counters::* member, bool host_only) {
        if (host_only) {
          return;  // clone host caches start cold by design
        }
        EXPECT_EQ(a.*member, b.*member) << "counter " << name;
      });
  for (size_t i = 0; i < a.traps.size(); ++i) {
    EXPECT_EQ(a.traps[i], b.traps[i])
        << "trap count for " << TrapCauseName(static_cast<TrapCause>(i));
  }
}

void ExpectSameTrajectory(Machine* cloned, Machine* fresh) {
  const RunResult clone_run = cloned->Run(100'000'000);
  const RunResult fresh_run = fresh->Run(100'000'000);
  EXPECT_TRUE(clone_run.idle);
  EXPECT_TRUE(fresh_run.idle);
  EXPECT_EQ(FingerprintMachine(*cloned), FingerprintMachine(*fresh));
  EXPECT_FALSE(TrapSequence(*fresh).empty());
  EXPECT_EQ(TrapSequence(*cloned), TrapSequence(*fresh));
  EXPECT_EQ(cloned->cpu().cycles(), fresh->cpu().cycles());
  EXPECT_EQ(cloned->TtyOutput(), fresh->TtyOutput());
  ExpectArchCountersIdentical(cloned->cpu().counters(), fresh->cpu().counters());
}

// --- clone == fresh boot, across engine configurations ---------------------

struct EngineCase {
  const char* name;
  bool fast_path;
  bool block_engine;
  bool chain;
};

constexpr EngineCase kEngines[] = {
    {"slow", false, false, false},
    {"fast", true, false, false},
    {"block", true, true, true},
};

TEST(GoldenImage, CloneMatchesFreshBootAcrossEngines) {
  for (const EngineCase& engine : kEngines) {
    SCOPED_TRACE(engine.name);
    MachineConfig config;
    config.fast_path = engine.fast_path;
    config.block_engine = engine.block_engine;
    config.chain = engine.chain;
    const std::unique_ptr<Machine> golden = MakeCallLoopMachine(config);
    ASSERT_NE(golden, nullptr);
    golden->memory().SealForCloning();
    const std::unique_ptr<Machine> clone = Machine::CloneFrom(*golden);
    ASSERT_NE(clone, nullptr);
    const std::unique_ptr<Machine> fresh = MakeCallLoopMachine(config);
    ASSERT_NE(fresh, nullptr);
    ExpectSameTrajectory(clone.get(), fresh.get());
  }
}

TEST(GoldenImage, TrapHandlerStoresIntoSharedPagesStayPrivate) {
  // Demand paging fills pages from inside the trap handler; those stores
  // must privatize the clone's frames, not write through to the golden.
  const std::unique_ptr<Machine> golden = MakePagerMachine(MachineConfig{});
  ASSERT_NE(golden, nullptr);
  golden->memory().SealForCloning();
  const uint64_t golden_fp_before = FingerprintMachine(*golden);
  const uint64_t golden_priv_before = golden->memory().frames_privatized();

  const std::unique_ptr<Machine> clone = Machine::CloneFrom(*golden);
  ASSERT_NE(clone, nullptr);
  const std::unique_ptr<Machine> fresh = MakePagerMachine(MachineConfig{});
  ASSERT_NE(fresh, nullptr);
  ExpectSameTrajectory(clone.get(), fresh.get());

  // The clone privatized frames while running; the golden is untouched
  // (its pre-seal boot writes are the only privatizations it ever made).
  EXPECT_GT(clone->memory().frames_privatized(), 0u);
  EXPECT_EQ(golden->memory().frames_privatized(), golden_priv_before);
  EXPECT_EQ(FingerprintMachine(*golden), golden_fp_before);
}

TEST(GoldenImage, CloneOfCloneMidRunContinuesIdentically) {
  // Run two identical machines to the same mid-point; clone one there and
  // let the clone finish against the other's finish.
  const std::unique_ptr<Machine> a = MakeCallLoopMachine(MachineConfig{});
  const std::unique_ptr<Machine> b = MakeCallLoopMachine(MachineConfig{});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  a->Run(5'000);
  b->Run(5'000);
  ASSERT_EQ(FingerprintMachine(*a), FingerprintMachine(*b));

  // Clone-of-clone chain from the mid-run state.
  const std::unique_ptr<Machine> c1 = Machine::CloneFrom(*a);
  ASSERT_NE(c1, nullptr);
  const std::unique_ptr<Machine> c2 = Machine::CloneFrom(*c1);
  ASSERT_NE(c2, nullptr);
  ASSERT_EQ(FingerprintMachine(*c2), FingerprintMachine(*b));

  const RunResult clone_run = c2->Run(100'000'000);
  const RunResult fresh_run = b->Run(100'000'000);
  EXPECT_TRUE(clone_run.idle);
  EXPECT_TRUE(fresh_run.idle);
  EXPECT_EQ(FingerprintMachine(*c2), FingerprintMachine(*b));
  EXPECT_EQ(TrapSequence(*c2), TrapSequence(*b));
  ExpectArchCountersIdentical(c2->cpu().counters(), b->cpu().counters());
}

// --- registry ---------------------------------------------------------------

TEST(GoldenImageRegistry, BootsOncePerProgramAndExpiresWithUsers) {
  GoldenImageRegistry& registry = GoldenImageRegistry::Instance();
  const uint64_t identity = 0xDEADBEEFDEADBEEFull;  // synthetic key for this test

  bool built_first = false;
  std::shared_ptr<const GoldenImage> image = registry.Acquire(
      identity, [] { return MakeCallLoopMachine(MachineConfig{}); }, &built_first);
  ASSERT_NE(image, nullptr);
  EXPECT_TRUE(built_first);

  bool built_second = true;
  std::shared_ptr<const GoldenImage> again = registry.Acquire(
      identity, [] { return MakeCallLoopMachine(MachineConfig{}); }, &built_second);
  EXPECT_EQ(again.get(), image.get());
  EXPECT_FALSE(built_second);

  // Spawns from both handles are runnable and identical.
  const std::unique_ptr<Machine> m1 = image->Spawn();
  const std::unique_ptr<Machine> m2 = again->Spawn();
  ASSERT_NE(m1, nullptr);
  ASSERT_NE(m2, nullptr);
  EXPECT_EQ(FingerprintMachine(*m1), FingerprintMachine(*m2));

  again.reset();
  EXPECT_GE(registry.LiveImages(), 1u);
  image.reset();
  // All user references gone, no pin: the image expires.
  const size_t live = registry.LiveImages();
  bool rebuilt = false;
  std::shared_ptr<const GoldenImage> fresh = registry.Acquire(
      identity, [] { return MakeCallLoopMachine(MachineConfig{}); }, &rebuilt);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(rebuilt) << "image should have expired; " << live << " live images";
}

TEST(GoldenImageRegistry, FailedBootReturnsNull) {
  bool built = true;
  const std::shared_ptr<const GoldenImage> image = GoldenImageRegistry::Instance().Acquire(
      0x1234u, [] { return std::unique_ptr<Machine>(); }, &built);
  EXPECT_EQ(image, nullptr);
}

TEST(GoldenImageRegistry, PinKeepsImageAliveAcrossRetirement) {
  GoldenImageRegistry& registry = GoldenImageRegistry::Instance();
  const uint64_t identity = 0xC0FFEE00C0FFEE00ull;
  {
    const GoldenImageRegistry::Pin pin;
    bool built = false;
    std::shared_ptr<const GoldenImage> image = registry.Acquire(
        identity, [] { return MakeCallLoopMachine(MachineConfig{}); }, &built);
    ASSERT_NE(image, nullptr);
    EXPECT_TRUE(built);
    image.reset();  // golden image outlives its last user while pinned
    bool rebuilt = true;
    std::shared_ptr<const GoldenImage> again = registry.Acquire(
        identity, [] { return MakeCallLoopMachine(MachineConfig{}); }, &rebuilt);
    ASSERT_NE(again, nullptr);
    EXPECT_FALSE(rebuilt);
  }
  // Pin released: retained references dropped, the image expires.
  bool rebuilt = false;
  const std::shared_ptr<const GoldenImage> after = registry.Acquire(
      identity, [] { return MakeCallLoopMachine(MachineConfig{}); }, &rebuilt);
  ASSERT_NE(after, nullptr);
  EXPECT_TRUE(rebuilt);
}

TEST(GoldenImageRegistry, PinRetainsEachIdentityOnce) {
  // A long-lived Pin (ringsimd holds one for its whole life) must not
  // grow by one reference per Acquire: repeat acquisitions of one
  // identity share a single retained reference.
  GoldenImageRegistry& registry = GoldenImageRegistry::Instance();
  const uint64_t identity = 0x0DDBA11C0FFEEull;
  const GoldenImageRegistry::Pin pin;
  std::vector<std::shared_ptr<const GoldenImage>> handles;
  for (int i = 0; i < 100; ++i) {
    handles.push_back(
        registry.Acquire(identity, [] { return MakeCallLoopMachine(MachineConfig{}); }));
    ASSERT_NE(handles.back(), nullptr);
  }
  handles.resize(1);
  EXPECT_EQ(handles.front().use_count(), 2);  // this handle + the pin's one
}

// --- fleet spawning ---------------------------------------------------------

TEST(GoldenImage, FleetSpawnedFromGoldenMatchesConstructLoadAcrossThreads) {
  // Reference: a construct+load fleet on one thread.
  FleetConfig ref_config;
  ref_config.threads = 1;
  ref_config.slice_cycles = 2'000;
  Fleet reference(ref_config);
  for (int i = 0; i < 4; ++i) {
    reference.Add("cold-" + std::to_string(i),
                  [] { return MakeCallLoopMachine(MachineConfig{}); });
  }
  const FleetStats ref_stats = reference.Run();
  ASSERT_EQ(ref_stats.completed, reference.size()) << ref_stats.ToString();

  for (const int threads : {1, 4, 8}) {
    SCOPED_TRACE(threads);
    const GoldenImageRegistry::Pin pin;
    std::shared_ptr<const GoldenImage> golden = GoldenImageRegistry::Instance().Acquire(
        0x601Du, [] { return MakeCallLoopMachine(MachineConfig{}); });
    ASSERT_NE(golden, nullptr);

    FleetConfig config;
    config.threads = threads;
    config.slice_cycles = 2'000;
    Fleet fleet(config);
    for (int i = 0; i < 4; ++i) {
      fleet.Add("clone-" + std::to_string(i), [golden] { return golden->Spawn(); });
    }
    const FleetStats stats = fleet.Run();
    ASSERT_EQ(stats.completed, fleet.size()) << stats.ToString();
    for (size_t m = 0; m < fleet.results().size(); ++m) {
      SCOPED_TRACE(fleet.results()[m].name);
      EXPECT_EQ(fleet.results()[m].fingerprint, reference.results()[m].fingerprint);
      EXPECT_EQ(fleet.results()[m].cycles, reference.results()[m].cycles);
      EXPECT_EQ(fleet.results()[m].instructions, reference.results()[m].instructions);
      EXPECT_EQ(fleet.results()[m].exit_code, reference.results()[m].exit_code);
      EXPECT_EQ(fleet.results()[m].tty, reference.results()[m].tty);
      EXPECT_FALSE(reference.results()[m].traps.empty());
      EXPECT_EQ(fleet.results()[m].traps, reference.results()[m].traps);
      ExpectArchCountersIdentical(fleet.results()[m].counters, reference.results()[m].counters);
    }
  }
}

// --- fault injection --------------------------------------------------------

TEST(GoldenImageFault, CloneReplaysInjectedFaultStreamIdentically) {
  // Page privatization under fault injection: the injected stream is part
  // of the machine state CloneFrom copies, so clone and fresh boot see
  // the same faults at the same cycles and land on the same fingerprint.
  MachineConfig config;
  config.fault = FaultConfig::Uniform(/*seed=*/42, /*ppm=*/400);
  const std::unique_ptr<Machine> golden = MakePagerMachine(config);
  ASSERT_NE(golden, nullptr);
  golden->memory().SealForCloning();
  const std::unique_ptr<Machine> clone = Machine::CloneFrom(*golden);
  ASSERT_NE(clone, nullptr);
  ASSERT_NE(clone->fault_injector(), nullptr);
  const std::unique_ptr<Machine> fresh = MakePagerMachine(config);
  ASSERT_NE(fresh, nullptr);

  clone->Run(100'000'000);
  fresh->Run(100'000'000);
  EXPECT_EQ(FingerprintMachine(*clone), FingerprintMachine(*fresh));
  EXPECT_EQ(TrapSequence(*clone), TrapSequence(*fresh));
  ExpectArchCountersIdentical(clone->cpu().counters(), fresh->cpu().counters());
  ASSERT_NE(fresh->fault_injector(), nullptr);
  EXPECT_EQ(clone->fault_injector()->events().size(), fresh->fault_injector()->events().size());
  EXPECT_EQ(clone->fault_injector()->CaptureState().sequence,
            fresh->fault_injector()->CaptureState().sequence);
}

}  // namespace
}  // namespace rings
