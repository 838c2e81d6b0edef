// The serving core: submissions run to the same fingerprint a standalone
// machine produces, golden-image cloning is transparent, tenant budgets
// are enforced, and results are deterministic across pool sizes.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fingerprint.h"
#include "src/kasm/assembler.h"
#include "src/serve/server.h"
#include "src/snapshot/snapshot.h"
#include "src/sys/machine.h"
#include "src/sys/manifest.h"

namespace rings {
namespace {

// Self-contained guests (kasm + `;;` manifest), the daemon's submission
// format.

constexpr char kCallLoopGuest[] = R"(;; acl main * procedure 4 4
;; acl counter * data 4 4
;; acl target * procedure 1 1 7
;; start main start 4
        .segment main
start:
loop:   epp   pr2, gptr,*
        call  pr2|0
        aos   cnt,*
        lda   cnt,*
        sba   limit
        tmi   loop
        mme   0
limit:  .word 120
cnt:    .its  4, counter, 0
gptr:   .its  4, target, 0

        .segment counter
        .word 0

        .segment target
        .gates 1
entry:  ret   pr7|0
)";

constexpr char kPagerGuest[] = R"(;; acl pager * procedure 4 4
;; acl bigdata * data 4 4
;; segment bigdata 2048 paged demand
;; start pager pstart 4
        .segment pager
pstart: aos   cnt,*
        lda   far,*
        adai  1
        sta   far,*
        lda   cnt,*
        sba   plim
        tmi   pstart
        mme   0
plim:   .word 150
cnt:    .its  4, bigdata, 10
far:    .its  4, bigdata, 1034
)";

constexpr char kSpinnerGuest[] = R"(;; acl main * procedure 4 4
;; start main start 4
        .segment main
start:  tra   start
)";

// Reads up to 4 words from the typewriter through sup_gates gate 2, exits
// with the word count.
constexpr char kTtyReadGuest[] = R"(;; acl main * procedure 4 4
;; acl inbuf * data 4 4
;; start main start 4
        .segment main
start:  epp   pr1, arglist
        epp   pr2, gateptr,*
        call  pr2|0
        mme   0
arglist: .word 1
        .its  4, inbuf, 0
        .word 4
gateptr: .its 4, sup_gates, 2

        .segment inbuf
        .block 8
)";

// The fingerprint a standalone (non-served) machine lands on for `guest`,
// with `stdin_text` fed before the run.
uint64_t StandaloneFingerprint(const std::string& guest, const std::string& stdin_text = "") {
  const AssembleResult assembled = Assemble(guest);
  EXPECT_TRUE(assembled.ok);
  const Manifest manifest = ParseManifest(guest);
  EXPECT_TRUE(manifest.ok()) << manifest.error;
  auto machine = std::make_unique<Machine>(MachineConfig{});
  std::string error;
  EXPECT_TRUE(InstantiateGuest(assembled.program, manifest, machine.get(), &error)) << error;
  if (!stdin_text.empty()) {
    machine->TtyFeedInput(stdin_text);
  }
  const RunResult run = machine->Run(100'000'000);
  EXPECT_TRUE(run.idle);
  return FingerprintMachine(*machine);
}

TEST(Serve, SourceSubmissionMatchesStandaloneFingerprint) {
  Server server(ServeConfig{.threads = 2});
  Submission submission;
  submission.source = kCallLoopGuest;
  const Completion completion = server.Wait(server.Submit(std::move(submission)));
  EXPECT_EQ(completion.status, ServeStatus::kCompleted) << completion.ToString();
  EXPECT_EQ(completion.exit_code, 0);
  EXPECT_GT(completion.cycles, 0u);
  EXPECT_GT(completion.turnaround_ns, 0u);
  EXPECT_EQ(completion.fingerprint, StandaloneFingerprint(kCallLoopGuest));
}

TEST(Serve, RepeatSubmissionsCloneFromOneGoldenImage) {
  Server server(ServeConfig{.threads = 4});
  std::vector<uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    Submission submission;
    submission.source = kPagerGuest;
    ids.push_back(server.Submit(std::move(submission)));
  }
  const uint64_t expected = StandaloneFingerprint(kPagerGuest);
  for (const uint64_t id : ids) {
    const Completion completion = server.Wait(id);
    EXPECT_EQ(completion.status, ServeStatus::kCompleted) << completion.ToString();
    EXPECT_EQ(completion.fingerprint, expected) << completion.ToString();
  }
}

TEST(Serve, DeterministicAcrossPoolSizes) {
  const char* guests[] = {kCallLoopGuest, kPagerGuest, kCallLoopGuest};
  std::vector<std::vector<Completion>> runs;
  for (const int threads : {1, 4, 8}) {
    Server server(ServeConfig{.threads = threads});
    std::vector<uint64_t> ids;
    for (const char* guest : guests) {
      Submission submission;
      submission.source = guest;
      ids.push_back(server.Submit(std::move(submission)));
    }
    std::vector<Completion> completions;
    for (const uint64_t id : ids) {
      completions.push_back(server.Wait(id));
    }
    runs.push_back(std::move(completions));
  }
  for (size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[run][i].fingerprint, runs[0][i].fingerprint);
      EXPECT_EQ(runs[run][i].cycles, runs[0][i].cycles);
      EXPECT_EQ(runs[run][i].instructions, runs[0][i].instructions);
      EXPECT_EQ(runs[run][i].exit_code, runs[0][i].exit_code);
      EXPECT_EQ(runs[run][i].tty, runs[0][i].tty);
    }
  }
}

TEST(Serve, StdinFeedsTheTtyReadService) {
  Server server(ServeConfig{.threads = 1});
  Submission submission;
  submission.source = kTtyReadGuest;
  submission.stdin_text = "ok";
  const Completion completion = server.Wait(server.Submit(std::move(submission)));
  EXPECT_EQ(completion.status, ServeStatus::kCompleted) << completion.ToString();
  EXPECT_EQ(completion.exit_code, 2);  // words read
  EXPECT_EQ(completion.fingerprint, StandaloneFingerprint(kTtyReadGuest, "ok"));
}

TEST(Serve, ImageSubmissionRestoresAndContinues) {
  // Run a machine halfway, snapshot it, and submit the image; the served
  // continuation must land on the fingerprint of an uninterrupted run.
  const AssembleResult assembled = Assemble(kCallLoopGuest);
  ASSERT_TRUE(assembled.ok);
  const Manifest manifest = ParseManifest(kCallLoopGuest);
  ASSERT_TRUE(manifest.ok());
  auto half = std::make_unique<Machine>(MachineConfig{});
  std::string error;
  ASSERT_TRUE(InstantiateGuest(assembled.program, manifest, half.get(), &error)) << error;
  half->Run(5'000);
  std::vector<uint8_t> image;
  ASSERT_TRUE(SaveSnapshot(*half, &image, &error)) << error;

  Server server(ServeConfig{.threads = 1});
  Submission submission;
  submission.image = std::move(image);
  const Completion completion = server.Wait(server.Submit(std::move(submission)));
  EXPECT_EQ(completion.status, ServeStatus::kCompleted) << completion.ToString();
  EXPECT_EQ(completion.fingerprint, StandaloneFingerprint(kCallLoopGuest));
}

// kCallLoopGuest run for `cycles` on a machine of `memory_words`, as an
// image.
std::vector<uint8_t> CallLoopImage(size_t memory_words, uint64_t cycles) {
  const AssembleResult assembled = Assemble(kCallLoopGuest);
  EXPECT_TRUE(assembled.ok);
  const Manifest manifest = ParseManifest(kCallLoopGuest);
  EXPECT_TRUE(manifest.ok());
  auto machine = std::make_unique<Machine>(MachineConfig{.memory_words = memory_words});
  std::string error;
  EXPECT_TRUE(InstantiateGuest(assembled.program, manifest, machine.get(), &error)) << error;
  machine->Run(cycles);
  std::vector<uint8_t> image;
  EXPECT_TRUE(SaveSnapshot(*machine, &image, &error)) << error;
  return image;
}

// The server's engine tier applies to restored machines too. The tiers
// are bit-identical by contract, so the run must land on the
// uninterrupted run's fingerprint on every tier.
TEST(Serve, ImageSubmissionRunsUnderTheServersEngineFlags) {
  const std::vector<uint8_t> image = CallLoopImage(ServeConfig{}.machine_memory_words, 5'000);
  for (const EngineTier tier : kEngineTiers) {
    SCOPED_TRACE(EngineTierName(tier));
    Server server(ServeConfig{.threads = 1, .engine = tier});
    Submission submission;
    submission.image = image;
    const Completion completion = server.Wait(server.Submit(std::move(submission)));
    EXPECT_EQ(completion.status, ServeStatus::kCompleted) << completion.ToString();
    EXPECT_EQ(completion.fingerprint, StandaloneFingerprint(kCallLoopGuest));
  }
}

// An image may not ask for a larger machine than the server builds from
// source: it is rejected at submit, before any machine of its size exists.
TEST(Serve, OversizedImageIsRejectedAtSubmit) {
  std::vector<uint8_t> image = CallLoopImage(size_t{1} << 23, 5'000);
  std::string error;
  ASSERT_TRUE(VerifySnapshot(image, &error)) << error;
  Server server(ServeConfig{.threads = 1});
  ASSERT_EQ(server.config().machine_memory_words, size_t{1} << 22);
  Submission submission;
  submission.image = image;
  const Completion rejected = server.Wait(server.Submit(std::move(submission)));
  EXPECT_EQ(rejected.status, ServeStatus::kRejected) << rejected.ToString();
  EXPECT_NE(rejected.error.find("8388608-word machine, server cap is 4194304 words"),
            std::string::npos)
      << rejected.error;
  // A server whose cap admits the size restores and runs it.
  Server large(ServeConfig{.threads = 1, .machine_memory_words = size_t{1} << 23});
  submission.image = std::move(image);
  const Completion completion = large.Wait(large.Submit(std::move(submission)));
  EXPECT_EQ(completion.status, ServeStatus::kCompleted) << completion.ToString();
}

// ringsimd's image cap admits the costliest store encoding: alternating
// one-word runs, 13 bytes per word in the memory section.
TEST(Serve, WorstCaseStoreImageFitsUnderTheImageCap) {
  MachineConfig config;
  config.memory_words = size_t{1} << 20;
  Machine machine(config);
  ASSERT_TRUE(machine.ok());
  for (AbsAddr a = 0; a < config.memory_words; ++a) {
    machine.memory().Write(a, a % 2 == 0 ? 1 : 0);
  }
  std::vector<uint8_t> image;
  std::string error;
  ASSERT_TRUE(SaveSnapshot(machine, &image, &error)) << error;
  EXPECT_GE(image.size(), 13 * config.memory_words);
  EXPECT_LE(image.size(), kMaxImageBytesPerWord * config.memory_words);
}

TEST(Serve, SubmissionCycleCapRetiresAsBudgetExceeded) {
  Server server(ServeConfig{.threads = 1, .slice_cycles = 1'000});
  Submission submission;
  submission.source = kSpinnerGuest;
  submission.max_cycles = 10'000;
  const Completion completion = server.Wait(server.Submit(std::move(submission)));
  EXPECT_EQ(completion.status, ServeStatus::kBudgetExceeded) << completion.ToString();
  EXPECT_EQ(completion.exit_code, 111);
  EXPECT_GE(completion.cycles, 10'000u);
}

TEST(Serve, TenantCycleBudgetCutsAcrossSubmissions) {
  Server server(ServeConfig{.threads = 1, .slice_cycles = 1'000});
  server.SetTenantBudget("miser", TenantBudget{.max_cycles_total = 15'000});
  Submission submission;
  submission.tenant = "miser";
  submission.source = kSpinnerGuest;
  const Completion first = server.Wait(server.Submit(submission));
  EXPECT_EQ(first.status, ServeStatus::kBudgetExceeded) << first.ToString();
  EXPECT_EQ(first.error, "tenant cycle budget exhausted");
  // The tenant has nothing left: the next submission dies on its first
  // slice check, even though it would finish cleanly on its own.
  submission.source = kCallLoopGuest;
  const Completion second = server.Wait(server.Submit(submission));
  EXPECT_EQ(second.status, ServeStatus::kBudgetExceeded) << second.ToString();
}

TEST(Serve, TenantMemoryBudgetRejectsAtSubmit) {
  Server server(ServeConfig{});
  server.SetTenantBudget("small", TenantBudget{.max_memory_words = 1'000});
  Submission submission;
  submission.tenant = "small";
  submission.source = kCallLoopGuest;
  const Completion completion = server.Wait(server.Submit(std::move(submission)));
  EXPECT_EQ(completion.status, ServeStatus::kRejected) << completion.ToString();
  EXPECT_NE(completion.error.find("memory budget"), std::string::npos);
  // Other tenants are unaffected.
  Submission other;
  other.source = kCallLoopGuest;
  EXPECT_EQ(server.Wait(server.Submit(std::move(other))).status, ServeStatus::kCompleted);
}

TEST(Serve, MalformedSubmissionsAreRejectedOrFailed) {
  Server server(ServeConfig{.threads = 1});
  // Neither source nor image.
  const Completion empty = server.Wait(server.Submit(Submission{}));
  EXPECT_EQ(empty.status, ServeStatus::kRejected);
  // Both source and image.
  Submission both;
  both.source = kCallLoopGuest;
  both.image = {1, 2, 3};
  EXPECT_EQ(server.Wait(server.Submit(std::move(both))).status, ServeStatus::kRejected);
  // Corrupt image bytes.
  Submission corrupt;
  corrupt.image = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(server.Wait(server.Submit(std::move(corrupt))).status, ServeStatus::kRejected);
  // A real image with one payload bit flipped: Submit's one CRC pass
  // catches it.
  Submission flipped;
  flipped.image = CallLoopImage(size_t{1} << 22, 5'000);
  flipped.image.back() ^= 0x01;
  const Completion bad_crc = server.Wait(server.Submit(std::move(flipped)));
  EXPECT_EQ(bad_crc.status, ServeStatus::kRejected);
  EXPECT_EQ(bad_crc.error, "snapshot image invalid: section 8 payload CRC mismatch");
  // Assembly failure surfaces as a failed completion with the error text.
  Submission bad;
  bad.source = ";; start main start 4\n        .segment main\nstart:  frobnicate x\n";
  const Completion failed = server.Wait(server.Submit(std::move(bad)));
  EXPECT_EQ(failed.status, ServeStatus::kFailed);
  EXPECT_FALSE(failed.error.empty());
  EXPECT_EQ(failed.exit_code, 111);
}

TEST(Serve, ShutdownDrainsQueuedWorkAndRefusesNew) {
  auto server = std::make_unique<Server>(ServeConfig{.threads = 2});
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    Submission submission;
    submission.source = kCallLoopGuest;
    ids.push_back(server->Submit(std::move(submission)));
  }
  server->Shutdown();
  for (const uint64_t id : ids) {
    EXPECT_EQ(server->Wait(id).status, ServeStatus::kCompleted);
  }
  Submission late;
  late.source = kCallLoopGuest;
  EXPECT_EQ(server->Wait(server->Submit(std::move(late))).status, ServeStatus::kRejected);
}

// Wait collects a submission: the server forgets it, and a Wait on a
// collected or never-issued id answers at once instead of blocking.
TEST(Serve, WaitCollectsOnceAndRejectsUnknownIds) {
  Server server(ServeConfig{.threads = 2});
  Submission submission;
  submission.source = kCallLoopGuest;
  const uint64_t id = server.Submit(std::move(submission));
  EXPECT_EQ(server.Wait(id).status, ServeStatus::kCompleted);
  for (const uint64_t unknown : {id, id + 1000}) {
    const Completion completion = server.Wait(unknown);
    EXPECT_EQ(completion.id, unknown);
    EXPECT_EQ(completion.status, ServeStatus::kRejected);
    EXPECT_EQ(completion.error, "unknown submission id");
  }
  // A rejected-at-submit id is collected the same way.
  const uint64_t rejected = server.Submit(Submission{});
  EXPECT_EQ(server.Wait(rejected).status, ServeStatus::kRejected);
  EXPECT_EQ(server.Wait(rejected).error, "unknown submission id");
}

}  // namespace
}  // namespace rings
