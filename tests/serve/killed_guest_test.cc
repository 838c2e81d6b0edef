// One guest killed by a ring violation gets one answer on every hosting
// path: a standalone Machine::Run, a one-machine Fleet and a Server agree
// on the exit status, the failure line and the fingerprint.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/fleet/fingerprint.h"
#include "src/fleet/fleet.h"
#include "src/kasm/assembler.h"
#include "src/serve/server.h"
#include "src/sys/machine.h"
#include "src/sys/manifest.h"

namespace rings {
namespace {

// A ring-4 store into data only rings 0..1 may write: the process is
// killed on its first store and never exits.
constexpr char kViolatorGuest[] = R"(;; acl main * procedure 4 4
;; acl secret * data 1 4
;; start main start 4
        .segment main
start:  ldai  7
        sta   sptr,*
        mme   0
sptr:   .its  4, secret, 0

        .segment secret
        .word 0
)";

std::unique_ptr<Machine> Boot() {
  const AssembleResult assembled = Assemble(kViolatorGuest);
  const Manifest manifest = ParseManifest(kViolatorGuest);
  if (!assembled.ok || !manifest.ok()) {
    return nullptr;
  }
  std::string error;
  return BootGuest(MachineConfig{}, assembled.program, manifest, &error);
}

TEST(KilledGuest, StandaloneFleetAndServerAgree) {
  std::unique_ptr<Machine> standalone = Boot();
  ASSERT_NE(standalone, nullptr);
  ASSERT_TRUE(standalone->Run(100'000'000).idle);
  const GuestExit exit = GuestExitStatus(standalone.get());
  const uint64_t fingerprint = FingerprintMachine(*standalone);
  EXPECT_EQ(exit.code, 111);
  EXPECT_NE(exit.failure.find("state=killed cause=write_violation"), std::string::npos)
      << exit.failure;

  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    Fleet fleet(FleetConfig{.threads = threads});
    fleet.Add("violator", Boot);
    fleet.Run();
    const MachineResult& result = fleet.results()[0];
    EXPECT_EQ(result.outcome, MachineOutcome::kFailed);
    EXPECT_EQ(result.exit_code, exit.code);
    EXPECT_EQ(result.failure, exit.failure);
    EXPECT_EQ(result.run.fingerprint, fingerprint);
    EXPECT_EQ(fleet.ExitCode(), exit.code);

    Server server(ServeConfig{.threads = threads});
    Submission submission;
    submission.source = kViolatorGuest;
    const Completion completion = server.Wait(server.Submit(std::move(submission)));
    EXPECT_EQ(completion.status, ServeStatus::kFailed);
    EXPECT_EQ(completion.exit_code, exit.code);
    EXPECT_EQ(completion.error, exit.failure);
    EXPECT_EQ(completion.fingerprint, fingerprint);
  }
}

}  // namespace
}  // namespace rings
