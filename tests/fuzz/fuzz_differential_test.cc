// The differential oracle end to end: a population of generated guests
// runs bit-identically on every engine tier, fleet thread counts, and a
// snapshot/restore cut (this is the ctest face of `ringsim --fuzz`); a
// machine with a sabotaged block engine is caught with a precise first-differing-field report; and a
// guest the engines genuinely disagree on is impossible to construct from
// the generator population (smoke over many seeds).
#include "src/fuzz/differential.h"

#include <gtest/gtest.h>

#include <string>

#include "src/fuzz/generator.h"

namespace rings {
namespace {

TEST(FuzzDifferentialTest, GeneratedGuestsAgreeAcrossAllLegs) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const GeneratedGuest guest = GenerateGuest(seed);
    const CheckResult result = CheckGuest(guest.source);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.error;
    EXPECT_FALSE(result.divergence.found)
        << "seed " << seed << ": " << result.divergence.ToString() << "\n"
        << guest.source;
  }
}

TEST(FuzzDifferentialTest, ReferenceSignatureIsPopulated) {
  const CheckResult result = CheckGuest(GenerateGuest(3).source);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.reference.cycles, 0u);
  EXPECT_GT(result.reference.counters.instructions, 0u);
  EXPECT_NE(result.reference.fingerprint, 0u);
  EXPECT_FALSE(result.reference.processes.empty());
  // Gate calls ring-switch on every program, so the trap/ring-switch
  // trace is never empty.
  EXPECT_FALSE(result.reference.traps.empty());
}

TEST(FuzzDifferentialTest, SabotagedBlockEngineIsCaughtOnTheBlockLeg) {
  FuzzOptions options;
  options.ablate_block_call = true;
  const CheckResult result = CheckGuest(GenerateGuest(1).source, options);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.divergence.found);
  // The blocks tier's leg runs first, so the ablation must surface there,
  // as a cycle-count mismatch.
  EXPECT_EQ(result.divergence.leg, EngineTierName(EngineTier::kBlocks));
  EXPECT_NE(result.divergence.detail.find("cycles"), std::string::npos)
      << result.divergence.detail;
}

TEST(FuzzDifferentialTest, SabotageIsCaughtAcrossTheSeedPopulation) {
  // Every generated program contains a gate-call loop, so the ablation
  // must be caught for any seed, not just a lucky one.
  FuzzOptions options;
  options.ablate_block_call = true;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const CheckResult result = CheckGuest(GenerateGuest(seed).source, options);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.error;
    EXPECT_TRUE(result.divergence.found) << "seed " << seed;
  }
}

TEST(FuzzDifferentialTest, SabotagedChainingIsCaughtOnTheBlockLeg) {
  FuzzOptions options;
  options.ablate_chain = true;
  const CheckResult result = CheckGuest(GenerateGuest(1).source, options);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.divergence.found);
  // The ablation charges a spurious cycle per followed successor link, so
  // it can only surface on the leg that chains: the blocks tier's. The
  // cached and reference tiers have no block engine.
  EXPECT_EQ(result.divergence.leg, EngineTierName(EngineTier::kBlocks));
  EXPECT_NE(result.divergence.detail.find("cycles"), std::string::npos)
      << result.divergence.detail;
}

TEST(FuzzDifferentialTest, ChainSabotageIsCaughtAcrossTheSeedPopulation) {
  // Every generated program loops, so every seed forms and follows
  // block-to-block links; the ablation must be caught for any seed.
  FuzzOptions options;
  options.ablate_chain = true;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const CheckResult result = CheckGuest(GenerateGuest(seed).source, options);
    ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.error;
    EXPECT_TRUE(result.divergence.found) << "seed " << seed;
  }
}

TEST(FuzzDifferentialTest, MalformedGuestIsAnErrorNotADivergence) {
  const CheckResult bad_asm = CheckGuest(";; start main start 4\n        .segment main\n"
                                         "start:  frobnicate x\n");
  EXPECT_FALSE(bad_asm.ok);
  EXPECT_FALSE(bad_asm.divergence.found);

  const CheckResult no_start = CheckGuest("        .segment main\nstart:  mme   0\n");
  EXPECT_FALSE(no_start.ok);
  EXPECT_NE(no_start.error.find("manifest"), std::string::npos);
}

TEST(FuzzDifferentialTest, NonTerminatingGuestIsAnError) {
  const CheckResult result = CheckGuest(
      ";; acl main * procedure 4 4\n"
      ";; start main start 4\n"
      "        .segment main\n"
      "start:  tra   start\n",
      FuzzOptions{.max_cycles = 10'000});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("did not terminate"), std::string::npos) << result.error;
}

}  // namespace
}  // namespace rings
