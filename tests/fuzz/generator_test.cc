// Generator contract: a seed fully determines the program (byte-identical
// regeneration), every generated program assembles, instantiates, and
// terminates within the harness cycle budget, and the risky-region
// weighting actually produces the workloads the fuzzer exists to stress
// (gate-call loops everywhere; paging, self-modifying code, second
// processes, tty traffic across the seed population).
#include "src/fuzz/generator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/kasm/assembler.h"
#include "src/sys/machine.h"
#include "src/sys/manifest.h"

namespace rings {
namespace {

TEST(GeneratorTest, SameSeedIsByteIdentical) {
  for (uint64_t seed : {1ull, 2ull, 17ull, 999ull, 123456789ull}) {
    const GeneratedGuest a = GenerateGuest(seed);
    const GeneratedGuest b = GenerateGuest(seed);
    EXPECT_EQ(a.source, b.source) << "seed " << seed;
    EXPECT_EQ(a.seed, seed);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  EXPECT_NE(GenerateGuest(1).source, GenerateGuest(2).source);
}

TEST(GeneratorTest, EveryProgramAssemblesInstantiatesAndTerminates) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const GeneratedGuest guest = GenerateGuest(seed);
    const AssembleResult assembled = Assemble(guest.source);
    ASSERT_TRUE(assembled.ok) << "seed " << seed << ": " << assembled.error.ToString() << "\n"
                              << guest.source;
    const Manifest manifest = ParseManifest(guest.source);
    ASSERT_TRUE(manifest.ok()) << "seed " << seed << ": " << manifest.error;

    MachineConfig config;
    config.memory_words = size_t{1} << 20;
    auto machine = std::make_unique<Machine>(config);
    ASSERT_TRUE(machine->ok());
    std::string error;
    ASSERT_TRUE(InstantiateGuest(assembled.program, manifest, machine.get(), &error))
        << "seed " << seed << ": " << error;
    const RunResult result = machine->Run(GeneratorConfig{}.max_cycles);
    EXPECT_TRUE(result.idle) << "seed " << seed << " did not terminate: " << result.ToString();
  }
}

TEST(GeneratorTest, RiskyRegionWeightingCoversTheSeedPopulation) {
  bool any_paged = false;
  bool any_smc = false;
  bool any_second_process = false;
  bool any_tty = false;
  bool any_gate2 = false;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const std::string& source = GenerateGuest(seed).source;
    // Every program drives the block engine's riskiest region: a CALL
    // re-executed from a block inside a counted loop.
    EXPECT_NE(source.find("call  pr2|0"), std::string::npos) << "seed " << seed;
    any_paged |= source.find(" paged ") != std::string::npos;
    any_smc |= source.find("procedure 4 4 write") != std::string::npos ||
               source.find("procedure 3 3 write") != std::string::npos ||
               source.find("procedure 5 5 write") != std::string::npos;
    any_second_process |= source.find(";; start prog2") != std::string::npos;
    any_tty |= source.find("sup_gates") != std::string::npos;
    any_gate2 |= source.find(".segment gate2") != std::string::npos;
  }
  EXPECT_TRUE(any_paged);
  EXPECT_TRUE(any_smc);
  EXPECT_TRUE(any_second_process);
  EXPECT_TRUE(any_tty);
  EXPECT_TRUE(any_gate2);
}

// The manifest grammar extensions the generator depends on.
TEST(ManifestTest, ParsesPagedSegmentDirective) {
  const Manifest m = ParseManifest(
      ";; acl pd0 * data 4 4\n"
      ";; segment pd0 2048 paged\n"
      ";; start main start 4\n");
  ASSERT_TRUE(m.ok()) << m.error;
  ASSERT_EQ(m.segments.size(), 1u);
  EXPECT_EQ(m.segments[0].name, "pd0");
  EXPECT_EQ(m.segments[0].words, 2048u);
  EXPECT_FALSE(m.segments[0].populate);

  const Manifest p = ParseManifest(
      ";; segment pd0 1024 paged populate\n"
      ";; start main start 4\n");
  ASSERT_TRUE(p.ok()) << p.error;
  EXPECT_TRUE(p.segments[0].populate);

  EXPECT_FALSE(ParseManifest(";; segment pd0 0 paged\n;; start m s 4\n").ok());
  EXPECT_FALSE(ParseManifest(";; segment pd0 10 linear\n;; start m s 4\n").ok());
}

TEST(ManifestTest, ParsesWritableProcedureAcl) {
  const Manifest m = ParseManifest(
      ";; acl main * procedure 4 4 write\n"
      ";; start main start 4\n");
  ASSERT_TRUE(m.ok()) << m.error;
  const auto access = m.acls.at("main").Lookup("anyone");
  ASSERT_TRUE(access.has_value());
  EXPECT_TRUE(access->flags.write);
  EXPECT_TRUE(access->flags.execute);

  const Manifest plain = ParseManifest(
      ";; acl main * procedure 4 4\n"
      ";; start main start 4\n");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.acls.at("main").Lookup("anyone")->flags.write);
}

}  // namespace
}  // namespace rings
