// Shared test fixtures: a bare-metal harness (memory + CPU + one
// descriptor segment, no supervisor) for exercising single instructions
// against hand-built SDWs, plus helpers for whole-machine tests and the
// gtest face of the engine-tier run comparator.
#ifndef TESTS_TESTUTIL_H_
#define TESTS_TESTUTIL_H_

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/fleet/fingerprint.h"
#include "src/isa/indirect_word.h"
#include "src/isa/instruction.h"
#include "src/mem/descriptor_segment.h"
#include "src/mem/physical_memory.h"

namespace rings {

// A bare machine: physical memory, a CPU, and one descriptor segment the
// test populates directly. Segment numbers are handed out sequentially
// from 0.
class BareMachine {
 public:
  explicit BareMachine(Segno slots = 64, Segno stack_base = 0)
      : memory_(1 << 20) {
    dseg_.emplace(*DescriptorSegment::Create(&memory_, slots, stack_base));
    cpu_.emplace(&memory_);
    cpu_->SetDbr(dseg_->dbr());
  }

  Cpu& cpu() { return *cpu_; }
  PhysicalMemory& memory() { return memory_; }
  DescriptorSegment& dseg() { return *dseg_; }

  // Creates a segment with the given contents and access; returns its
  // segment number. `extra` zero words pad the bound.
  Segno AddSegment(const std::vector<Word>& words, const SegmentAccess& access,
                   uint64_t extra = 0) {
    const uint64_t bound = words.size() + extra;
    const AbsAddr base = *memory_.Allocate(bound == 0 ? 1 : bound);
    for (size_t i = 0; i < words.size(); ++i) {
      memory_.Write(base + i, words[i]);
    }
    Sdw sdw;
    sdw.present = true;
    sdw.base = base;
    sdw.bound = bound;
    sdw.access = access;
    dseg_->Store(next_segno_, sdw);
    cpu_->InvalidateSdw(next_segno_);
    return next_segno_++;
  }

  // Creates a code segment from instructions.
  Segno AddCode(const std::vector<Instruction>& code, const SegmentAccess& access) {
    std::vector<Word> words;
    words.reserve(code.size());
    for (const Instruction& ins : code) {
      words.push_back(EncodeInstruction(ins));
    }
    return AddSegment(words, access);
  }

  // Rewrites one word of a segment (behind the processor's back, so any
  // cached decode of that word must go).
  void Poke(Segno segno, Wordno wordno, Word value) {
    const Sdw sdw = *dseg_->Fetch(segno);
    memory_.Write(sdw.base + wordno, value);
    cpu_->FlushInsnCache();
  }

  Word Peek(Segno segno, Wordno wordno) {
    const Sdw sdw = *dseg_->Fetch(segno);
    return memory_.Read(sdw.base + wordno);
  }

  void SetIpr(Ring ring, Segno segno, Wordno wordno) {
    cpu_->regs().ipr = Ipr{ring, segno, wordno};
    // Keep the PR-ring invariant (PRn.RING >= IPR.RING) that real
    // hardware maintains: fresh PRs start at the ring of execution.
    for (PointerRegister& pr : cpu_->regs().pr) {
      pr.ring = MaxRing(pr.ring, ring);
    }
  }

  void SetPr(uint8_t n, Ring ring, Segno segno, Wordno wordno) {
    cpu_->regs().pr[n] = PointerRegister{ring, segno, wordno};
  }

  // Executes one instruction; returns the trap cause (kNone on success).
  TrapCause StepTrap() {
    cpu_->Step();
    return cpu_->trap_pending() ? cpu_->trap_state().cause : TrapCause::kNone;
  }

  // Steps up to `max` instructions, stopping at the first trap; returns
  // the cause (kNone if no trap occurred within the budget).
  TrapCause RunUntilTrap(int max = 1000) {
    for (int i = 0; i < max; ++i) {
      if (!cpu_->Step()) {
        return cpu_->trap_state().cause;
      }
    }
    return TrapCause::kNone;
  }

 private:
  PhysicalMemory memory_;
  std::optional<DescriptorSegment> dseg_;
  std::optional<Cpu> cpu_;
  Segno next_segno_ = 0;
};

// Common access shapes used across CPU tests.
inline SegmentAccess UserCode() { return MakeProcedureSegment(4, 4); }
inline SegmentAccess UserData() { return MakeDataSegment(4, 4); }

// The one run comparator (Compare, src/fleet/fingerprint.h) as a gtest
// assertion: EXPECT_TRUE(SameRun(want, got)) reports the first differing
// field by name.
inline testing::AssertionResult SameRun(const RunSignature& want, const RunSignature& got) {
  const std::string diff = Compare(want, got);
  if (diff.empty()) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure() << diff;
}

// Runs `run(tier)` once per engine tier, expects every tier's signature
// to match the reference tier's, and returns them in kEngineTiers order.
template <class Run>
std::vector<RunSignature> ExpectSameRunOnEveryTier(Run run) {
  const RunSignature reference = run(EngineTier::kReference);
  std::vector<RunSignature> runs;
  for (const EngineTier tier : kEngineTiers) {
    runs.push_back(tier == EngineTier::kReference ? reference : run(tier));
    EXPECT_TRUE(SameRun(reference, runs.back())) << "tier " << EngineTierName(tier);
  }
  return runs;
}

}  // namespace rings

#endif  // TESTS_TESTUTIL_H_
