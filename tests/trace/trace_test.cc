#include <gtest/gtest.h>

#include "src/trace/counters.h"
#include "src/trace/event_trace.h"

namespace rings {
namespace {

TEST(EventTrace, DisabledRecordsNothing) {
  EventTrace trace;
  trace.Record(TraceEvent{EventKind::kTrap, 1, 0, {}, TrapCause::kHalt, 0, {}});
  EXPECT_TRUE(trace.events().empty());
}

TEST(EventTrace, BoundedCapacityDropsOldest) {
  EventTrace trace(/*capacity=*/3);
  trace.set_enabled(true);
  for (uint64_t i = 0; i < 5; ++i) {
    trace.Record(TraceEvent{EventKind::kInstruction, i, 0, {}, TrapCause::kNone, 0, {}});
  }
  ASSERT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.events().front().cycle, 2u);
  EXPECT_EQ(trace.events().back().cycle, 4u);
}

TEST(EventTrace, FilterByKind) {
  EventTrace trace;
  trace.set_enabled(true);
  trace.Record(TraceEvent{EventKind::kInstruction, 1, 4, {}, TrapCause::kNone, 0, {}});
  trace.Record(TraceEvent{EventKind::kRingSwitch, 2, 4, {}, TrapCause::kNone, 1, {}});
  trace.Record(TraceEvent{EventKind::kTrap, 3, 1, {}, TrapCause::kHalt, 0, {}});
  trace.Record(TraceEvent{EventKind::kRingSwitch, 4, 1, {}, TrapCause::kNone, 4, {}});
  EXPECT_EQ(trace.Filter(EventKind::kRingSwitch).size(), 2u);
  EXPECT_EQ(trace.Filter(EventKind::kTrap).size(), 1u);
  const auto rings_seen = trace.RingSwitchSequence();
  ASSERT_EQ(rings_seen.size(), 2u);
  EXPECT_EQ(rings_seen[0], 1);
  EXPECT_EQ(rings_seen[1], 4);
}

TEST(EventTrace, DumpAndToString) {
  EventTrace trace;
  trace.set_enabled(true);
  trace.Record(TraceEvent{EventKind::kTrap, 10, 4, SegAddr{2, 7}, TrapCause::kGateViolation, 0,
                          "note"});
  const std::string dump = trace.Dump();
  EXPECT_NE(dump.find("gate_violation"), std::string::npos);
  EXPECT_NE(dump.find("2|7"), std::string::npos);
  EXPECT_NE(dump.find("note"), std::string::npos);
  trace.Clear();
  EXPECT_TRUE(trace.events().empty());
}

TEST(Counters, TrapCountingAndTotals) {
  Counters c;
  c.CountTrap(TrapCause::kGateViolation);
  c.CountTrap(TrapCause::kGateViolation);
  c.CountTrap(TrapCause::kHalt);
  EXPECT_EQ(c.TrapCount(TrapCause::kGateViolation), 2u);
  EXPECT_EQ(c.TrapCount(TrapCause::kHalt), 1u);
  EXPECT_EQ(c.TrapCount(TrapCause::kReadViolation), 0u);
  EXPECT_EQ(c.TotalTraps(), 3u);
}

TEST(Counters, TotalChecksSumsAllKinds) {
  Counters c;
  c.checks_fetch = 1;
  c.checks_read = 2;
  c.checks_write = 3;
  c.checks_indirect = 4;
  c.checks_transfer = 5;
  c.checks_call = 6;
  c.checks_return = 7;
  EXPECT_EQ(c.TotalChecks(), 28u);
}

TEST(Counters, SinceSubtractsEveryField) {
  Counters a;
  a.instructions = 10;
  a.page_walks = 4;
  a.CountTrap(TrapCause::kHalt);
  Counters b = a;
  b.instructions = 25;
  b.page_walks = 9;
  b.CountTrap(TrapCause::kHalt);
  b.CountTrap(TrapCause::kMissingPage);
  const Counters d = b.Since(a);
  EXPECT_EQ(d.instructions, 15u);
  EXPECT_EQ(d.page_walks, 5u);
  EXPECT_EQ(d.TrapCount(TrapCause::kHalt), 1u);
  EXPECT_EQ(d.TrapCount(TrapCause::kMissingPage), 1u);
}

TEST(Counters, ToStringMentionsNonzeroTraps) {
  Counters c;
  c.instructions = 5;
  c.CountTrap(TrapCause::kWriteViolation);
  const std::string text = c.ToString();
  EXPECT_NE(text.find("write_violation=1"), std::string::npos);
  EXPECT_EQ(text.find("read_violation"), std::string::npos);
  // Counters print under their ForEachField names, zero ones not at all.
  c.memory_reads = 3;
  c.block_ops = 2;
  const std::string named = c.ToString();
  EXPECT_NE(named.find("instructions=5"), std::string::npos);
  EXPECT_NE(named.find("memory_reads=3"), std::string::npos);
  EXPECT_NE(named.find("block_ops=2"), std::string::npos);
  EXPECT_EQ(named.find("memory_writes"), std::string::npos);
}

TEST(TrapCauseNames, AllDistinctAndNamed) {
  for (unsigned i = 0; i < static_cast<unsigned>(TrapCause::kNumCauses); ++i) {
    const auto name = TrapCauseName(static_cast<TrapCause>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "invalid") << i;
    for (unsigned j = i + 1; j < static_cast<unsigned>(TrapCause::kNumCauses); ++j) {
      EXPECT_NE(name, TrapCauseName(static_cast<TrapCause>(j)));
    }
  }
}

TEST(TrapCauseNames, AccessViolationClassification) {
  EXPECT_TRUE(IsAccessViolation(TrapCause::kReadViolation));
  EXPECT_TRUE(IsAccessViolation(TrapCause::kGateViolation));
  EXPECT_TRUE(IsAccessViolation(TrapCause::kPrivilegedViolation));
  EXPECT_FALSE(IsAccessViolation(TrapCause::kUpwardCall));
  EXPECT_FALSE(IsAccessViolation(TrapCause::kTimerRunout));
  EXPECT_FALSE(IsAccessViolation(TrapCause::kSupervisorService));
  EXPECT_FALSE(IsAccessViolation(TrapCause::kMissingPage));
}

}  // namespace
}  // namespace rings
