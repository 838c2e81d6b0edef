// Event counters kept by the processor and supervisor. These are the raw
// series behind every benchmark table in EXPERIMENTS.md: instruction
// counts, memory references, descriptor fetches, the number of each kind
// of hardware validation performed, and traps by cause.
#ifndef SRC_TRACE_COUNTERS_H_
#define SRC_TRACE_COUNTERS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/core/trap_cause.h"

namespace rings {

struct Counters {
  uint64_t instructions = 0;
  uint64_t memory_reads = 0;
  uint64_t memory_writes = 0;
  uint64_t sdw_fetches = 0;      // descriptor-segment walks (cache misses)
  uint64_t sdw_cache_hits = 0;
  uint64_t indirect_words = 0;   // indirect words processed in EA formation
  uint64_t page_walks = 0;       // PTW fetches for paged segments
  uint64_t pages_supplied = 0;   // demand-zero pages installed by the supervisor
  uint64_t links_snapped = 0;    // dynamic links resolved on first reference

  // Hardware validations performed (Figures 4-8).
  uint64_t checks_fetch = 0;
  uint64_t checks_read = 0;
  uint64_t checks_write = 0;
  uint64_t checks_indirect = 0;
  uint64_t checks_transfer = 0;
  uint64_t checks_call = 0;
  uint64_t checks_return = 0;

  // CALL/RETURN outcomes.
  uint64_t calls_same_ring = 0;
  uint64_t calls_downward = 0;
  uint64_t returns_same_ring = 0;
  uint64_t returns_upward = 0;

  // Supervisor-side work.
  uint64_t supervisor_steps = 0;
  uint64_t upward_calls_emulated = 0;
  uint64_t downward_returns_emulated = 0;
  uint64_t argument_words_copied = 0;

  // Host-side fast path (see DESIGN.md, "Address-formation fast path").
  // These describe host work saved, not simulated events: simulated
  // cycles and the counters above are bit-identical with the fast path
  // on or off.
  uint64_t verdict_hits = 0;
  uint64_t verdict_misses = 0;          // cached/blocks-tier references the probe missed
  uint64_t block_builds = 0;            // superblocks decoded from the store
  uint64_t block_hits = 0;              // dispatches served by a cached block
  uint64_t block_ops = 0;               // instructions executed inside blocks
  uint64_t block_bailouts = 0;          // mid-block exits to the per-instruction path
  uint64_t block_op_fallbacks = 0;      // block ops handed to Execute, not run in the loop
  uint64_t block_invalidations = 0;     // blocks retired (stores, SDW edits, drops, flushes)
  uint64_t chain_links = 0;             // successor links patched into blocks
  uint64_t chain_follows = 0;           // dispatches served by following a patched link
  // Always zero; nothing counts them. They stay only because
  // perfbench/ledger.cc names them; the benchmark change that stops
  // naming them deletes them.
  uint64_t insn_cache_hits = 0;
  uint64_t insn_cache_misses = 0;
  uint64_t insn_cache_invalidations = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;
  uint64_t crossing_hits = 0;
  uint64_t crossing_misses = 0;
  uint64_t shared_decode_hits = 0;
  uint64_t shared_decode_misses = 0;
  uint64_t shared_decode_builds = 0;

  // Hardened trap paths (see DESIGN.md, "Fault model & recovery").
  uint64_t sdw_recoveries = 0;         // corrupted cached SDW detected, flushed, resumed
  uint64_t spurious_pages_ignored = 0; // missing-page trap with the page already present
  uint64_t machine_faults = 0;         // physical-store faults converted to process kills
  uint64_t trap_storm_kills = 0;       // watchdog terminations
  uint64_t double_faults = 0;          // traps raised while servicing a trap

  std::array<uint64_t, static_cast<size_t>(TrapCause::kNumCauses)> traps{};

  uint64_t TotalChecks() const {
    return checks_fetch + checks_read + checks_write + checks_indirect + checks_transfer +
           checks_call + checks_return;
  }
  uint64_t TotalTraps() const;
  uint64_t TrapCount(TrapCause cause) const { return traps[static_cast<size_t>(cause)]; }
  void CountTrap(TrapCause cause) { ++traps[static_cast<size_t>(cause)]; }

  // Per-field difference (this - other); used to attribute costs to a
  // region of execution.
  Counters Since(const Counters& earlier) const;

  // Adds every counter (including the traps array) of `other` into this
  // one. This is the fleet-level merge: summing each machine's counters
  // gives the aggregate simulated work of the whole fleet.
  void Accumulate(const Counters& other);

  // Visits every scalar counter as fn(name, member_pointer, host_only).
  // host_only marks the host-side fast-path statistics (verdict_* /
  // block_* / chain_* / the always-zero insn_cache_*, tlb_*,
  // crossing_* and shared_decode_*): they describe host work saved, not
  // simulated events, so differential fingerprints skip them and
  // snapshot images do not carry them (a restored machine's start at
  // zero). The traps array is architectural and is visited by callers
  // directly.
  template <typename Fn>
  static void ForEachField(Fn&& fn) {
    auto arch = [&fn](const char* name, uint64_t Counters::* member) {
      fn(name, member, /*host_only=*/false);
    };
    auto host = [&fn](const char* name, uint64_t Counters::* member) {
      fn(name, member, /*host_only=*/true);
    };
    arch("instructions", &Counters::instructions);
    arch("memory_reads", &Counters::memory_reads);
    arch("memory_writes", &Counters::memory_writes);
    arch("sdw_fetches", &Counters::sdw_fetches);
    arch("sdw_cache_hits", &Counters::sdw_cache_hits);
    arch("indirect_words", &Counters::indirect_words);
    arch("page_walks", &Counters::page_walks);
    arch("pages_supplied", &Counters::pages_supplied);
    arch("links_snapped", &Counters::links_snapped);
    arch("checks_fetch", &Counters::checks_fetch);
    arch("checks_read", &Counters::checks_read);
    arch("checks_write", &Counters::checks_write);
    arch("checks_indirect", &Counters::checks_indirect);
    arch("checks_transfer", &Counters::checks_transfer);
    arch("checks_call", &Counters::checks_call);
    arch("checks_return", &Counters::checks_return);
    arch("calls_same_ring", &Counters::calls_same_ring);
    arch("calls_downward", &Counters::calls_downward);
    arch("returns_same_ring", &Counters::returns_same_ring);
    arch("returns_upward", &Counters::returns_upward);
    arch("supervisor_steps", &Counters::supervisor_steps);
    arch("upward_calls_emulated", &Counters::upward_calls_emulated);
    arch("downward_returns_emulated", &Counters::downward_returns_emulated);
    arch("argument_words_copied", &Counters::argument_words_copied);
    host("verdict_hits", &Counters::verdict_hits);
    host("verdict_misses", &Counters::verdict_misses);
    host("insn_cache_hits", &Counters::insn_cache_hits);
    host("insn_cache_misses", &Counters::insn_cache_misses);
    host("insn_cache_invalidations", &Counters::insn_cache_invalidations);
    host("tlb_hits", &Counters::tlb_hits);
    host("tlb_misses", &Counters::tlb_misses);
    host("block_builds", &Counters::block_builds);
    host("block_hits", &Counters::block_hits);
    host("block_ops", &Counters::block_ops);
    host("block_bailouts", &Counters::block_bailouts);
    host("block_op_fallbacks", &Counters::block_op_fallbacks);
    host("block_invalidations", &Counters::block_invalidations);
    host("chain_links", &Counters::chain_links);
    host("chain_follows", &Counters::chain_follows);
    host("crossing_hits", &Counters::crossing_hits);
    host("crossing_misses", &Counters::crossing_misses);
    host("shared_decode_hits", &Counters::shared_decode_hits);
    host("shared_decode_misses", &Counters::shared_decode_misses);
    host("shared_decode_builds", &Counters::shared_decode_builds);
    arch("sdw_recoveries", &Counters::sdw_recoveries);
    arch("spurious_pages_ignored", &Counters::spurious_pages_ignored);
    arch("machine_faults", &Counters::machine_faults);
    arch("trap_storm_kills", &Counters::trap_storm_kills);
    arch("double_faults", &Counters::double_faults);
  }

  // Every non-zero counter as name=value under its ForEachField name,
  // then every non-zero trap count under its TrapCauseName.
  std::string ToString() const;
};

}  // namespace rings

#endif  // SRC_TRACE_COUNTERS_H_
