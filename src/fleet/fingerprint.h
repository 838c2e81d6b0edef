// The machine fingerprint: a single 64-bit digest of everything a
// finished run lets the simulated machine observe — the cycle count, the
// architectural registers, every architectural event counter (host-side
// fast-path statistics are excluded, per the Counters::ForEachField
// host_only classification), each process's outcome, and the typewriter
// output. Two runs of the same program are the same run exactly when
// their fingerprints match, which is the determinism contract the fleet
// engine is held to: a machine's fingerprint must be bit-identical
// whether it ran standalone through Machine::Run or inside a fleet on any
// number of worker threads. The trap/ring-switch sequence of a traced run
// (TrapSequence) is held to the same contract, compared beside the
// fingerprint rather than folded into it.
#ifndef SRC_FLEET_FINGERPRINT_H_
#define SRC_FLEET_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sys/machine.h"

namespace rings {

// Order-sensitive FNV-1a accumulator. Every Mix() call folds a length
// tag or the raw little-endian bytes in, so field boundaries cannot
// alias ("ab","c" vs "a","bc" hash differently).
class FingerprintBuilder {
 public:
  void Mix(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      MixByte(static_cast<uint8_t>(value >> (8 * i)));
    }
  }
  void Mix(std::string_view text) {
    Mix(static_cast<uint64_t>(text.size()));
    for (const char c : text) {
      MixByte(static_cast<uint8_t>(c));
    }
  }
  uint64_t digest() const { return hash_; }

 private:
  void MixByte(uint8_t byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 14695981039346656037ull;
};

// Digest of a finished machine: cycles, registers, architectural
// counters, process statuses and tty output. The event trace is
// observation, not state, so tracing never changes the digest.
uint64_t FingerprintMachine(const Machine& machine);

// The trap and ring-switch events of a traced run, rendered one per
// entry in the order they happened; empty when the trace is off.
// Determinism checks compare it beside the fingerprint.
std::vector<std::string> TrapSequence(const Machine& machine);

// The architectural-counter digest alone (the counter subset excluded
// from host-only statistics, plus the per-cause trap array).
uint64_t FingerprintCounters(const Counters& counters);

// One line per process: "pid=1 user=alice state=exited code=0" /
// "pid=2 user=bob state=killed cause=machine_fault at 12|34". Stable
// text shared by the fingerprint, fleet results, and ringsim output.
std::string ProcessStatusLine(const Process& process);

// The exit status ringsim, fleet results and serve completions share: 111
// when a process was killed or did not finish, when there is no machine,
// or when the host stopped it early (a budget ran out or the run failed)
// with no nonzero exit; otherwise the highest exited code & 0xFF.
// `failure` is the first unfinished process's ProcessStatusLine.
struct GuestExit {
  int code = 0;
  std::string failure;
};
GuestExit GuestExitStatus(const Machine* machine, bool stopped_early = false);

}  // namespace rings

#endif  // SRC_FLEET_FINGERPRINT_H_
