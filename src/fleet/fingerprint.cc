#include "src/fleet/fingerprint.h"

#include <algorithm>

#include "src/base/strings.h"
#include "src/snapshot/schema.h"

namespace rings {

namespace {

// Folds the visited fields of a machine-state field list
// (src/snapshot/schema.h) into the digest, each widened to 64 bits. Build
// geometry and host-only statistics are not identity and are skipped.
// It visits the register file and the counters; give it the remaining
// visits when the fingerprint grows to other state.
class Mixer : public Visits<Mixer> {
 public:
  explicit Mixer(FingerprintBuilder* fp) : fp_(fp) {}

  template <class T>
  void Int(const T& v, size_t) {
    fp_->Mix(static_cast<uint64_t>(v));
  }
  template <class T>
  void Ranged(const T& v, size_t, uint64_t, const char*) {
    fp_->Mix(static_cast<uint64_t>(v));
  }
  void HostU64(uint64_t) {}
  void Fixed(size_t, const char*) {}

  // The mixer only reads the fields it visits.
  template <class T>
  void Put(const T& state) {
    Fields(*this, const_cast<T&>(state));
  }

 private:
  FingerprintBuilder* fp_;
};

}  // namespace

std::string ProcessStatusLine(const Process& process) {
  switch (process.state) {
    case ProcessState::kExited:
      return StrFormat("pid=%d user=%s state=exited code=%lld", process.pid,
                       process.user.c_str(), static_cast<long long>(process.exit_code));
    case ProcessState::kKilled:
      return StrFormat("pid=%d user=%s state=killed cause=%s at %u|%u", process.pid,
                       process.user.c_str(),
                       std::string(TrapCauseName(process.kill_cause)).c_str(),
                       process.kill_pc.segno, process.kill_pc.wordno);
    default:
      return StrFormat("pid=%d user=%s state=%d", process.pid, process.user.c_str(),
                       static_cast<int>(process.state));
  }
}

GuestExit GuestExitStatus(const Machine* machine, bool stopped_early) {
  constexpr int kUnfinished = 111;
  if (machine == nullptr) {
    return {kUnfinished, ""};
  }
  GuestExit exit;
  for (const auto& process : machine->supervisor().processes()) {
    if (process->state == ProcessState::kExited) {
      exit.code = std::max(exit.code, static_cast<int>(process->exit_code & 0xFF));
    } else if (exit.failure.empty()) {
      exit.failure = ProcessStatusLine(*process);
    }
  }
  if (!exit.failure.empty() || (stopped_early && exit.code == 0)) {
    exit.code = kUnfinished;
  }
  return exit;
}

uint64_t FingerprintCounters(const Counters& counters) {
  FingerprintBuilder fp;
  Mixer(&fp).Put(counters);
  return fp.digest();
}

uint64_t FingerprintMachine(const Machine& machine) {
  FingerprintBuilder fp;
  fp.Mix(machine.cpu().cycles());
  Mixer mixer(&fp);
  mixer.Put(machine.cpu().regs());
  mixer.Put(machine.cpu().counters());
  if (machine.trace().enabled()) {
    for (const TraceEvent& e : machine.trace().events()) {
      if (e.kind == EventKind::kTrap || e.kind == EventKind::kRingSwitch) {
        fp.Mix(e.ToString());
      }
    }
  }
  for (const auto& process : machine.supervisor().processes()) {
    fp.Mix(ProcessStatusLine(*process));
  }
  fp.Mix(machine.TtyOutput());
  return fp.digest();
}

}  // namespace rings
