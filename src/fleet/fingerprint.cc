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

uint64_t FingerprintMachine(const Machine& machine) {
  FingerprintBuilder fp;
  fp.Mix(machine.cpu().cycles());
  Mixer mixer(&fp);
  mixer.Put(machine.cpu().regs());
  mixer.Put(machine.cpu().counters());
  for (const auto& process : machine.supervisor().processes()) {
    fp.Mix(ProcessStatusLine(*process));
  }
  fp.Mix(machine.TtyOutput());
  return fp.digest();
}

std::vector<std::string> TrapSequence(const Machine& machine) {
  std::vector<std::string> traps;
  for (const TraceEvent& event : machine.trace().events()) {
    if (event.kind == EventKind::kTrap || event.kind == EventKind::kRingSwitch) {
      traps.push_back(event.ToString());
    }
  }
  return traps;
}

RunSignature CpuSignature(const Cpu& cpu) {
  RunSignature sig;
  sig.cycles = cpu.cycles();
  sig.regs = cpu.regs();
  sig.counters = cpu.counters();
  sig.sdw_cache_hits = cpu.sdw_cache().hits();
  sig.sdw_cache_misses = cpu.sdw_cache().misses();
  return sig;
}

RunSignature SignatureOf(const Machine& machine) {
  RunSignature sig = CpuSignature(machine.cpu());
  sig.fingerprint = FingerprintMachine(machine);
  sig.traps = TrapSequence(machine);
  for (const auto& process : machine.supervisor().processes()) {
    sig.processes.push_back(ProcessStatusLine(*process));
  }
  sig.tty = machine.TtyOutput();
  return sig;
}

namespace {

std::string CompareU64(const std::string& what, uint64_t want, uint64_t got) {
  if (want == got) {
    return "";
  }
  return StrFormat("%s %llu vs %llu", what.c_str(), static_cast<unsigned long long>(want),
                   static_cast<unsigned long long>(got));
}

std::string CompareLists(const char* what, const std::vector<std::string>& want,
                         const std::vector<std::string>& got) {
  if (want.size() != got.size()) {
    return StrFormat("%s count %zu vs %zu", what, want.size(), got.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (want[i] != got[i]) {
      return StrFormat("%s[%zu] '%s' vs '%s'", what, i, want[i].c_str(), got[i].c_str());
    }
  }
  return "";
}

}  // namespace

std::string Compare(const RunSignature& want, const RunSignature& got) {
  std::string diff = CompareU64("cycles", want.cycles, got.cycles);
  Counters::ForEachField([&](const char* name, uint64_t Counters::* field, bool host_only) {
    if (diff.empty() && !host_only) {
      diff = CompareU64(name, want.counters.*field, got.counters.*field);
    }
  });
  for (size_t i = 0; diff.empty() && i < want.counters.traps.size(); ++i) {
    diff = CompareU64("traps." + std::string(TrapCauseName(static_cast<TrapCause>(i))),
                      want.counters.traps[i], got.counters.traps[i]);
  }
  if (diff.empty()) {
    diff = CompareU64("sdw_cache.hits", want.sdw_cache_hits, got.sdw_cache_hits);
  }
  if (diff.empty()) {
    diff = CompareU64("sdw_cache.misses", want.sdw_cache_misses, got.sdw_cache_misses);
  }
  if (diff.empty() && !(want.regs == got.regs)) {
    diff = StrFormat("registers %s vs %s", want.regs.ToString().c_str(),
                     got.regs.ToString().c_str());
  }
  if (diff.empty()) {
    diff = CompareLists("trap", want.traps, got.traps);
  }
  if (diff.empty()) {
    diff = CompareLists("process", want.processes, got.processes);
  }
  if (diff.empty() && want.tty != got.tty) {
    diff = StrFormat("tty '%s' vs '%s'", want.tty.c_str(), got.tty.c_str());
  }
  if (diff.empty() && want.fingerprint != got.fingerprint) {
    diff = StrFormat("fingerprint %016llx vs %016llx",
                     static_cast<unsigned long long>(want.fingerprint),
                     static_cast<unsigned long long>(got.fingerprint));
  }
  return diff;
}

}  // namespace rings
