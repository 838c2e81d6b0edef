// The ring-0/ring-1 supervisor. Trap-handler and service bodies are C++
// charged with simulated cycles (see DESIGN.md); everything guest-visible
// — gate segments, the CALL/RETURN crossing path, stack segments,
// descriptor segments — is real simulated-machine state.
//
// Responsibilities:
//   * process creation (descriptor segment + eight per-ring stack
//     segments at segment numbers 0..7) and segment initiation driven by
//     access control lists;
//   * trap dispatch: supervisor services (SVC via gates), exit, timer-
//     driven round-robin scheduling, I/O completions, and fatal access
//     violations;
//   * the software side of the paper's hard cases: upward-call emulation
//     with argument copy-in/copy-out and dynamic stacked return gates,
//     and downward-return emulation with stack-pointer verification.
#ifndef SRC_SUP_SUPERVISOR_H_
#define SRC_SUP_SUPERVISOR_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cpu/cpu.h"
#include "src/sup/abi.h"
#include "src/sup/process.h"
#include "src/sup/segment_registry.h"

namespace rings {

// Names of the supervisor's own gate segments, created by Initialize().
inline constexpr char kGateSegmentRing1[] = "sup_gates";    // callable from rings 2..5
inline constexpr char kGateSegmentRing0[] = "sup_gates0";   // callable from ring 1 only
inline constexpr char kAdminGateSegment[] = "admin_gates";  // ACL-restricted to "admin"

class Supervisor {
 public:
  struct Options {
    int64_t quantum = 5000;  // instructions per scheduling time slice
    bool verbose = false;
    // Trap-storm watchdog: a process that takes this many consecutive
    // synchronous traps without retiring a single instruction is killed
    // (kTrapStorm) instead of live-locking the machine. 0 disables.
    int64_t trap_storm_limit = 64;
  };

  Supervisor(Cpu* cpu, PhysicalMemory* memory, SegmentRegistry* registry, Options options);
  Supervisor(Cpu* cpu, PhysicalMemory* memory, SegmentRegistry* registry)
      : Supervisor(cpu, memory, registry, Options{}) {}

  // Creates the supervisor's gate segments. Must be called once, before
  // processes start. Returns false on resource exhaustion.
  bool Initialize();

  // --- process management -------------------------------------------------

  // Login: creates a process (descriptor segment + stack segments) for
  // `user`. Returns null on memory exhaustion.
  Process* CreateProcess(const std::string& user);

  // Adds the named registry segment to the process's virtual memory if the
  // ACL grants the process's user access; returns its segment number.
  std::optional<Segno> Initiate(Process* process, const std::string& name);
  // Initiates every registered segment the user's ACLs permit (convenient
  // for examples).
  void InitiateAll(Process* process);

  // Sets the process's initial execution point: `entry` symbol in segment
  // `segname`, executing in `ring`. The segment is initiated if needed.
  bool Start(Process* process, const std::string& segname, const std::string& entry, Ring ring);

  // --- machine interface --------------------------------------------------

  // Dispatches the CPU's pending trap. Returns true if execution should
  // continue (some process is running or ready), false when the system is
  // idle (all processes finished).
  bool HandleTrap();

  // Picks the next ready process and resumes it. Returns false when none.
  bool DispatchNext();

  // True when no process can run anymore.
  bool Idle() const;

  Process* current() const { return current_; }
  const std::vector<std::unique_ptr<Process>>& processes() const { return processes_; }

  // Device hooks supplied by the machine.
  void set_start_io(std::function<void(uint8_t, Word)> hook) { start_io_ = std::move(hook); }
  // Typewriter buffers (the machine's device layer reads/feeds these).
  std::string& tty_output() { return tty_output_; }
  const std::string& tty_output() const { return tty_output_; }
  std::string& tty_input() { return tty_input_; }

  // Wakes processes blocked in kSvcTtyRead (the machine calls this when
  // typewriter input arrives). Each awakened process re-executes its SVC.
  void NotifyTtyInput();

  // Handler for MME traps (installed by the 645-style baseline; default
  // kills the process).
  void set_mme_handler(std::function<bool(const TrapState&)> handler) {
    mme_handler_ = std::move(handler);
  }

  // Registered-users list appended by kSvcRegisterUser (admin example).
  const std::vector<std::string>& registered_users() const { return registered_users_; }

  const Options& options() const { return options_; }
  void set_quantum(int64_t quantum) { options_.quantum = quantum; }
  void set_trap_storm_limit(int64_t limit) { options_.trap_storm_limit = limit; }

  // --- machine state (Machine::CaptureState / RestoreState) -------------
  // Processes are identified by pid (pointers are rebuilt on restore);
  // current_pid 0 = no current process. The quantum and trap-storm limit
  // travel with the machine's meta state.
  struct State {
    int next_pid = 1;
    int anonymous_segments = 0;
    bool handling_trap = false;
    int current_pid = 0;
    std::vector<int> ready_pids;
    std::string tty_output;
    std::string tty_input;
    std::vector<std::string> registered_users;
    std::vector<Process> processes;

    // Empty when every pid the scheduler names is in `processes`;
    // otherwise a description of the first dangling one.
    std::string DanglingPid() const;
  };
  State CaptureState() const;
  // `state` must have no dangling pid (the snapshot reader rejects images
  // that do, and a captured state never has one).
  void RestoreState(State state);

 private:
  // Charges `steps` logical supervisor steps to the cycle account.
  void Charge(uint64_t steps);

  // HandleTrap body; the public wrapper adds double-fault detection.
  bool HandleTrapImpl();

  // Trap-storm watchdog bookkeeping; true when the limit was hit and the
  // current process was killed.
  bool WatchdogTripped(const TrapState& trap);

  // Hardware-fault recovery: when a fatal-looking trap was caused by a
  // corrupted *cached* SDW (the authoritative descriptor-segment copy
  // disagrees with what the processor cached), invalidate the cached copy
  // and resume the disrupted instruction instead of killing the process.
  // Returns true when it recovered and resumed.
  bool TryRecoverCachedSdw(const TrapState& trap);

  void KillCurrent(TrapCause cause, const SegAddr& pc);
  void ResumeCurrent(const RegisterFile& regs);

  // Service bodies (SVC).
  void DispatchService(const TrapState& trap);
  void SvcExit(const TrapState& trap);
  void SvcTtyWrite(const TrapState& trap, RegisterFile* regs);
  // Returns false when the caller was blocked awaiting input (the
  // process will re-issue the SVC when awakened; do not resume now).
  bool SvcTtyRead(const TrapState& trap, RegisterFile* regs);
  void SvcSetAcl(const TrapState& trap, RegisterFile* regs);
  void SvcMakeSegment(const TrapState& trap, RegisterFile* regs);

  // The hard cases (Call and Return section).
  void EmulateUpwardCall(const TrapState& trap);
  void EmulateDownwardReturn(const TrapState& trap);

  // Dynamic linking: resolve the fault-tagged word at trap.fault_addr,
  // overwrite it with a snapped pointer, and resume the disrupted
  // instruction. Kills the process when the symbolic target does not
  // resolve.
  void SnapLink(const TrapState& trap);

  // Argument-list helpers (shared with services). Reads the argument list
  // addressed by `ap`, validating every reference at the hardware-
  // equivalent effective ring. Returns false on any violation (cause in
  // *fault).
  struct ArgRef {
    SegAddr addr{};
    Ring effective_ring = 0;
    uint32_t length = 0;
  };
  bool ReadArgList(const PointerRegister& ap, std::vector<ArgRef>* args, TrapCause* fault);

  // Stack-area allocation in a ring's stack segment (word 0 protocol).
  std::optional<Wordno> AllocateStackArea(Ring ring, uint64_t words);
  void ReleaseStackArea(Ring ring, uint64_t words);

  Cpu* cpu_;
  PhysicalMemory* memory_;
  SegmentRegistry* registry_;
  Options options_;

  std::vector<std::unique_ptr<Process>> processes_;
  std::deque<Process*> ready_;
  Process* current_ = nullptr;
  bool handling_trap_ = false;
  int next_pid_ = 1;
  int anonymous_segments_ = 0;

  std::function<void(uint8_t, Word)> start_io_;
  std::function<bool(const TrapState&)> mme_handler_;
  std::string tty_output_;
  std::string tty_input_;
  std::vector<std::string> registered_users_;
};

}  // namespace rings

#endif  // SRC_SUP_SUPERVISOR_H_
