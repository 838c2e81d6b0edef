// Optional execution trace: a bounded ring buffer of events (instruction
// retirements, ring switches, traps) that tests and examples can inspect
// or dump. Disabled by default; enabling costs one branch per event.
#ifndef SRC_TRACE_EVENT_TRACE_H_
#define SRC_TRACE_EVENT_TRACE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/core/ring.h"
#include "src/core/trap_cause.h"
#include "src/mem/word.h"

namespace rings {

enum class EventKind : uint8_t {
  kInstruction,
  kRingSwitch,
  kTrap,
  kTrapReturn,
  kSupervisor,
  kProcessSwitch,
};

struct TraceEvent {
  EventKind kind = EventKind::kInstruction;
  uint64_t cycle = 0;
  Ring ring = 0;
  SegAddr pc{};
  TrapCause cause = TrapCause::kNone;  // kTrap events
  Ring new_ring = 0;                   // kRingSwitch events
  std::string note;                    // kSupervisor / kProcessSwitch events

  std::string ToString() const;
};

class EventTrace {
 public:
  explicit EventTrace(size_t capacity = 4096) : capacity_(capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  void Record(TraceEvent event);
  void Clear() { events_.clear(); }

  const std::deque<TraceEvent>& events() const { return events_; }

  // All events of one kind, in order.
  std::vector<TraceEvent> Filter(EventKind kind) const;

  // Convenience for tests: the sequence of rings entered via kRingSwitch.
  std::vector<Ring> RingSwitchSequence() const;

  std::string Dump() const;

  size_t capacity() const { return capacity_; }

  // --- machine state (Machine::CaptureState / RestoreState) -------------
  // A traced run's trap sequence is compared across clones and restores
  // (TrapSequence, src/fleet/fingerprint.h), so a cloned or restored
  // machine must resume with the identical buffer.
  // Events past this trace's capacity are trimmed from the front on
  // restore, matching what Record would have retained.
  struct State {
    bool enabled = false;
    std::deque<TraceEvent> events;
  };
  State CaptureState() const { return State{enabled_, events_}; }
  void RestoreState(State state) {
    enabled_ = state.enabled;
    events_ = std::move(state.events);
    while (events_.size() > capacity_) {
      events_.pop_front();
    }
  }

 private:
  size_t capacity_;
  bool enabled_ = false;
  std::deque<TraceEvent> events_;
};

}  // namespace rings

#endif  // SRC_TRACE_EVENT_TRACE_H_
