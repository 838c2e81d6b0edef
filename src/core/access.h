// Pure access-validation predicates: the checks of Figures 4 and 6, and
// the indirect-word read check of Figure 5, expressed over a SegmentAccess
// and an effective ring. The processor (src/cpu) and the software-rings
// baseline (src/b645) both route every reference through these functions so
// there is exactly one statement of the paper's rules in the codebase. Each
// is at most a flag test and two ring compares, and is forced inline: the
// processor evaluates it on every reference, including inside the block
// engine's op loop, where an out-of-line call would cost more than the
// check.
#ifndef SRC_CORE_ACCESS_H_
#define SRC_CORE_ACCESS_H_

#include "src/core/brackets.h"
#include "src/core/ring.h"
#include "src/core/trap_cause.h"

namespace rings {

// Result of a validation: either permitted, or the trap cause the hardware
// would raise.
struct AccessDecision {
  TrapCause cause = TrapCause::kNone;

  bool ok() const { return cause == TrapCause::kNone; }
  static AccessDecision Allow() { return {TrapCause::kNone}; }
  static AccessDecision Deny(TrapCause cause) { return {cause}; }

  bool operator==(const AccessDecision&) const = default;
};

// Figure 6, read side: "an instruction which reads its operand" is allowed
// iff the read flag is on and the effective ring lies inside the read
// bracket [0, R2].
[[gnu::always_inline]] inline AccessDecision CheckRead(const SegmentAccess& access,
                                                      Ring effective_ring) {
  if (!access.flags.read || !access.brackets.InReadBracket(effective_ring)) {
    return AccessDecision::Deny(TrapCause::kReadViolation);
  }
  return AccessDecision::Allow();
}

// Figure 6, write side: allowed iff the write flag is on and the effective
// ring lies inside the write bracket [0, R1].
[[gnu::always_inline]] inline AccessDecision CheckWrite(const SegmentAccess& access,
                                                       Ring effective_ring) {
  if (!access.flags.write || !access.brackets.InWriteBracket(effective_ring)) {
    return AccessDecision::Deny(TrapCause::kWriteViolation);
  }
  return AccessDecision::Allow();
}

// Figure 4: instruction fetch. Allowed iff the execute flag is on and the
// ring of execution lies inside the execute bracket [R1, R2].
[[gnu::always_inline]] inline AccessDecision CheckExecute(const SegmentAccess& access,
                                                         Ring ring_of_execution) {
  if (!access.flags.execute || !access.brackets.InExecuteBracket(ring_of_execution)) {
    return AccessDecision::Deny(TrapCause::kExecuteViolation);
  }
  return AccessDecision::Allow();
}

// Figure 5: "The capability to read an indirect word during effective
// address formation must be validated before the indirect word is
// retrieved. Validation is with respect to the value in TPR.RING at the
// time the indirect word is encountered." Identical to CheckRead; kept as
// a distinct entry point so call sites document which figure they
// implement and so instrumentation can count the two check kinds apart.
[[gnu::always_inline]] inline AccessDecision CheckIndirectRead(const SegmentAccess& access,
                                                              Ring effective_ring) {
  return CheckRead(access, effective_ring);
}

// Figure 7: advance check for transfer instructions other than CALL and
// RETURN. The transfer itself references nothing, but the next fetch will
// be validated; checking early "catches the access violation while it is
// still possible to identify the instruction which made the illegal
// transfer". A non-CALL transfer cannot change the ring of execution, so
// an effective ring raised above the ring of execution (by PR-relative
// addressing or indirection) is rejected.
[[gnu::always_inline]] inline AccessDecision CheckTransfer(const SegmentAccess& access,
                                                          Ring ring_of_execution,
                                                          Ring effective_ring) {
  if (effective_ring != ring_of_execution) {
    // The pointer that produced this target was influenced by a higher
    // numbered ring; a plain transfer may not act on it (Figure 7).
    return AccessDecision::Deny(TrapCause::kTransferRingViolation);
  }
  return CheckExecute(access, ring_of_execution);
}

// True if `ring` may reference *anything* in a segment with this access —
// used by diagnostics and by the baseline's descriptor-segment compiler.
bool AnyAccess(const SegmentAccess& access, Ring ring);

}  // namespace rings

#endif  // SRC_CORE_ACCESS_H_
