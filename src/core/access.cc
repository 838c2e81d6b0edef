#include "src/core/access.h"

namespace rings {

bool AnyAccess(const SegmentAccess& access, Ring ring) {
  return CheckRead(access, ring).ok() || CheckWrite(access, ring).ok() ||
         CheckExecute(access, ring).ok() ||
         (access.flags.execute && access.brackets.InGateExtension(ring) && access.gate_count > 0);
}

}  // namespace rings
