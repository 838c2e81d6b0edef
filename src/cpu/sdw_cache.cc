#include "src/cpu/sdw_cache.h"

#include "src/core/access.h"

namespace rings {

void SdwCache::Invalidate(Segno segno) {
  const size_t index = segno % kEntries;
  Entry& e = entries_[index];
  if (e.valid && e.segno == segno) {
    e.valid = false;
    verdicts_[index] = Verdict{};
  }
}

void SdwCache::InvalidateIndex(size_t index) {
  entries_[index % kEntries].valid = false;
  verdicts_[index % kEntries] = Verdict{};
}

void SdwCache::Flush() {
  for (Entry& e : entries_) {
    e.valid = false;
  }
  verdicts_ = {};
}

bool SdwCache::FillVerdict(Segno segno, Ring ring) {
  const size_t index = segno % kEntries;
  const Entry& e = entries_[index];
  if (!e.valid || e.segno != segno) {
    return false;
  }
  const SegmentAccess& access = e.sdw.access;
  verdicts_[index] = Verdict{true, ring, CheckRead(access, ring).ok(),
                             CheckWrite(access, ring).ok(), CheckExecute(access, ring).ok()};
  return true;
}

}  // namespace rings
