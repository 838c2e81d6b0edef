#include "src/cpu/sdw_cache.h"

namespace rings {

void SdwCache::Invalidate(Segno segno) {
  Entry& e = entries_[segno % kEntries];
  if (e.valid && e.segno == segno) {
    e.valid = false;
  }
}

void SdwCache::InvalidateIndex(size_t index) {
  entries_[index % kEntries].valid = false;
}

void SdwCache::Flush() {
  for (Entry& e : entries_) {
    e.valid = false;
  }
}

}  // namespace rings
