// Page tables. "Storage for segments is usually allocated with a paging
// scheme in scattered fixed-length blocks. If used, paging is also taken
// into account by the address translation logic, but is totally
// transparent to an executing machine language program. Paging, if
// appropriately implemented, need not affect access control."
//
// A paged segment's SDW points at a page table instead of the data; each
// page table word (PTW) maps one kPageWords-sized page to a frame in the
// core store. Access control (flags, brackets, gates, bound) stays in the
// SDW — paging affects only the final address resolution, which is
// exactly the transparency the paper asserts and the paging tests verify.
#ifndef SRC_MEM_PAGE_TABLE_H_
#define SRC_MEM_PAGE_TABLE_H_

#include <optional>
#include <vector>

#include "src/base/bitfield.h"
#include "src/mem/physical_memory.h"
#include "src/mem/word.h"

namespace rings {

inline constexpr unsigned kPageShift = 10;
inline constexpr uint64_t kPageWords = uint64_t{1} << kPageShift;  // 1024, as on Multics
inline constexpr uint64_t kPageMask = kPageWords - 1;

// Number of pages needed to back `words` of segment.
constexpr uint64_t PageCount(uint64_t words) { return (words + kPageWords - 1) / kPageWords; }

struct Ptw {
  bool present = false;
  AbsAddr frame = 0;  // absolute address of the page's first word

  bool operator==(const Ptw&) const = default;
};

// The PTW's fields: the present bit on top, the frame address below.
inline constexpr unsigned kPtwPresentShift = 63;
inline constexpr unsigned kPtwFrameWidth = 40;

Word EncodePtw(const Ptw& ptw);
// Inline: every paged reference decodes its PTW.
inline Ptw DecodePtw(Word word) {
  return Ptw{ExtractBits(word, kPtwPresentShift, 1) != 0, ExtractBits(word, 0, kPtwFrameWidth)};
}

// The address of the PTW that maps `wordno` of the segment whose page
// table starts at `table_base`, and the absolute address of `wordno` in
// the frame a present PTW maps: the two halves of every translation.
constexpr AbsAddr PtwAddress(AbsAddr table_base, uint64_t wordno) {
  return table_base + (wordno >> kPageShift);
}
constexpr AbsAddr FrameAddress(const Ptw& ptw, uint64_t wordno) {
  return ptw.frame + (wordno & kPageMask);
}

// Allocates a page table of `pages` PTWs (all absent) in `memory`;
// returns its base address.
std::optional<AbsAddr> AllocatePageTable(PhysicalMemory* memory, uint64_t pages);

// Allocates a frame and installs it as page `page` of the table at
// `table_base`. The frame is zero-filled. Returns the frame address.
std::optional<AbsAddr> InstallZeroPage(PhysicalMemory* memory, AbsAddr table_base, uint64_t page);

}  // namespace rings

#endif  // SRC_MEM_PAGE_TABLE_H_
