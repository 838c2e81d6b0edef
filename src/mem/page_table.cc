#include "src/mem/page_table.h"

namespace rings {

Word EncodePtw(const Ptw& ptw) {
  Word w = 0;
  w = DepositBits(w, kPtwPresentShift, 1, ptw.present ? 1 : 0);
  w = DepositBits(w, 0, kPtwFrameWidth, ptw.frame);
  return w;
}

std::optional<AbsAddr> AllocatePageTable(PhysicalMemory* memory, uint64_t pages) {
  const auto base = memory->Allocate(pages == 0 ? 1 : pages);
  if (!base.has_value()) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < pages; ++i) {
    memory->Write(*base + i, EncodePtw(Ptw{}));
  }
  return base;
}

std::optional<AbsAddr> InstallZeroPage(PhysicalMemory* memory, AbsAddr table_base, uint64_t page) {
  const auto frame = memory->Allocate(kPageWords);
  if (!frame.has_value()) {
    return std::nullopt;
  }
  for (uint64_t i = 0; i < kPageWords; ++i) {
    memory->Write(*frame + i, 0);
  }
  memory->Write(table_base + page, EncodePtw(Ptw{true, *frame}));
  return frame;
}

}  // namespace rings
