#include "src/sup/segment_registry.h"

#include "src/base/strings.h"
#include "src/isa/indirect_word.h"
#include "src/mem/page_table.h"

namespace rings {

std::optional<Segno> SegmentRegistry::CreateSegment(const std::string& name, uint64_t words,
                                                    AccessControlList acl) {
  return CreateSegmentWithContents(name, {}, words, 0, std::move(acl));
}

std::optional<Segno> SegmentRegistry::CreateSegmentWithContents(const std::string& name,
                                                                const std::vector<Word>& contents,
                                                                uint64_t extra_zero,
                                                                uint32_t gate_count,
                                                                AccessControlList acl) {
  if (by_name_.count(name) != 0) {
    return std::nullopt;
  }
  const uint64_t bound = contents.size() + extra_zero;
  if (bound > kMaxSegmentWords) {
    return std::nullopt;
  }
  // Zero-length segments still get one slot of backing store so that the
  // SDW base is meaningful.
  const auto base = memory_->Allocate(bound == 0 ? 1 : bound);
  if (!base.has_value()) {
    return std::nullopt;
  }
  for (size_t i = 0; i < contents.size(); ++i) {
    memory_->Write(*base + i, contents[i]);
  }
  for (uint64_t i = contents.size(); i < bound; ++i) {
    memory_->Write(*base + i, 0);
  }

  RegisteredSegment seg;
  seg.name = name;
  seg.segno = next_segno_++;
  seg.base = *base;
  seg.bound = bound;
  seg.gate_count = gate_count;
  seg.acl = std::move(acl);
  by_name_[name] = segments_.size();
  segments_.push_back(std::move(seg));
  return segments_.back().segno;
}

std::optional<Segno> SegmentRegistry::CreatePagedSegment(const std::string& name, uint64_t words,
                                                         AccessControlList acl, bool populate,
                                                         const std::vector<Word>& contents) {
  if (by_name_.count(name) != 0 || words > kMaxSegmentWords || contents.size() > words) {
    return std::nullopt;
  }
  const uint64_t pages = PageCount(words == 0 ? 1 : words);
  const auto table = AllocatePageTable(memory_, pages);
  if (!table.has_value()) {
    return std::nullopt;
  }
  if (populate || !contents.empty()) {
    const uint64_t needed = populate ? pages : PageCount(contents.size());
    for (uint64_t p = 0; p < needed; ++p) {
      if (!InstallZeroPage(memory_, *table, p).has_value()) {
        return std::nullopt;
      }
    }
    for (size_t i = 0; i < contents.size(); ++i) {
      const Ptw ptw = DecodePtw(memory_->Read(PtwAddress(*table, i)));
      memory_->Write(FrameAddress(ptw, i), contents[i]);
    }
  }

  RegisteredSegment seg;
  seg.name = name;
  seg.segno = next_segno_++;
  seg.base = *table;
  seg.paged = true;
  seg.bound = words;
  seg.acl = std::move(acl);
  by_name_[name] = segments_.size();
  segments_.push_back(std::move(seg));
  return segments_.back().segno;
}

bool SegmentRegistry::LoadProgram(const Program& program,
                                  const std::map<std::string, AccessControlList>& acls,
                                  std::string* error) {
  // First register every segment so that patches can refer to any of them
  // regardless of order.
  for (const AssembledSegment& seg : program.segments) {
    const auto acl_it = acls.find(seg.name);
    if (acl_it == acls.end()) {
      *error = "no access control list supplied for segment " + seg.name;
      return false;
    }
    const auto segno = CreateSegmentWithContents(seg.name, seg.words, seg.reserve_words,
                                                 seg.gate_count, acl_it->second);
    if (!segno.has_value()) {
      *error = "cannot register segment " + seg.name + " (duplicate name or memory exhausted)";
      return false;
    }
    segments_.back().symbols = seg.symbols;
  }

  // Resolve .its patches; record .link patches for lazy snapping.
  for (const AssembledSegment& seg : program.segments) {
    RegisteredSegment* reg = FindMutable(seg.name);
    for (const ItsPatch& patch : seg.patches) {
      if (patch.dynamic) {
        // Dynamic link: emit a fault-tagged word carrying (owner segno,
        // link index); the supervisor resolves the symbolic target on
        // first reference, so it may name a segment registered later.
        const Wordno index = static_cast<Wordno>(reg->links.size());
        reg->links.push_back(LinkTarget{patch.target_segment, patch.target_symbol,
                                        patch.target_offset, patch.ring, patch.indirect});
        const IndirectWord fault{patch.ring, false, reg->segno, index, /*fault=*/true};
        memory_->Write(reg->base + patch.wordno, EncodeIndirectWord(fault));
        continue;
      }
      const RegisteredSegment* target = Find(patch.target_segment);
      if (target == nullptr) {
        *error = StrFormat("segment %s: .its refers to unknown segment %s", seg.name.c_str(),
                           patch.target_segment.c_str());
        return false;
      }
      int64_t wordno = patch.target_offset;
      if (!patch.target_symbol.empty()) {
        const auto sym = target->symbols.find(patch.target_symbol);
        if (sym == target->symbols.end()) {
          *error = StrFormat("segment %s: .its refers to unknown symbol %s$%s", seg.name.c_str(),
                             patch.target_segment.c_str(), patch.target_symbol.c_str());
          return false;
        }
        wordno += sym->second;
      }
      if (wordno < 0 || wordno > kMaxWordno) {
        *error = StrFormat("segment %s: .its offset out of range", seg.name.c_str());
        return false;
      }
      const IndirectWord iw{patch.ring, patch.indirect, target->segno,
                            static_cast<Wordno>(wordno)};
      memory_->Write(reg->base + patch.wordno, EncodeIndirectWord(iw));
    }
  }
  return true;
}

const RegisteredSegment* SegmentRegistry::Find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &segments_[it->second];
}

RegisteredSegment* SegmentRegistry::FindMutable(const std::string& name) {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &segments_[it->second];
}

const RegisteredSegment* SegmentRegistry::FindBySegno(Segno segno) const {
  for (const RegisteredSegment& seg : segments_) {
    if (seg.segno == segno) {
      return &seg;
    }
  }
  return nullptr;
}

RegisteredSegment* SegmentRegistry::FindMutableBySegno(Segno segno) {
  for (RegisteredSegment& seg : segments_) {
    if (seg.segno == segno) {
      return &seg;
    }
  }
  return nullptr;
}

std::optional<SegAddr> SegmentRegistry::Resolve(const std::string& segment,
                                                const std::string& symbol) const {
  const RegisteredSegment* seg = Find(segment);
  if (seg == nullptr) {
    return std::nullopt;
  }
  Wordno wordno = 0;
  if (!symbol.empty()) {
    const auto it = seg->symbols.find(symbol);
    if (it == seg->symbols.end()) {
      return std::nullopt;
    }
    wordno = it->second;
  }
  return SegAddr{seg->segno, wordno};
}

}  // namespace rings
