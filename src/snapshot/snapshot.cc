#include "src/snapshot/snapshot.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <optional>
#include <utility>

#include "src/base/strings.h"
#include "src/core/ring.h"
#include "src/snapshot/schema.h"

namespace rings {

namespace {

// --------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — table-driven, no dependencies.
// --------------------------------------------------------------------------

uint32_t Crc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

constexpr uint32_t ByteSwap32(uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
}

// --------------------------------------------------------------------------
// Image layout.
//
// Header (16 bytes): magic u32, version u32, section count u32, CRC-32 of
// the first 12 bytes. Then `section count` sections, each framed as
// id u32, payload length u64, payload CRC-32 u32, payload bytes. No
// padding, no trailing bytes. Section payloads are the field lists of
// src/snapshot/schema.h.
// --------------------------------------------------------------------------

// An image section: its id in the section table, and its name in errors.
struct Section {
  uint32_t id;
  const char* name;
};
constexpr Section kMetaSection{1, "meta"};
constexpr Section kMemorySection{2, "memory"};
constexpr Section kCpuSection{3, "cpu"};
constexpr Section kRegistrySection{4, "registry"};
constexpr Section kSupervisorSection{5, "supervisor"};
constexpr Section kTraceSection{6, "trace"};
constexpr Section kFaultSection{7, "fault"};
constexpr Section kDeviceSection{8, "device"};
constexpr uint32_t kNumSections = 8;
constexpr size_t kHeaderBytes = 16;
constexpr size_t kSectionFrameBytes = 4 + 8 + 4;

// The sections after meta and memory, in image order, each with the
// Machine::State member it carries.
template <class Fn>
bool ForEachStateSection(Machine::State& state, Fn&& fn) {
  return fn(kCpuSection, state.cpu) && fn(kRegistrySection, state.registry) &&
         fn(kSupervisorSection, state.supervisor) && fn(kTraceSection, state.trace) &&
         fn(kFaultSection, state.fault) && fn(kDeviceSection, state.device);
}

// --------------------------------------------------------------------------
// Archives over the schema's field lists: a byte-explicit little-endian
// writer and a bounds-checked validating reader. Every reader failure
// carries a structured message; the reader never indexes past the buffer.
// --------------------------------------------------------------------------

uint64_t LoadLe(const uint8_t* data, size_t bytes) {
  uint64_t v = 0;
  for (size_t i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(data[i]) << (8 * i);
  }
  return v;
}

template <class C>
struct ListElement {
  using type = typename C::value_type;
};
template <class K, class V>
struct ListElement<std::map<K, V>> {
  using type = std::pair<K, V>;  // the key stays assignable while decoding
};

class Writer : public Visits<Writer> {
 public:
  using Visits::List;

  template <class T>
  void Int(const T& v, size_t bytes) {
    for (size_t i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<uint8_t>(static_cast<uint64_t>(v) >> (8 * i)));
    }
  }
  template <class T>
  void Ranged(const T& v, size_t bytes, uint64_t, const char*) {
    Int(v, bytes);
  }
  void HostU64(uint64_t v) { Int(v, 8); }
  void Str(const std::string& s) {
    Int(s.size(), 8);
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void Fixed(size_t n, const char*) { Int(n, 4); }
  void Bits(bool a, bool b, bool c) { Int((a ? 1u : 0u) | (b ? 2u : 0u) | (c ? 4u : 0u), 1); }
  template <class C, class Visit>
  void List(C& c, Visit visit) {
    Int(c.size(), 8);
    for (auto& element : c) {
      visit(element);
    }
  }
  template <class T>
  void Optional(std::optional<T>& o) {
    Int(o.has_value(), 1);
    if (o.has_value()) {
      Fields(*this, *o);
    }
  }
  template <class Why>
  void Check(const Why&) {}

  // Encodes `state` through its field list. A writer only reads the
  // fields it visits, so the const_cast never leads to a store.
  template <class T>
  void Put(const T& state) {
    Fields(*this, const_cast<T&>(state));
  }

  const std::vector<uint8_t>& buf() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

class Reader : public Visits<Reader> {
 public:
  using Visits::List;

  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <class T>
  void Int(T& v, size_t bytes) {
    v = static_cast<T>(Le(bytes));
  }
  template <class T>
  void Ranged(T& v, size_t bytes, uint64_t last, const char* what) {
    const uint64_t raw = Le(bytes);
    if (ok_ && raw > last) {
      Fail(StrFormat("%s %llu out of range", what, static_cast<unsigned long long>(raw)));
      return;
    }
    v = static_cast<T>(raw);
  }
  void HostU64(uint64_t& v) { Int(v, 8); }
  void Str(std::string& s) {
    const uint64_t len = Le(8);
    if (!ok_) {
      return;
    }
    if (len > size_ - pos_) {
      Fail(StrFormat("string length %llu exceeds remaining payload",
                     static_cast<unsigned long long>(len)));
      return;
    }
    s.assign(reinterpret_cast<const char*>(data_ + pos_), static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
  }
  void Fixed(size_t n, const char* what) {
    const uint64_t raw = Le(4);
    if (ok_ && raw != n) {
      Fail(StrFormat("%s %llu does not match this build's %zu", what,
                     static_cast<unsigned long long>(raw), n));
    }
  }
  void Bits(bool& a, bool& b, bool& c) {
    const uint64_t bits = Le(1);
    a = (bits & 1u) != 0;
    b = (bits & 2u) != 0;
    c = (bits & 4u) != 0;
  }
  // The count is untrusted, so nothing is reserved from it: every element
  // consumes payload bytes, and a count past the payload fails as
  // truncated after at most one element per remaining byte.
  template <class C, class Visit>
  void List(C& c, Visit visit) {
    const uint64_t count = Le(8);
    for (uint64_t i = 0; i < count && ok_; ++i) {
      typename ListElement<C>::type element{};
      visit(element);
      c.insert(c.end(), std::move(element));
    }
  }
  template <class T>
  void Optional(std::optional<T>& o) {
    o.reset();
    if (Le(1) != 0) {
      Fields(*this, o.emplace());
    }
  }
  template <class Why>
  void Check(const Why& why) {
    if (ok_) {
      std::string problem = why();
      if (!problem.empty()) {
        Fail(std::move(problem));
      }
    }
  }

  bool ok() const { return ok_; }
  void Fail(std::string message) {
    if (ok_) {
      ok_ = false;
      error_ = std::move(message);
    }
  }
  // Rejects leftover payload; on any failure *error names the section.
  bool Finish(Section section, std::string* error) {
    if (ok_ && pos_ != size_) {
      Fail("unconsumed payload bytes");
    }
    if (!ok_ && error != nullptr) {
      *error = StrFormat("section %u (%s): %s", section.id, section.name, error_.c_str());
    }
    return ok_;
  }

 private:
  // Reads `bytes` little-endian bytes; 0 once failed or truncated.
  uint64_t Le(size_t bytes) {
    if (!ok_) {
      return 0;
    }
    if (size_ - pos_ < bytes) {
      Fail("payload truncated");
      return 0;
    }
    pos_ += bytes;
    return LoadLe(data_ + pos_ - bytes, bytes);
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

template <class T>
std::vector<uint8_t> Encode(const T& state) {
  Writer w;
  w.Put(state);
  return w.Take();
}

struct SectionSpan {
  const uint8_t* data = nullptr;
  size_t size = 0;
  bool present = false;
};
using SectionSpans = std::array<SectionSpan, kNumSections>;

template <class T>
bool Decode(const SectionSpans& spans, Section section, T* state, std::string* error) {
  const SectionSpan& span = spans[section.id - 1];
  Reader r(span.data, span.size);
  Fields(r, *state);
  return r.Finish(section, error);
}

void AppendSection(std::vector<uint8_t>* image, Section section,
                   const std::vector<uint8_t>& payload) {
  Writer frame;
  frame.Int(section.id, 4);
  frame.Int(payload.size(), 8);
  frame.Int(Crc32(payload.data(), payload.size()), 4);
  image->insert(image->end(), frame.buf().begin(), frame.buf().end());
  image->insert(image->end(), payload.begin(), payload.end());
}

// Header + section-table walk shared by VerifySnapshot and the decoders.
// Fills `spans` (indexed by section id - 1) when non-null.
bool WalkImage(const uint8_t* data, size_t size, SectionSpans* spans, std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };
  if (size < kHeaderBytes) {
    return fail(StrFormat("image truncated: %zu bytes, header needs %zu", size, kHeaderBytes));
  }
  const uint32_t magic = static_cast<uint32_t>(LoadLe(data, 4));
  const uint32_t version = static_cast<uint32_t>(LoadLe(data + 4, 4));
  const uint32_t section_count = static_cast<uint32_t>(LoadLe(data + 8, 4));
  const uint32_t header_crc = static_cast<uint32_t>(LoadLe(data + 12, 4));
  if (magic != kSnapshotMagic) {
    if (magic == ByteSwap32(kSnapshotMagic)) {
      return fail("wrong-endian image (magic is byte-swapped)");
    }
    return fail(StrFormat("bad magic 0x%08x (expected 0x%08x)", magic, kSnapshotMagic));
  }
  if (version != kSnapshotVersion) {
    return fail(StrFormat("unsupported snapshot version %u (expected %u)", version,
                          kSnapshotVersion));
  }
  if (header_crc != Crc32(data, 12)) {
    return fail("header CRC mismatch");
  }
  if (section_count != kNumSections) {
    return fail(StrFormat("unexpected section count %u (expected %u)", section_count,
                          kNumSections));
  }
  size_t pos = kHeaderBytes;
  for (uint32_t s = 0; s < section_count; ++s) {
    if (size - pos < kSectionFrameBytes) {
      return fail(StrFormat("image truncated in section table (section %u of %u)", s + 1,
                            section_count));
    }
    const uint32_t id = static_cast<uint32_t>(LoadLe(data + pos, 4));
    const uint64_t length = LoadLe(data + pos + 4, 8);
    const uint32_t crc = static_cast<uint32_t>(LoadLe(data + pos + 12, 4));
    pos += kSectionFrameBytes;
    if (id == 0 || id > kNumSections) {
      return fail(StrFormat("unknown section id %u", id));
    }
    if (length > size - pos) {
      return fail(StrFormat("section %u truncated: %llu payload bytes declared, %zu remain", id,
                            static_cast<unsigned long long>(length), size - pos));
    }
    if (crc != Crc32(data + pos, static_cast<size_t>(length))) {
      return fail(StrFormat("section %u payload CRC mismatch", id));
    }
    if (spans != nullptr) {
      SectionSpan& span = (*spans)[id - 1];
      if (span.present) {
        return fail(StrFormat("duplicate section id %u", id));
      }
      span = SectionSpan{data + pos, static_cast<size_t>(length), true};
    }
    pos += static_cast<size_t>(length);
  }
  if (pos != size) {
    return fail(StrFormat("trailing bytes after last section (%zu of %zu consumed)", pos, size));
  }
  if (spans != nullptr) {
    for (uint32_t id = 1; id <= kNumSections; ++id) {
      if (!(*spans)[id - 1].present) {
        return fail(StrFormat("missing section id %u", id));
      }
    }
  }
  return true;
}

// --------------------------------------------------------------------------
// The memory section: the store's bookkeeping (its field list), then the
// store's size and its words as zero-run RLE — the typical machine
// allocates a few hundred K words out of a multi-megaword store, so images
// stay compact. Both directions work frame by frame, so they cost
// O(image + touched frames), not O(store): the encoder skips a
// never-written frame in one step, and the decoder writes only non-zero
// words, so only their frames materialize.
// --------------------------------------------------------------------------

std::vector<uint8_t> EncodeMemory(const PhysicalMemory& memory,
                                  const PhysicalMemory::State& state) {
  constexpr size_t kShift = PhysicalMemory::kFrameShift;
  constexpr size_t kMask = PhysicalMemory::kFrameMask;
  const auto word = [&memory](size_t addr) -> Word {
    const Word* frame = memory.frame(addr >> kShift);
    return frame == nullptr ? 0 : frame[addr & kMask];
  };
  Writer w;
  w.Put(state);
  const size_t size = memory.size();
  w.Int(size, 8);
  size_t i = 0;
  while (i < size) {
    size_t j = i;
    if (word(i) == 0) {
      // Runs merge across frame boundaries, so the bytes do not depend on
      // which frames happen to be materialized.
      while (j < size) {
        const Word* frame = memory.frame(j >> kShift);
        if (frame == nullptr) {
          j = std::min(size, (j | kMask) + 1);  // the rest of a zero frame
        } else if (frame[j & kMask] == 0) {
          ++j;
        } else {
          break;
        }
      }
      w.Int(0, 1);
      w.Int(j - i, 8);
    } else {
      while (j < size && word(j) != 0) {
        ++j;
      }
      w.Int(1, 1);
      w.Int(j - i, 8);
      for (size_t k = i; k < j; ++k) {
        w.Int(word(k), 8);
      }
    }
    i = j;
  }
  return w.Take();
}

// Decodes into `staged`, a zero store of the machine's size. The image's
// word count is checked against the machine before anything is written.
bool DecodeMemory(const SectionSpans& spans, PhysicalMemory::State* state,
                  PhysicalMemory* staged, std::string* error) {
  const SectionSpan& span = spans[kMemorySection.id - 1];
  Reader r(span.data, span.size);
  Fields(r, *state);
  uint64_t words = 0;
  r.U64(words);
  if (r.ok() && words != staged->size()) {
    r.Fail(StrFormat("memory section carries %llu words for a %zu-word machine",
                     static_cast<unsigned long long>(words), staged->size()));
  }
  uint64_t filled = 0;
  while (r.ok() && filled < words) {
    uint8_t tag = 0;
    uint64_t count = 0;
    r.U8(tag);
    r.U64(count);
    if (!r.ok()) {
      break;
    }
    if (count == 0 || count > words - filled) {
      r.Fail(StrFormat("memory run of %llu words overflows the %llu-word store",
                       static_cast<unsigned long long>(count),
                       static_cast<unsigned long long>(words)));
      break;
    }
    if (tag == 1) {
      for (uint64_t k = 0; k < count && r.ok(); ++k) {
        Word value = 0;
        r.U64(value);
        if (value != 0) {
          staged->Write(static_cast<AbsAddr>(filled + k), value);
        }
      }
    } else if (tag != 0) {  // a zero run writes nothing
      r.Fail(StrFormat("unknown memory run tag %u", tag));
      break;
    }
    filled += count;
  }
  return r.Finish(kMemorySection, error);
}

}  // namespace

// --------------------------------------------------------------------------
// Public API.
// --------------------------------------------------------------------------

bool SaveSnapshot(const Machine& machine, std::vector<uint8_t>* out, std::string* error,
                  FaultInjector* write_injector) {
  if (!machine.ok()) {
    if (error != nullptr) {
      *error = "machine failed construction; nothing to snapshot";
    }
    return false;
  }
  Writer header;
  header.Int(kSnapshotMagic, 4);
  header.Int(kSnapshotVersion, 4);
  header.Int(kNumSections, 4);
  header.Int(Crc32(header.buf().data(), header.buf().size()), 4);
  *out = header.Take();
  Machine::State state = machine.CaptureState();
  AppendSection(out, kMetaSection, Encode(state.meta));
  AppendSection(out, kMemorySection, EncodeMemory(machine.memory(), state.memory));
  ForEachStateSection(state, [out](Section section, const auto& member) {
    AppendSection(out, section, Encode(member));
    return true;
  });
  if (write_injector != nullptr) {
    size_t byte_index = 0;
    uint8_t mask = 0;
    if (write_injector->MaybeCorruptSnapshotWrite(machine.cpu().cycles(), out->size(),
                                                  &byte_index, &mask)) {
      (*out)[byte_index] ^= mask;
    }
  }
  return true;
}

bool VerifySnapshot(const uint8_t* data, size_t size, std::string* error) {
  SectionSpans spans{};
  return WalkImage(data, size, &spans, error);
}

bool PeekSnapshotMeta(const uint8_t* data, size_t size, SnapshotMeta* meta, std::string* error) {
  SectionSpans spans{};
  return WalkImage(data, size, &spans, error) && Decode(spans, kMetaSection, meta, error);
}

bool RestoreSnapshot(const uint8_t* data, size_t size, Machine* machine, std::string* error,
                     FaultInjector* read_injector) {
  // A simulated read fault damages the image on its way in; the CRC pass
  // below then rejects it with a structured error, exactly as a real
  // corrupted checkpoint read would present.
  std::vector<uint8_t> damaged;
  if (read_injector != nullptr && size > 0) {
    size_t byte_index = 0;
    uint8_t mask = 0;
    if (read_injector->MaybeCorruptSnapshotRead(machine->cpu().cycles(), size, &byte_index,
                                                &mask)) {
      damaged.assign(data, data + size);
      damaged[byte_index] ^= mask;
      data = damaged.data();
    }
  }

  SectionSpans spans{};
  if (!WalkImage(data, size, &spans, error)) {
    return false;
  }
  auto reject = [error](std::string message) {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return false;
  };

  // Decode and check everything host-side first: an invalid image is
  // rejected before any machine state changes. The machine's shape is
  // checked before the memory section is decoded into a staging store of
  // the machine's size, which allocates only the frames the image writes.
  Machine::State state;
  if (!Decode(spans, kMetaSection, &state.meta, error)) {
    return false;
  }
  if (!machine->ok()) {
    return reject("target machine failed construction");
  }
  const size_t machine_words = machine->memory().size();
  if (state.meta.memory_words != machine_words) {
    return reject(StrFormat("image memory size %llu words does not match machine's %zu",
                            static_cast<unsigned long long>(state.meta.memory_words),
                            machine_words));
  }
  if (!(state.meta.cycle_model == machine->config().cycle_model)) {
    return reject("image cycle model does not match the machine's (trajectories would diverge)");
  }
  PhysicalMemory staged(machine_words);
  if (!DecodeMemory(spans, &state.memory, &staged, error) ||
      !ForEachStateSection(state, [&spans, error](Section section, auto& member) {
        return Decode(spans, section, &member, error);
      })) {
    return false;
  }

  machine->memory().RestoreContents(std::move(staged));
  machine->RestoreState(std::move(state));
  return true;
}

bool SaveSnapshotFile(const Machine& machine, const std::string& path, std::string* error,
                      FaultInjector* write_injector) {
  std::vector<uint8_t> image;
  if (!SaveSnapshot(machine, &image, error, write_injector)) {
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = StrFormat("cannot open '%s' for writing", path.c_str());
    }
    return false;
  }
  const size_t written = std::fwrite(image.data(), 1, image.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != image.size() || !closed) {
    if (error != nullptr) {
      *error = StrFormat("short write to '%s'", path.c_str());
    }
    return false;
  }
  return true;
}

bool ReadSnapshotFile(const std::string& path, std::vector<uint8_t>* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = StrFormat("cannot open '%s' for reading", path.c_str());
    }
    return false;
  }
  out->clear();
  std::array<uint8_t, 65536> chunk;
  size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    out->insert(out->end(), chunk.begin(), chunk.begin() + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    if (error != nullptr) {
      *error = StrFormat("read error on '%s'", path.c_str());
    }
    return false;
  }
  return true;
}

bool RestoreSnapshotFile(const std::string& path, Machine* machine, std::string* error,
                         FaultInjector* read_injector) {
  std::vector<uint8_t> image;
  if (!ReadSnapshotFile(path, &image, error)) {
    return false;
  }
  return RestoreSnapshot(image.data(), image.size(), machine, error, read_injector);
}

}  // namespace rings
