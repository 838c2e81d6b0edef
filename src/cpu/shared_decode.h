// Fleet-shared read-only decode: one pre-decoded image of a program's
// segments, built once per distinct program and shared by every machine
// that loads it. At fleet scale (src/fleet) N machines running the same
// guest previously re-decoded the same words N times into N private
// instruction caches; a SharedDecodeImage is keyed by program-image
// identity (an FNV-1a over segment names, gate counts, and words), built
// on first load, published read-only, and handed out by refcount from a
// process-wide registry, so the decode work and the decoded storage are
// paid once per program instead of once per machine.
//
// Ownership and the copy-on-write split: the image is immutable after
// publication — no generation stamps, no chain links, no per-machine
// statistics live in it. Everything mutable (insn/block/verdict caches,
// chain links, counters) stays private per Cpu. A machine consults the
// image only on the slow fetch path, and only after reading the live word
// from its own core store: the fetched word is compared against the
// image's raw word, and on any mismatch — self-modifying code, a snapped
// link, a loader patch — the machine falls back to live decode of its own
// word. That comparison IS the CoW split: a writer diverges from the
// image word-by-word without ever touching it, and its fleet siblings
// keep reading the shared copy untouched.
#ifndef SRC_CPU_SHARED_DECODE_H_
#define SRC_CPU_SHARED_DECODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/isa/instruction.h"
#include "src/mem/word.h"

namespace rings {

class SharedDecodeImage {
 public:
  struct Entry {
    Word raw = 0;            // the word the decode was made from
    Instruction ins{};       // its decode (valid only when decodable)
    bool decodable = false;  // false = the word raises kIllegalOpcode
  };
  struct Segment {
    std::string name;
    std::vector<Entry> words;
  };

  // Incremental construction, then publication. The Builder decodes each
  // word exactly once; after Publish the image is immutable and may be
  // shared across threads without synchronization.
  class Builder {
   public:
    Builder();
    void AddSegment(const std::string& name, const std::vector<Word>& words);
    // Freezes and returns the image; the Builder is spent afterwards.
    std::shared_ptr<const SharedDecodeImage> Publish(uint64_t identity);

   private:
    std::unique_ptr<SharedDecodeImage> image_;
  };

  const std::vector<Segment>& segments() const { return segments_; }
  const Segment* FindSegment(const std::string& name) const;
  uint64_t identity() const { return identity_; }
  // Host bytes held by the decoded tables (the storage shared decode
  // deduplicates across a fleet; reported by bench_fleet).
  size_t bytes() const;

 private:
  SharedDecodeImage() = default;

  std::vector<Segment> segments_;
  uint64_t identity_ = 0;
};

// Process-wide registry of published images, keyed by program-image
// identity. Thread-safe: fleet machine factories run concurrently on
// worker threads. Holds weak references only — when the last machine
// using an image is destroyed the image goes with it.
class SharedDecodeRegistry {
 public:
  static SharedDecodeRegistry& Instance();

  // Returns the published image for `identity`, building it with `build`
  // under the registry lock when no live image exists. `built` (optional)
  // reports whether this call did the build — the per-machine
  // shared_decode_builds counter, and the bench_fleet evidence that a
  // 12-machine fleet decodes each program once.
  std::shared_ptr<const SharedDecodeImage> Acquire(
      uint64_t identity,
      const std::function<std::shared_ptr<const SharedDecodeImage>()>& build,
      bool* built = nullptr);

  // Live (still-referenced) images; purges expired slots. For tests.
  size_t LiveImages();

  // RAII retention scope. The registry holds weak references only, so an
  // image normally dies with its last machine — but a fleet retires each
  // machine before constructing the next (bounding peak memory to one
  // retired member at a time), which would let every image expire in the
  // gap and force a rebuild per machine. While any Pin is alive the
  // registry also keeps a strong reference to every image Acquire hands
  // out; when the last Pin is released the retained references drop and
  // lifetime returns to the machines alone.
  class Pin {
   public:
    Pin();
    ~Pin();
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
  };

 private:
  std::mutex mu_;
  std::unordered_map<uint64_t, std::weak_ptr<const SharedDecodeImage>> images_;
  size_t pin_count_ = 0;
  // One strong reference per pinned identity, however often it is acquired.
  std::unordered_map<uint64_t, std::shared_ptr<const SharedDecodeImage>> pinned_;
};

}  // namespace rings

#endif  // SRC_CPU_SHARED_DECODE_H_
