// The absolute-addressed core store, plus a bump allocator for carving out
// segment storage. Storage for segments on the real machine was allocated
// with a paging scheme "in scattered fixed-length blocks"; the paper notes
// that paging, appropriately implemented, does not affect access control
// and ignores it, as do we: segments are contiguous in this store.
//
// The store itself is organized as fixed-size host frames with refcounted
// copy-on-write sharing. A machine cloned from a golden image (see
// src/fleet/golden_image.h) aliases the parent's frames read-only and
// privatizes a frame only on first store, so forking a booted+loaded
// machine costs O(page table), not O(memory). Frames that have never been
// written alias one immortal process-wide zero frame, so even cold
// construction of a multi-megaword store allocates no frame storage at
// all. All of this bookkeeping is host-only: reads and writes observe
// exactly the flat-array semantics the simulator always had, and none of
// the sharing state feeds fingerprints or sim_* counters.
#ifndef SRC_MEM_PHYSICAL_MEMORY_H_
#define SRC_MEM_PHYSICAL_MEMORY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/mem/word.h"

namespace rings {

// A latched out-of-range access. Out-of-range absolute addresses indicate a
// simulator bug or injected hardware fault; instead of aborting the host
// process, the store records the first offending access and lets the machine
// convert it into a simulated kMachineFault trap (the supervisor then kills
// the offending process rather than the whole machine).
struct MemoryFault {
  AbsAddr addr = 0;
  bool write = false;
};

class PhysicalMemory {
 public:
  // Host frame granularity: 4096 words (32 KiB) per frame. Frames are a
  // host sharing unit only — guest-visible paging (src/mem/page_table)
  // is independent of this size.
  static constexpr size_t kFrameShift = 12;
  static constexpr size_t kFrameWords = size_t{1} << kFrameShift;
  static constexpr size_t kFrameMask = kFrameWords - 1;
  static constexpr size_t kFrameBytes = kFrameWords * sizeof(Word);

  // Tag selecting the copy-on-write cloning constructor below.
  struct CowClone {};

  explicit PhysicalMemory(size_t size_words);

  // Copy-on-write clone: the new store aliases every frame of `parent`
  // read-only and privatizes a frame on its own first store. Seals the
  // parent first (see SealForCloning); cloning the same sealed parent from
  // multiple threads is safe, but cloning must not race with writes to the
  // parent (a golden image is sealed once and never run again).
  PhysicalMemory(const PhysicalMemory& parent, CowClone);

  // Takes `other`'s frames and bookkeeping; `other` is left a zero-word
  // store. This is how a staged store becomes a machine's own
  // (Machine::FromState).
  PhysicalMemory(PhysicalMemory&& other) noexcept;

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;
  ~PhysicalMemory();

  size_t size() const { return size_words_; }

  // Read/Write are the simulator's hottest calls (every simulated memory
  // reference lands here); they stay in the header so the in-range path
  // inlines to a bounds check plus a frame-table access. Writes take one
  // extra null check against the writable-frame table: a null entry means
  // the frame is shared (or still the zero frame) and the cold out-of-line
  // Privatize gives this store its own copy.
  Word Read(AbsAddr addr) const {
    if (addr >= size_words_) {
      LatchFault(addr, /*write=*/false);
      return 0;
    }
    return read_frames_[addr >> kFrameShift][addr & kFrameMask];
  }
  void Write(AbsAddr addr, Word value) {
    if (addr >= size_words_) {
      LatchFault(addr, /*write=*/true);
      return;
    }
    Word* frame = write_frames_[addr >> kFrameShift];
    if (frame == nullptr) {
      frame = Privatize(addr >> kFrameShift);
    }
    frame[addr & kFrameMask] = value;
  }

  // The oldest unconsumed out-of-range access, if any; consuming clears the
  // latch (later accesses re-arm it). fault_count() keeps the lifetime total.
  std::optional<MemoryFault> TakeFault() const {
    const auto fault = latched_fault_;
    latched_fault_.reset();
    return fault;
  }
  bool fault_pending() const { return latched_fault_.has_value(); }
  uint64_t fault_count() const { return fault_count_; }

  // Allocates `words` contiguous words; returns the base absolute address,
  // or nullopt when the store is exhausted.
  std::optional<AbsAddr> Allocate(size_t words);

  // Words handed out so far (for diagnostics and memory-usage reports).
  AbsAddr allocated() const { return next_free_; }

  // --- cloning support (src/fleet/golden_image) ---------------------------
  // Drops this store's write access to every owned frame so that clones
  // may alias them: subsequent writes re-privatize frame by frame.
  // Idempotent; called automatically by the cloning constructor and by
  // GoldenImage at registration (under the registry lock) so concurrent
  // Spawn() calls only ever read the sealed tables.
  void SealForCloning() const;

  // Host-side sharing diagnostics for the bench_fleet frame-share report.
  // None of this feeds fingerprints or sim_* counters.
  struct FrameStats {
    size_t frames = 0;          // total logical frames in the store
    size_t zero_frames = 0;     // still aliasing the immortal zero frame
    size_t shared_frames = 0;   // refcount > 1 (aliased by a clone/golden)
    size_t private_frames = 0;  // exclusively owned by this store
    size_t shared_bytes() const { return (zero_frames + shared_frames) * kFrameBytes; }
    size_t private_bytes() const { return private_frames * kFrameBytes; }
  };
  FrameStats frame_stats() const;
  // Lifetime count of frames this store privatized on write (shared-frame
  // copies plus zero-frame materializations).
  uint64_t frames_privatized() const { return frames_privatized_; }

  // --- machine state (Machine::CaptureState / RestoreState) -------------
  // The store's bookkeeping beyond its contents (a clone aliases the
  // contents; a snapshot image carries them in its memory section).
  struct State {
    AbsAddr next_free = 0;
    uint64_t fault_count = 0;
    std::optional<MemoryFault> latched_fault;
  };
  State CaptureState() const { return State{next_free_, fault_count_, latched_fault_}; }
  void RestoreState(const State& state) {
    next_free_ = state.next_free;
    fault_count_ = state.fault_count;
    latched_fault_ = state.latched_fault;
  }

  // --- snapshot support (src/snapshot) -----------------------------------
  // Frame-granular read access for image encoding: frame `index`'s words,
  // or nullptr while the frame still aliases the zero frame (so an encoder
  // can skip a whole never-written frame in O(1)). `index` must be below
  // the frame count, (size() + kFrameWords - 1) / kFrameWords; words of a
  // final partial frame at or past size() read as zero.
  const Word* frame(size_t index) const {
    return frames_[index] == nullptr ? nullptr : read_frames_[index];
  }
  // Replaces the store contents with `staged`'s, frame by frame. `staged`
  // must have size() words; a snapshot decoder fills it with only the
  // image's non-zero words, so only their frames exist. Per frame:
  //   - contents equal to this store's (same frame, or memcmp-equal): this
  //     store keeps its own frame, so restoring an image into a clone of
  //     the machine that took it keeps unchanged frames shared — the
  //     restore-into-clone fast path used by fleet checkpoint restarts;
  //   - a staged zero frame: this store's frame drops to the zero frame;
  //   - otherwise the staged frame moves in, privately owned and writable
  //     (counted in frames_privatized()).
  // Costs O(frame count + staged frames); `staged` is left all-zero.
  void RestoreContents(PhysicalMemory&& staged);

 private:
  struct Frame;  // refcounted frame storage, defined in the .cc

  void LatchFault(AbsAddr addr, bool write) const;
  // Gives this store an exclusively-owned, writable copy of frame `index`
  // and returns its word storage. Cold path: called at most once per frame
  // between seals.
  Word* Privatize(size_t frame_index);

  size_t size_words_ = 0;
  // frames_[i] == nullptr means frame i still aliases the immortal
  // process-wide zero frame (never refcounted, never freed).
  std::vector<Frame*> frames_;
  // Always-valid read pointers: either a frame's own words or the zero
  // frame's words.
  std::vector<const Word*> read_frames_;
  // Non-null only while the frame is exclusively owned AND unsealed;
  // mutable so SealForCloning() can drop write access from a const golden
  // machine (host bookkeeping, not logical store state).
  mutable std::vector<Word*> write_frames_;
  // True whenever every write_frames_ slot is null (fresh stores and
  // clones start sealed; Privatize unseals). Lets SealForCloning return
  // without touching the tables when there is nothing to drop, so
  // concurrent Spawn()s of one already-sealed golden never write to it.
  mutable std::atomic<bool> sealed_{true};
  uint64_t frames_privatized_ = 0;
  AbsAddr next_free_ = 0;
  // Mutable so that a const Read can latch: the latch models a hardware
  // fault indicator, not logical store state.
  mutable std::optional<MemoryFault> latched_fault_;
  mutable uint64_t fault_count_ = 0;
};

}  // namespace rings

#endif  // SRC_MEM_PHYSICAL_MEMORY_H_
