#include "src/mem/physical_memory.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rings {

namespace {

// The immortal zero frame: every never-written frame of every store reads
// from this one block of zeros. Never refcounted, never freed.
const Word kZeroFrameWords[PhysicalMemory::kFrameWords] = {};

}  // namespace

// Refcounted frame storage. refs counts the stores aliasing this frame;
// the last decref frees it. incref is relaxed (the holder already owns a
// reference, so publication is ordered by whatever handed the pointer
// over); decref is acq_rel so the delete observes every write made
// through any alias.
struct PhysicalMemory::Frame {
  std::atomic<uint32_t> refs{1};
  Word words[kFrameWords];

  static Frame* NewZeroed() {
    Frame* f = new Frame;
    std::memset(f->words, 0, sizeof(f->words));
    return f;
  }
  static Frame* NewCopy(const Word* src) {
    Frame* f = new Frame;
    std::memcpy(f->words, src, sizeof(f->words));
    return f;
  }
  static void Unref(Frame* f) {
    if (f->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete f;
    }
  }
};

PhysicalMemory::PhysicalMemory(size_t size_words) : size_words_(size_words) {
  const size_t frame_count = (size_words + kFrameWords - 1) >> kFrameShift;
  frames_.assign(frame_count, nullptr);
  read_frames_.assign(frame_count, kZeroFrameWords);
  write_frames_.assign(frame_count, nullptr);
}

PhysicalMemory::PhysicalMemory(const PhysicalMemory& parent, CowClone)
    : size_words_(parent.size_words_),
      next_free_(parent.next_free_),
      policy_(parent.policy_),
      latched_fault_(parent.latched_fault_),
      fault_count_(parent.fault_count_) {
  parent.SealForCloning();
  frames_ = parent.frames_;
  read_frames_ = parent.read_frames_;
  write_frames_.assign(frames_.size(), nullptr);
  for (Frame* frame : frames_) {
    if (frame != nullptr) {
      frame->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

PhysicalMemory::~PhysicalMemory() {
  for (Frame* frame : frames_) {
    if (frame != nullptr) {
      Frame::Unref(frame);
    }
  }
}

void PhysicalMemory::SealForCloning() const {
  // Acquire pairs with the release below: once one seal has dropped the
  // write tables, later seals (e.g. from every concurrent clone of a
  // shared golden image) are pure reads of the flag.
  if (sealed_.load(std::memory_order_acquire)) {
    return;
  }
  for (Word*& slot : write_frames_) {
    slot = nullptr;
  }
  sealed_.store(true, std::memory_order_release);
}

Word* PhysicalMemory::Privatize(size_t frame_index) {
  Frame* owned = frames_[frame_index];
  if (owned == nullptr) {
    // First store into a zero frame: materialize private zeroed storage.
    owned = Frame::NewZeroed();
  } else if (owned->refs.load(std::memory_order_acquire) > 1) {
    // Shared with a clone or parent: copy, then drop our alias reference.
    Frame* copy = Frame::NewCopy(owned->words);
    Frame::Unref(owned);
    owned = copy;
  }
  // else: exclusively owned already, merely sealed — re-expose in place.
  frames_[frame_index] = owned;
  read_frames_[frame_index] = owned->words;
  write_frames_[frame_index] = owned->words;
  sealed_.store(false, std::memory_order_relaxed);
  ++frames_privatized_;
  return owned->words;
}

void PhysicalMemory::LatchFault(AbsAddr addr, bool write) const {
  if (policy_ == OutOfRangePolicy::kAbort) {
    std::fprintf(stderr, "PhysicalMemory::%s out of range: %llu >= %zu\n",
                 write ? "Write" : "Read", static_cast<unsigned long long>(addr),
                 size_words_);
    std::abort();
  }
  ++fault_count_;
  if (!latched_fault_.has_value()) {
    latched_fault_ = MemoryFault{addr, write};
  }
}

std::optional<AbsAddr> PhysicalMemory::Allocate(size_t words) {
  if (next_free_ + words > size_words_) {
    return std::nullopt;
  }
  const AbsAddr base = next_free_;
  next_free_ += words;
  return base;
}

PhysicalMemory::FrameStats PhysicalMemory::frame_stats() const {
  FrameStats stats;
  stats.frames = frames_.size();
  for (const Frame* frame : frames_) {
    if (frame == nullptr) {
      ++stats.zero_frames;
    } else if (frame->refs.load(std::memory_order_relaxed) > 1) {
      ++stats.shared_frames;
    } else {
      ++stats.private_frames;
    }
  }
  return stats;
}

void PhysicalMemory::RestoreContents(PhysicalMemory&& staged) {
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame* incoming = staged.frames_[i];
    if (incoming == frames_[i]) {
      continue;  // both zero, or the very same frame
    }
    const size_t count = std::min(kFrameWords, size_words_ - (i << kFrameShift));
    if (std::memcmp(staged.read_frames_[i], read_frames_[i], count * sizeof(Word)) == 0) {
      continue;  // unchanged frame stays shared (restore-into-clone fast path)
    }
    if (frames_[i] != nullptr) {
      Frame::Unref(frames_[i]);
    }
    frames_[i] = incoming;
    if (incoming == nullptr) {
      read_frames_[i] = kZeroFrameWords;
      write_frames_[i] = nullptr;
      continue;
    }
    staged.frames_[i] = nullptr;
    staged.read_frames_[i] = kZeroFrameWords;
    staged.write_frames_[i] = nullptr;
    read_frames_[i] = incoming->words;
    // A staged frame is exclusively owned unless the staging store was
    // itself cloned; a shared one stays read-only and privatizes on write.
    write_frames_[i] =
        incoming->refs.load(std::memory_order_acquire) == 1 ? incoming->words : nullptr;
    sealed_.store(false, std::memory_order_relaxed);
    ++frames_privatized_;
  }
}

}  // namespace rings
