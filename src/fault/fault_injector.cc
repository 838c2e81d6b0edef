#include "src/fault/fault_injector.h"

#include "src/base/strings.h"

namespace rings {

std::string_view FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kSdwCorruption:
      return "sdw_corruption";
    case FaultSite::kSdwCacheDrop:
      return "sdw_cache_drop";
    case FaultSite::kIndirectRingCorruption:
      return "indirect_ring_corruption";
    case FaultSite::kSpuriousMissingPage:
      return "spurious_missing_page";
    case FaultSite::kIoDelay:
      return "io_delay";
    case FaultSite::kSnapshotWrite:
      return "snapshot_write";
    case FaultSite::kSnapshotRead:
      return "snapshot_read";
    case FaultSite::kNumSites:
      break;
  }
  return "invalid";
}

std::string FaultEvent::ToString() const {
  return StrFormat("#%llu cycle=%llu %s at %u|%u: %s",
                   static_cast<unsigned long long>(sequence),
                   static_cast<unsigned long long>(cycle),
                   std::string(FaultSiteName(site)).c_str(), segno, wordno, detail.c_str());
}

// Salt for the snapshot-site stream ("SNAPSHOT" in ASCII): derived from
// the same seed for reproducibility, but decoupled from the architectural
// stream so checkpoint writes never advance the guest-visible sequence.
constexpr uint64_t kSnapshotStreamSalt = 0x534E415053484F54ull;

FaultInjector::FaultInjector(FaultConfig config)
    : config_(config), rng_(config.seed), snapshot_rng_(config.seed ^ kSnapshotStreamSalt) {}

FaultInjector::State FaultInjector::CaptureState() const {
  State state;
  state.config = config_;
  state.rng = {rng_.state(0), rng_.state(1)};
  state.snapshot_rng = {snapshot_rng_.state(0), snapshot_rng_.state(1)};
  state.counts = counts_;
  state.sequence = sequence_;
  state.events = events_;
  return state;
}

void FaultInjector::RestoreState(State state) {
  config_ = state.config;
  rng_.set_state(state.rng[0], state.rng[1]);
  snapshot_rng_.set_state(state.snapshot_rng[0], state.snapshot_rng[1]);
  counts_ = state.counts;
  sequence_ = state.sequence;
  events_ = std::move(state.events);
}

bool FaultInjector::Roll(FaultSite site) {
  const uint32_t ppm = config_.rate(site);
  if (!config_.enabled || ppm == 0) {
    return false;
  }
  return rng_.Chance(ppm, 1'000'000);
}

void FaultInjector::Record(FaultSite site, uint64_t cycle, Segno segno, Wordno wordno,
                           std::string detail) {
  ++counts_[static_cast<size_t>(site)];
  if (events_.size() < kMaxLoggedEvents) {
    events_.push_back(FaultEvent{sequence_, site, cycle, segno, wordno, std::move(detail)});
  }
  ++sequence_;
}

bool FaultInjector::MaybeCorruptSdw(uint64_t cycle, Segno segno, Sdw* sdw) {
  if (!Roll(FaultSite::kSdwCorruption)) {
    return false;
  }
  // Restriction-only damage (see the header's fault model): the corrupted
  // descriptor can deny access it should grant, never grant access it
  // should deny.
  std::string detail;
  switch (rng_.Below(4)) {
    case 0:
      sdw->present = false;
      detail = "present bit cleared";
      break;
    case 1:
      sdw->access.flags = AccessFlags{};
      detail = "access flags cleared";
      break;
    case 2: {
      // Collapse R2 and R3 down onto R1. Lowering the tops shrinks the
      // read/execute brackets and empties the gate extension; lowering R1
      // itself would move the execute-bracket floor down and GRANT
      // execute access to lower rings, so R1 stays put.
      const Ring r1 = sdw->access.brackets.r1;
      sdw->access.brackets = Brackets{r1, r1, r1};
      detail = StrFormat("brackets collapsed to (%u,%u,%u)", r1, r1, r1);
      break;
    }
    default:
      sdw->bound /= 2;
      detail = StrFormat("bound halved to %llu", static_cast<unsigned long long>(sdw->bound));
      break;
  }
  Record(FaultSite::kSdwCorruption, cycle, segno, 0, std::move(detail));
  return true;
}

bool FaultInjector::MaybeDropCacheEntry(uint64_t cycle, size_t cache_entries,
                                        size_t* entry_index) {
  if (cache_entries == 0 || !Roll(FaultSite::kSdwCacheDrop)) {
    return false;
  }
  *entry_index = rng_.Below(cache_entries);
  Record(FaultSite::kSdwCacheDrop, cycle, 0, 0,
         StrFormat("cache entry %zu invalidated", *entry_index));
  return true;
}

bool FaultInjector::MaybeCorruptIndirectRing(uint64_t cycle, Segno segno, Wordno wordno,
                                             IndirectWord* iw) {
  if (iw->ring >= kMaxRing || !Roll(FaultSite::kIndirectRingCorruption)) {
    return false;
  }
  // Raise only: a raised ring field tightens validation (possibly causing a
  // spurious, attributable access violation); lowering it would grant.
  const Ring corrupted =
      static_cast<Ring>(rng_.Between(iw->ring + 1, kMaxRing));
  Record(FaultSite::kIndirectRingCorruption, cycle, segno, wordno,
         StrFormat("ring field %u -> %u", iw->ring, corrupted));
  iw->ring = corrupted;
  return true;
}

bool FaultInjector::MaybeSpuriousMissingPage(uint64_t cycle, Segno segno, Wordno wordno) {
  if (!Roll(FaultSite::kSpuriousMissingPage)) {
    return false;
  }
  Record(FaultSite::kSpuriousMissingPage, cycle, segno, wordno, "spurious missing-page trap");
  return true;
}

uint64_t FaultInjector::MaybeIoDelay(uint64_t cycle) {
  if (!Roll(FaultSite::kIoDelay)) {
    return 0;
  }
  const uint64_t delay = rng_.Between(1, 10'000);
  Record(FaultSite::kIoDelay, cycle, 0, 0,
         StrFormat("completion delayed %llu cycles", static_cast<unsigned long long>(delay)));
  return delay;
}

bool FaultInjector::MaybeCorruptSnapshotByte(FaultSite site, uint64_t cycle, size_t image_bytes,
                                             size_t* byte_index, uint8_t* xor_mask) {
  const uint32_t ppm = config_.rate(site);
  if (image_bytes == 0 || !config_.enabled || ppm == 0 ||
      !snapshot_rng_.Chance(ppm, 1'000'000)) {
    return false;
  }
  *byte_index = snapshot_rng_.Below(image_bytes);
  // A single-bit flip is the classic storage fault; the mask is always
  // nonzero so every injection actually damages the image.
  *xor_mask = static_cast<uint8_t>(1u << snapshot_rng_.Below(8));
  Record(site, cycle, 0, 0,
         StrFormat("image byte %zu xor 0x%02x", *byte_index, unsigned(*xor_mask)));
  return true;
}

bool FaultInjector::MaybeCorruptSnapshotWrite(uint64_t cycle, size_t image_bytes,
                                              size_t* byte_index, uint8_t* xor_mask) {
  return MaybeCorruptSnapshotByte(FaultSite::kSnapshotWrite, cycle, image_bytes, byte_index,
                                  xor_mask);
}

bool FaultInjector::MaybeCorruptSnapshotRead(uint64_t cycle, size_t image_bytes,
                                             size_t* byte_index, uint8_t* xor_mask) {
  return MaybeCorruptSnapshotByte(FaultSite::kSnapshotRead, cycle, image_bytes, byte_index,
                                  xor_mask);
}

uint64_t FaultInjector::total_injected() const {
  uint64_t total = 0;
  for (const uint64_t count : counts_) {
    total += count;
  }
  return total;
}

std::string FaultInjector::Summary() const {
  std::string out = StrFormat("faults injected: %llu",
                              static_cast<unsigned long long>(total_injected()));
  for (size_t i = 0; i < kNumFaultSites; ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    out += StrFormat(" %s=%llu",
                     std::string(FaultSiteName(static_cast<FaultSite>(i))).c_str(),
                     static_cast<unsigned long long>(counts_[i]));
  }
  return out;
}

}  // namespace rings
