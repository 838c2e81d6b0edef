// Verified snapshot/restore of complete architectural Machine state.
//
// A snapshot image captures everything the simulated machine can observe:
// the core store, the register file and internal processor state (TPR,
// pending trap, quantum timer), the architectural counters and trap
// array, the descriptor cache (timing-architectural: the cycle model
// charges a descriptor fetch only on a miss, so its contents and
// statistics are part of machine state), the segment registry, the
// supervisor's process table and scheduler, the event trace, the fault
// injector's stream, and the device layer (pending I/O completions, tty
// buffers). Host-only derived caches — verdicts, decoded instructions,
// the TLB, superblocks — are NOT serialized; restore flushes and rebuilds
// them, which is invisible to the simulation by the fast path's
// bit-identical contract.
//
// The restore contract is exact: a machine restored from a snapshot taken
// at a Machine::Run boundary produces the same FNV-1a fingerprint,
// counters, and trap sequence the live machine would have produced had it
// run uninterrupted (pinned by tests/snapshot/ across the slow, fast, and
// block engines and across fleet thread counts).
//
// Memory costs O(image + touched frames) in both directions, not O(store):
// the encoder skips never-written frames whole, and restore decodes into
// a staging store that materializes only the frames holding non-zero
// words, then commits it frame by frame (PhysicalMemory::RestoreContents).
//
// The image is versioned and section-checksummed (CRC-32); truncated,
// bit-flipped, or wrong-endian images are rejected with structured errors
// — never UB, never an abort. All multi-byte fields are written
// byte-explicitly little-endian, so images are portable across hosts.
// See DESIGN.md §8 for the format.
#ifndef SRC_SNAPSHOT_SNAPSHOT_H_
#define SRC_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sys/machine.h"

namespace rings {

// "RING" when the little-endian header is viewed byte-reversed; the
// byte-swapped value is recognized and rejected as wrong-endian.
inline constexpr uint32_t kSnapshotMagic = 0x52494E47u;
inline constexpr uint32_t kSnapshotVersion = 1;

// Machine-shape facts needed to construct a compatible Machine before
// restoring (ringsim --restore reads these without decoding the rest).
using SnapshotMeta = Machine::State::Meta;

// Serializes `machine` (which must be at a Machine::Run boundary — the
// fleet checkpoints between quanta, ringsim after Run returns). When
// `write_injector` is supplied, the kSnapshotWrite fault site may damage
// one byte of the produced image (the injector state serialized inside
// the image is captured before the roll). Returns false with a structured
// *error on failure.
bool SaveSnapshot(const Machine& machine, std::vector<uint8_t>* out, std::string* error,
                  FaultInjector* write_injector = nullptr);

// Validates magic, version, and every section CRC without touching a
// machine. This is the fleet's checkpoint verification step.
bool VerifySnapshot(const uint8_t* data, size_t size, std::string* error);
inline bool VerifySnapshot(const std::vector<uint8_t>& image, std::string* error) {
  return VerifySnapshot(image.data(), image.size(), error);
}

// Reads the meta section (after a full VerifySnapshot pass).
bool PeekSnapshotMeta(const uint8_t* data, size_t size, SnapshotMeta* meta, std::string* error);
inline bool PeekSnapshotMeta(const std::vector<uint8_t>& image, SnapshotMeta* meta,
                             std::string* error) {
  return PeekSnapshotMeta(image.data(), image.size(), meta, error);
}

// Restores `machine` from an image. The machine must have been
// constructed with the same memory size and cycle model as the image
// (the same factory/config that produced the snapshotted machine); the
// image is fully verified and decoded before any machine state is
// touched, so a rejected image leaves the machine unchanged. Frames whose
// contents the image does not change stay as they are, so restoring into
// a clone of the machine that took the image keeps them shared. When
// `read_injector` is supplied, the kSnapshotRead fault site may damage
// one byte of the image on its way in (the CRCs then reject it).
bool RestoreSnapshot(const uint8_t* data, size_t size, Machine* machine, std::string* error,
                     FaultInjector* read_injector = nullptr);
inline bool RestoreSnapshot(const std::vector<uint8_t>& image, Machine* machine,
                            std::string* error, FaultInjector* read_injector = nullptr) {
  return RestoreSnapshot(image.data(), image.size(), machine, error, read_injector);
}

// BootGuest's counterpart for images: a new machine shaped by the image's
// meta section (store, cycle model, quantum, mode) with `engine`'s host
// flags, restored from `image`. An image wanting more than
// `max_memory_words` is refused before any machine exists. Null with a
// structured *error on failure.
std::unique_ptr<Machine> RestoreGuest(const MachineConfig& engine,
                                      const std::vector<uint8_t>& image,
                                      size_t max_memory_words, std::string* error);

// File variants (ringsim --snapshot-out / --restore).
bool SaveSnapshotFile(const Machine& machine, const std::string& path, std::string* error,
                      FaultInjector* write_injector = nullptr);
bool ReadSnapshotFile(const std::string& path, std::vector<uint8_t>* out, std::string* error);
bool RestoreSnapshotFile(const std::string& path, Machine* machine, std::string* error,
                         FaultInjector* read_injector = nullptr);

}  // namespace rings

#endif  // SRC_SNAPSHOT_SNAPSHOT_H_
