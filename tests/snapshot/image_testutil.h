// Helpers shared by the snapshot tests: guests instantiated and cut at a
// cycle count, and byte-level image editing that keeps every CRC valid, so
// a test can reach the decoder's semantic checks (VerifySnapshot passes;
// only RestoreSnapshot can reject the result).
#ifndef TESTS_SNAPSHOT_IMAGE_TESTUTIL_H_
#define TESTS_SNAPSHOT_IMAGE_TESTUTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/kasm/assembler.h"
#include "src/snapshot/snapshot.h"
#include "src/sys/manifest.h"

namespace rings {
namespace image_testutil {

inline std::unique_ptr<Machine> Instantiate(const std::string& source,
                                            const MachineConfig& config) {
  const AssembleResult assembled = Assemble(source);
  const Manifest manifest = ParseManifest(source);
  if (!assembled.ok || !manifest.ok()) {
    return nullptr;
  }
  auto machine = std::make_unique<Machine>(config);
  machine->trace().set_enabled(true);
  std::string error;
  if (!machine->ok() || !InstantiateGuest(assembled.program, manifest, machine.get(), &error)) {
    return nullptr;
  }
  return machine;
}

inline std::unique_ptr<Machine> CutAt(const std::string& source, const MachineConfig& config,
                                      uint64_t cycles) {
  std::unique_ptr<Machine> live = Instantiate(source, config);
  if (live != nullptr) {
    live->Run(cycles);
  }
  return live;
}

// The guest run to half of its uninterrupted cycle count.
inline std::unique_ptr<Machine> CutAtHalf(const std::string& source,
                                          const MachineConfig& config) {
  std::unique_ptr<Machine> reference = Instantiate(source, config);
  if (reference == nullptr || !reference->Run(100'000'000).idle) {
    return nullptr;
  }
  return CutAt(source, config, reference->cpu().cycles() / 2);
}

inline MachineConfig SmallConfig() {
  MachineConfig config;
  config.memory_words = size_t{1} << 20;
  return config;
}

// Bitwise CRC-32 (IEEE, reflected; zlib.crc32 computes the same), written
// independently of the library's sliced, table-driven one.
inline uint32_t Crc32(const std::vector<uint8_t>& bytes) {
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t b : bytes) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

inline uint64_t Load(const std::vector<uint8_t>& bytes, size_t offset, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(bytes[offset + i]) << (8 * i);
  }
  return v;
}

inline void Store(std::vector<uint8_t>* bytes, size_t offset, uint64_t value, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    (*bytes)[offset + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

// Section ids of the image format.
enum SectionId : uint32_t {
  kMeta = 1,
  kMemory = 2,
  kCpu = 3,
  kRegistry = 4,
  kSupervisor = 5,
  kTrace = 6,
  kFault = 7,
  kDevice = 8,
};

// The payload of section `id`.
inline std::vector<uint8_t> Payload(const std::vector<uint8_t>& image, uint32_t id) {
  for (size_t pos = 16; pos < image.size();) {
    const uint64_t length = Load(image, pos + 4, 8);
    if (Load(image, pos, 4) == id) {
      const uint8_t* payload = image.data() + pos + 16;
      return std::vector<uint8_t>(payload, payload + length);
    }
    pos += 16 + length;
  }
  return {};
}

// `image` with section `id`'s payload replaced by `edit(payload)`, the
// section's length and CRC rewritten to match, so the result passes
// VerifySnapshot and only the decoder can reject it.
inline std::vector<uint8_t> RewriteSection(const std::vector<uint8_t>& image, uint32_t id,
                                           const std::function<void(std::vector<uint8_t>*)>& edit) {
  std::vector<uint8_t> out(image.begin(), image.begin() + 16);
  for (size_t pos = 16; pos < image.size();) {
    const uint32_t section = static_cast<uint32_t>(Load(image, pos, 4));
    std::vector<uint8_t> payload = Payload(image, section);
    pos += 16 + payload.size();
    if (section == id) {
      edit(&payload);
    }
    std::vector<uint8_t> frame(16);
    Store(&frame, 0, section, 4);
    Store(&frame, 4, payload.size(), 8);
    Store(&frame, 12, Crc32(payload), 4);
    out.insert(out.end(), frame.begin(), frame.end());
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

// One payload field overwritten.
inline std::vector<uint8_t> Patch(const std::vector<uint8_t>& image, uint32_t id,
                                  size_t offset, uint64_t value, size_t width) {
  return RewriteSection(image, id, [&](std::vector<uint8_t>* payload) {
    ASSERT_LE(offset + width, payload->size());
    Store(payload, offset, value, width);
  });
}

inline std::vector<uint8_t> Save(const Machine& machine) {
  std::vector<uint8_t> image;
  std::string error;
  EXPECT_TRUE(SaveSnapshot(machine, &image, &error)) << error;
  return image;
}

}  // namespace image_testutil
}  // namespace rings

#endif  // TESTS_SNAPSHOT_IMAGE_TESTUTIL_H_
