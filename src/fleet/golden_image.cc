#include "src/fleet/golden_image.h"

#include <utility>

namespace rings {

GoldenImage::GoldenImage(std::unique_ptr<Machine> machine, uint64_t identity)
    : machine_(std::move(machine)), identity_(identity) {
  // Seal once, up front: every frame becomes alias-only, so concurrent
  // Spawn() calls never observe a write table in motion.
  machine_->memory().SealForCloning();
}

uint64_t EngineIdentityBits(const MachineConfig& config) {
  return (config.fast_path ? 1u : 0u) | (config.block_engine ? 2u : 0u) |
         (config.chain ? 4u : 0u) | (config.shared_decode ? 8u : 0u);
}

GoldenImageRegistry& GoldenImageRegistry::Instance() {
  static GoldenImageRegistry* registry = new GoldenImageRegistry();
  return *registry;
}

std::shared_ptr<const GoldenImage> GoldenImageRegistry::Acquire(
    uint64_t identity, const std::function<std::unique_ptr<Machine>()>& build, bool* built) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto it = images_.find(identity); it != images_.end()) {
    if (auto live = it->second.lock()) {
      if (built != nullptr) {
        *built = false;
      }
      if (pin_count_ > 0) {
        pinned_[identity] = live;
      }
      return live;
    }
  }
  std::unique_ptr<Machine> machine = build();
  if (machine == nullptr || !machine->ok()) {
    return nullptr;
  }
  auto image = std::make_shared<const GoldenImage>(std::move(machine), identity);
  images_[identity] = image;
  if (built != nullptr) {
    *built = true;
  }
  if (pin_count_ > 0) {
    pinned_[identity] = image;
  }
  return image;
}

GoldenImageRegistry::Pin::Pin() {
  GoldenImageRegistry& registry = Instance();
  std::lock_guard<std::mutex> lock(registry.mu_);
  ++registry.pin_count_;
}

GoldenImageRegistry::Pin::~Pin() {
  GoldenImageRegistry& registry = Instance();
  std::lock_guard<std::mutex> lock(registry.mu_);
  if (--registry.pin_count_ == 0) {
    registry.pinned_.clear();
  }
}

size_t GoldenImageRegistry::LiveImages() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t live = 0;
  for (auto it = images_.begin(); it != images_.end();) {
    if (it->second.expired()) {
      it = images_.erase(it);
    } else {
      ++live;
      ++it;
    }
  }
  return live;
}

}  // namespace rings
