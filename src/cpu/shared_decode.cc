#include "src/cpu/shared_decode.h"

#include <utility>

namespace rings {

SharedDecodeImage::Builder::Builder()
    : image_(std::unique_ptr<SharedDecodeImage>(new SharedDecodeImage())) {}

void SharedDecodeImage::Builder::AddSegment(const std::string& name,
                                            const std::vector<Word>& words) {
  Segment seg;
  seg.name = name;
  seg.words.reserve(words.size());
  for (const Word word : words) {
    Entry e;
    e.raw = word;
    e.decodable = DecodeInstruction(word, &e.ins);
    seg.words.push_back(e);
  }
  image_->segments_.push_back(std::move(seg));
}

std::shared_ptr<const SharedDecodeImage> SharedDecodeImage::Builder::Publish(uint64_t identity) {
  image_->identity_ = identity;
  return std::shared_ptr<const SharedDecodeImage>(std::move(image_));
}

const SharedDecodeImage::Segment* SharedDecodeImage::FindSegment(const std::string& name) const {
  for (const Segment& seg : segments_) {
    if (seg.name == name) {
      return &seg;
    }
  }
  return nullptr;
}

size_t SharedDecodeImage::bytes() const {
  size_t total = sizeof(*this);
  for (const Segment& seg : segments_) {
    total += sizeof(Segment) + seg.name.size() + seg.words.size() * sizeof(Entry);
  }
  return total;
}

SharedDecodeRegistry& SharedDecodeRegistry::Instance() {
  static SharedDecodeRegistry* registry = new SharedDecodeRegistry();
  return *registry;
}

std::shared_ptr<const SharedDecodeImage> SharedDecodeRegistry::Acquire(
    uint64_t identity,
    const std::function<std::shared_ptr<const SharedDecodeImage>()>& build, bool* built) {
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
  std::shared_ptr<const SharedDecodeImage> image = build();
  images_[identity] = image;
  if (built != nullptr) {
    *built = true;
  }
  if (pin_count_ > 0) {
    pinned_[identity] = image;
  }
  return image;
}

SharedDecodeRegistry::Pin::Pin() {
  SharedDecodeRegistry& registry = Instance();
  std::lock_guard<std::mutex> lock(registry.mu_);
  ++registry.pin_count_;
}

SharedDecodeRegistry::Pin::~Pin() {
  SharedDecodeRegistry& registry = Instance();
  std::lock_guard<std::mutex> lock(registry.mu_);
  if (--registry.pin_count_ == 0) {
    registry.pinned_.clear();
  }
}

size_t SharedDecodeRegistry::LiveImages() {
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
