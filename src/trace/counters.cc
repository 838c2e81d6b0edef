#include "src/trace/counters.h"

#include <string_view>

namespace rings {

uint64_t Counters::TotalTraps() const {
  uint64_t total = 0;
  for (const uint64_t n : traps) {
    total += n;
  }
  return total;
}

Counters Counters::Since(const Counters& earlier) const {
  Counters d;
  ForEachField([this, &earlier, &d](const char*, uint64_t Counters::* member, bool) {
    d.*member = this->*member - earlier.*member;
  });
  for (size_t i = 0; i < traps.size(); ++i) {
    d.traps[i] = traps[i] - earlier.traps[i];
  }
  return d;
}

void Counters::Accumulate(const Counters& other) {
  ForEachField([this, &other](const char*, uint64_t Counters::* member, bool) {
    this->*member += other.*member;
  });
  for (size_t i = 0; i < traps.size(); ++i) {
    traps[i] += other.traps[i];
  }
}

std::string Counters::ToString() const {
  std::string out;
  auto append = [&out](std::string_view name, uint64_t value) {
    if (value == 0) {
      return;
    }
    if (!out.empty()) {
      out += ' ';
    }
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  ForEachField([this, &append](const char* name, uint64_t Counters::* member, bool) {
    append(name, this->*member);
  });
  for (size_t i = 0; i < traps.size(); ++i) {
    append(TrapCauseName(static_cast<TrapCause>(i)), traps[i]);
  }
  return out;
}

}  // namespace rings
