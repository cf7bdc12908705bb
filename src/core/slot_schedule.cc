#include "src/core/slot_schedule.h"

#include <cassert>

namespace dissent {

SlotSchedule::SlotSchedule(size_t num_slots, uint32_t default_open_length)
    : lengths_(num_slots, 0), default_open_length_(default_open_length) {
  assert(default_open_length >= SlotOverheadBytes());
}

size_t SlotSchedule::SlotOffset(size_t i) const {
  size_t off = RequestRegionBytes();
  for (size_t s = 0; s < i; ++s) {
    off += lengths_[s];
  }
  return off;
}

size_t SlotSchedule::TotalLength() const {
  size_t total = RequestRegionBytes();
  for (uint32_t len : lengths_) {
    total += len;
  }
  return total;
}

Bytes SlotSchedule::ExtractSlot(const Bytes& cleartext, size_t i) const {
  assert(cleartext.size() == TotalLength());
  size_t off = SlotOffset(i);
  return Bytes(cleartext.begin() + off, cleartext.begin() + off + lengths_[i]);
}

bool SlotSchedule::RequestBit(const Bytes& cleartext, size_t i) const {
  assert(cleartext.size() >= RequestRegionBytes());
  return GetBit(cleartext, i);
}

void SlotSchedule::Advance(const Bytes& cleartext) {
  assert(cleartext.size() == TotalLength());
  std::vector<uint32_t> next(lengths_.size(), 0);
  for (size_t i = 0; i < lengths_.size(); ++i) {
    if (lengths_[i] == 0) {
      next[i] = RequestBit(cleartext, i) ? default_open_length_ : 0;
      continue;
    }
    auto payload = DecodeSlot(ExtractSlot(cleartext, i));
    if (!payload.has_value()) {
      next[i] = 0;  // absent or garbled: close, owner re-requests
      continue;
    }
    uint32_t want = payload->next_length;
    if (want > kMaxSlotLength) {
      want = kMaxSlotLength;
    }
    if (want != 0 && want < SlotOverheadBytes()) {
      want = static_cast<uint32_t>(SlotOverheadBytes());
    }
    next[i] = want;
  }
  lengths_ = std::move(next);
}

}  // namespace dissent
