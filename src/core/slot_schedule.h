// Round cleartext layout and its evolution across rounds (§3.8).
//
// Every round's cleartext is:
//   [request-bit region: ceil(N/8) bytes][slot 0 region][slot 1 region]...
// Slot i belongs to the holder of pseudonym key i (assigned by the key
// shuffle; nobody knows which client that is). A closed slot has length 0.
//
// Evolution is a deterministic function of round outputs, so every client
// and server derives the identical layout for round r+1 from round r:
//  * closed slot + request bit i set        -> opens at default length
//  * open slot, valid header                -> next_length from the header
//  * open slot, absent/garbled              -> closes (owner re-requests)
// All participants must call Advance() with each round's cleartext.
#ifndef DISSENT_CORE_SLOT_SCHEDULE_H_
#define DISSENT_CORE_SLOT_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "src/core/cleartext.h"
#include "src/util/bytes.h"
#include "src/util/serialize.h"

namespace dissent {

class SlotSchedule {
 public:
  SlotSchedule(size_t num_slots, uint32_t default_open_length);

  size_t num_slots() const { return lengths_.size(); }
  uint32_t slot_length(size_t i) const { return lengths_[i]; }
  bool is_open(size_t i) const { return lengths_[i] > 0; }

  size_t RequestRegionBytes() const { return (lengths_.size() + 7) / 8; }
  // Byte offset of slot i's region within the round cleartext.
  size_t SlotOffset(size_t i) const;
  // Total cleartext length for the current round.
  size_t TotalLength() const;

  // Reads slot i's region out of a full round cleartext.
  Bytes ExtractSlot(const Bytes& cleartext, size_t i) const;
  // Request bit for slot i.
  bool RequestBit(const Bytes& cleartext, size_t i) const;

  // Applies one completed round's output, updating every slot length.
  void Advance(const Bytes& cleartext);

  // Clamp for requested lengths (guards against a disruptor opening a
  // gigantic slot through a corrupted header).
  static constexpr uint32_t kMaxSlotLength = 1 << 20;

  // Snapshot field list (util/serialize.h), part of a server's session
  // state. The default open length and slot count are the group's, fixed
  // when the schedule is built, so a load only accepts a match.
  template <class Ar>
  bool Fields(Ar& ar) {
    return ar.Expect(default_open_length_) && ar.Expect(lengths_.size()) &&
           ar.Each(lengths_, [&](uint32_t& len) {
             return ar.U32(len) && ar.Check(len <= kMaxSlotLength);
           });
  }

 private:
  std::vector<uint32_t> lengths_;
  uint32_t default_open_length_;
};

}  // namespace dissent

#endif  // DISSENT_CORE_SLOT_SCHEDULE_H_
