// Per-UE bounded history — THE event-ring primitive of the obs layer.
//
// Both tail-based trace retention (Tracer's sampled capture) and the
// flight recorder keep "the last N things that happened to a UE"; this
// header is the one implementation behind both:
//
//   Ring<T>       a fixed-depth circular store. push evicts the oldest
//                 element once full, and iteration order is always
//                 oldest-first, so a promoted ring replays a UE's
//                 history in the order it happened.
//   UeHistory<T>  one Ring per UE id behind an open-addressing slot
//                 index, plus a per-slot flag (retention's "promoted").
//
// Memory model: a ring's storage grows with the elements actually pushed
// (doubling, capped at the depth), so a UE that produced three events
// holds three-ish slots, not `depth`. The slot index holds at most two
// buckets per UE seen, whatever the ids are (0xFFFFFFFF costs what 1
// costs). Nothing is ever bigger than depth × UEs seen.
//
// Templated so the header has no dependency on the trace layer (the
// Tracer's retention state and the flight recorder instantiate it with
// Event).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace seed::obs {

template <typename T>
class Ring {
 public:
  /// A zero-capacity ring is legal and degenerate: every push evicts the
  /// pushed value immediately (nothing is ever buffered).
  explicit Ring(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  /// Element storage currently allocated: grows with pushes, never past
  /// capacity().
  std::size_t reserved() const { return slots_.capacity(); }

  /// Appends `v`. Returns true when the push evicted an element: the
  /// oldest one once the ring is full, or `v` itself at zero capacity.
  bool push(T v) {
    // Until the first wrap the elements sit in order at [0, size), so
    // growing is a plain append; head_ moves only once the ring is full.
    if (slots_.size() < capacity_) {
      if (slots_.size() == slots_.capacity()) {
        slots_.reserve(std::min(
            capacity_, std::max(kFirstReserve, 2 * slots_.capacity())));
      }
      slots_.push_back(std::move(v));
      return false;
    }
    if (capacity_ == 0) return true;
    slots_[head_] = std::move(v);
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    return true;
  }

  /// Appends the ring's contents, oldest first, without draining.
  void append_to(std::vector<T>& out) const {
    out.reserve(out.size() + slots_.size());
    out.insert(out.end(), slots_.begin() + head_, slots_.end());
    out.insert(out.end(), slots_.begin(), slots_.begin() + head_);
  }

  /// Moves the ring's contents out, oldest first, leaving it empty with
  /// its storage released.
  std::vector<T> take() {
    std::rotate(slots_.begin(), slots_.begin() + head_, slots_.end());
    head_ = 0;
    return std::exchange(slots_, {});
  }

  /// Empties the ring and releases its storage.
  void clear() {
    slots_ = std::vector<T>();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kFirstReserve = 4;

  std::size_t capacity_;
  std::vector<T> slots_;
  std::size_t head_ = 0;  // oldest element once the ring has wrapped
};

template <typename T>
class UeHistory {
 public:
  struct Slot {
    Slot(std::uint32_t id, std::size_t depth) : ue(id), ring(depth) {}
    std::uint32_t ue;
    /// Caller-owned per-UE flag; the ring is left alone by it (tail
    /// retention sets it when a UE is promoted to durable capture).
    bool pinned = false;
    Ring<T> ring;
  };

  /// `depth` bounds every UE's ring.
  explicit UeHistory(std::size_t depth) : depth_(depth) {}

  std::size_t depth() const { return depth_; }
  /// UEs holding a slot (every UE seen since the last clear()).
  std::size_t size() const { return slots_.size(); }

  /// The UE's slot, or nullptr when the UE has not been seen.
  Slot* find(std::uint32_t ue) {
    if (index_.empty()) return nullptr;
    for (std::size_t i = bucket_of(ue);; i = (i + 1) & (index_.size() - 1)) {
      const std::uint32_t s = index_[i];
      if (s == 0) return nullptr;
      if (slots_[s - 1].ue == ue) return &slots_[s - 1];
    }
  }

  /// The UE's slot, created with an empty ring on first sight. The
  /// reference is valid until the next call that creates a slot.
  Slot& slot(std::uint32_t ue) {
    if (Slot* s = find(ue)) return *s;
    if (2 * (slots_.size() + 1) > index_.size()) {
      rehash(std::max<std::size_t>(16, 2 * index_.size()));
    }
    slots_.emplace_back(ue, depth_);
    place(ue, static_cast<std::uint32_t>(slots_.size()));
    return slots_.back();
  }

  /// Slots in first-seen order.
  typename std::vector<Slot>::iterator begin() { return slots_.begin(); }
  typename std::vector<Slot>::iterator end() { return slots_.end(); }

  /// Heap bytes held: the slot index, the slot table and every ring's
  /// element storage (heap owned by the elements themselves excluded).
  std::size_t footprint_bytes() const {
    std::size_t bytes = index_.capacity() * sizeof(std::uint32_t) +
                        slots_.capacity() * sizeof(Slot);
    for (const Slot& s : slots_) bytes += s.ring.reserved() * sizeof(T);
    return bytes;
  }

  /// Forgets every UE and releases every ring; the slot table and index
  /// keep their capacity for the next capture.
  void clear() {
    slots_.clear();
    std::fill(index_.begin(), index_.end(), 0);
  }

 private:
  std::size_t bucket_of(std::uint32_t ue) const {
    std::uint32_t h = ue * 0x9E3779B9u;  // Fibonacci hashing
    h ^= h >> 16;
    return h & (index_.size() - 1);
  }

  void place(std::uint32_t ue, std::uint32_t slot_plus_one) {
    std::size_t i = bucket_of(ue);
    while (index_[i] != 0) i = (i + 1) & (index_.size() - 1);
    index_[i] = slot_plus_one;
  }

  void rehash(std::size_t buckets) {
    index_.assign(buckets, 0);
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      place(slots_[s].ue, static_cast<std::uint32_t>(s + 1));
    }
  }

  std::size_t depth_;
  std::vector<Slot> slots_;
  /// Open-addressing (linear probe) buckets holding slot index + 1;
  /// 0 marks an empty bucket. Power-of-two sized, at most half full.
  std::vector<std::uint32_t> index_;
};

}  // namespace seed::obs
