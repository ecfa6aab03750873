// Index-addressed parking for the state behind hot callbacks.
//
// A callback that captures its state by value (a std::function, a vector, a
// shared_ptr) outgrows std::function's inline buffer and costs one heap
// allocation each time it is built. The data path instead parks that state
// in a Slab and captures only a pointer plus the slot index: 16
// trivially-copyable bytes, which libstdc++ stores inline. Slots are reused
// LIFO and never removed, so peak occupancy bounds the storage and a warm
// slab allocates nothing.
//
// References into a slab are invalidated by the next acquire() or put():
// copy what a call needs out of the slot before making calls that may park
// more state.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace opus {

template <class T>
class Slab {
 public:
  /// A free slot, still holding whatever its last occupant left (retained
  /// buffers included); the caller overwrites what it uses.
  std::uint32_t acquire() {
    if (free_.empty()) {
      items_.emplace_back();
      return static_cast<std::uint32_t>(items_.size() - 1);
    }
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  /// Parks `value` in a free slot and returns the slot.
  std::uint32_t put(T value) {
    const std::uint32_t slot = acquire();
    items_[slot] = std::move(value);
    return slot;
  }

  /// Returns `slot` to the free list; its contents stay for reuse.
  void release(std::uint32_t slot) { free_.push_back(slot); }

  /// Moves the slot's value out, resets the slot and frees it.
  T take(std::uint32_t slot) {
    T value = std::move(items_[slot]);
    items_[slot] = T{};
    release(slot);
    return value;
  }

  T& operator[](std::uint32_t slot) { return items_[slot]; }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

}  // namespace opus
