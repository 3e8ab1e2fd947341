// Bounded flit FIFO used for VC buffers, NI injection queues and ejection
// staging: a fixed-capacity ring whose storage is allocated once, by the
// constructor or set_capacity, so push and pop never touch the heap.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "noc/flit.hpp"

namespace arinoc {

class FlitBuffer {
 public:
  explicit FlitBuffer(std::size_t capacity_flits = 0)
      : ring_(capacity_flits) {}

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return size_; }
  std::size_t free_space() const { return ring_.size() - size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= ring_.size(); }

  /// True if a whole packet of `flits` flits fits right now.
  bool fits(std::size_t flits) const { return free_space() >= flits; }

  /// Push one flit. Caller must have checked capacity.
  void push(const Flit& f) {
    assert(size_ < ring_.size() && "FlitBuffer overflow");
    std::size_t tail = head_ + size_;
    if (tail >= ring_.size()) tail -= ring_.size();
    ring_[tail] = f;
    ++size_;
  }

  const Flit& front() const { return ring_[head_]; }
  Flit pop() {
    assert(size_ > 0 && "FlitBuffer underflow");
    const Flit f = ring_[head_];
    if (++head_ == ring_.size()) head_ = 0;
    --size_;
    return f;
  }

  /// Resizes the ring; drops anything buffered.
  void set_capacity(std::size_t capacity_flits) {
    ring_.assign(capacity_flits, Flit{});
    head_ = 0;
    size_ = 0;
  }

 private:
  std::vector<Flit> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace arinoc
