// Arbiters for the separable input-first allocator (Table I). Neither
// allocates: requests arrive as a bit mask or as a span the caller owns.
//
// RoundRobinArbiter: classic rotating-priority arbiter. The pointer names the
//                    input that wins next; a grant moves it to winner + 1
//                    (wrapping), and a cycle without requests leaves it put.
// PriorityArbiter:   picks the request with the highest priority key; among
//                    equal keys, the first requesting slot at or after the
//                    round-robin pointer. Used by output-port switch
//                    arbitration when ARI's multi-level prioritization (§5)
//                    is enabled; with all keys equal it degenerates to RR.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>

namespace arinoc {

class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(std::size_t inputs = 0) : n_(inputs) {}

  void resize(std::size_t inputs) {
    n_ = inputs;
    if (ptr_ >= n_) ptr_ = 0;
  }
  std::size_t size() const { return n_; }

  /// Grant order of input `i`: 0 for the input at the pointer, n - 1 for the
  /// one just before it.
  std::size_t distance(std::size_t i) const {
    assert(i < n_);
    return i >= ptr_ ? i - ptr_ : i + n_ - ptr_;
  }
  /// Records a grant to input `i`: the pointer moves past it.
  void grant(std::size_t i) { ptr_ = i + 1 == n_ ? 0 : i + 1; }

  /// Bit i of `request` set = input i requests (at most 64 inputs). Picks
  /// the first requester at or after the pointer and grants it. Returns -1
  /// if no input requests.
  int pick(std::uint64_t request) {
    assert(n_ <= 64 && (n_ == 64 || (request >> n_) == 0));
    if (request == 0) return -1;
    const std::uint64_t from_ptr = request & (~std::uint64_t{0} << ptr_);
    const int idx = std::countr_zero(from_ptr != 0 ? from_ptr : request);
    grant(static_cast<std::size_t>(idx));
    return idx;
  }

 private:
  std::size_t n_;
  std::size_t ptr_ = 0;
};

/// One switch request: the requesting slot and its priority key.
struct ArbRequest {
  std::uint32_t slot;
  std::uint32_t key;
};

class PriorityArbiter {
 public:
  explicit PriorityArbiter(std::size_t inputs = 0) : rr_(inputs) {}

  void resize(std::size_t inputs) { rr_.resize(inputs); }

  /// Highest key wins, round-robin among equal keys. Slots must be distinct;
  /// their order in `requests` does not matter. Returns the winning slot, or
  /// -1 if `requests` is empty.
  int pick(std::span<const ArbRequest> requests) {
    if (requests.empty()) return -1;
    const ArbRequest* best = &requests[0];
    std::size_t best_dist = rr_.distance(best->slot);
    for (const ArbRequest& r : requests.subspan(1)) {
      if (r.key < best->key) continue;
      const std::size_t d = rr_.distance(r.slot);
      if (r.key > best->key || d < best_dist) {
        best = &r;
        best_dist = d;
      }
    }
    rr_.grant(best->slot);
    return static_cast<int>(best->slot);
  }

 private:
  RoundRobinArbiter rr_;
};

}  // namespace arinoc
