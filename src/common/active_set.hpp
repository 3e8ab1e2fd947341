// Dense epoch-stamped active set for activity-driven stepping.
//
// Each sleepable subsystem (routers of one network, cores, MCs, NIs) gets
// one ActiveSet sized to its member count. A member that may do work next
// cycle is woken (O(1), duplicate-safe); each simulated cycle the owner
// drains the set once and steps only the woken members, in ascending index
// order so iteration order — and therefore free-list recycling, trace event
// order and every other order-sensitive side effect — is identical to the
// always-on full loop.
//
// Wakes issued while a drain is in progress land in the *next* drain: the
// drain snapshots the member list and bumps the epoch first, so a component
// that re-wakes itself (still busy) or wakes a peer is scheduled for the
// following cycle, never re-entered within the current one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace arinoc {

class ActiveSet {
 public:
  /// Sizes the set for indices [0, n). Drops all members and stamps.
  void resize(std::size_t n) {
    stamp_.assign(n, 0);
    members_.clear();
    epoch_ = 1;
  }

  std::size_t size() const { return stamp_.size(); }
  std::size_t pending() const { return members_.size(); }

  /// Marks member `i` active for the next drain. O(1); duplicate wakes of
  /// the same member within one epoch are absorbed by the stamp.
  void wake(std::size_t i) {
    if (stamp_[i] != epoch_) {
      stamp_[i] = epoch_;
      members_.push_back(i);
    }
  }

  void wake_all() {
    for (std::size_t i = 0; i < stamp_.size(); ++i) wake(i);
  }

  bool contains(std::size_t i) const { return stamp_[i] == epoch_; }

  /// Drops every pending member without invoking anything.
  void clear() {
    members_.clear();
    ++epoch_;
  }

  /// Invokes `fn(i)` once per pending member, in ascending index order, and
  /// returns how many members it stepped. wake() calls made during the
  /// drain (self re-wakes, peer wakes) are deferred to the next drain. The
  /// epoch is 64-bit: it cannot wrap within any realistic run, so stale
  /// stamps never alias a live epoch.
  template <typename Fn>
  std::size_t drain_sorted(Fn&& fn) {
    scratch_.clear();
    scratch_.swap(members_);
    ++epoch_;
    std::sort(scratch_.begin(), scratch_.end());
    for (const std::size_t i : scratch_) fn(i);
    return scratch_.size();
  }

 private:
  std::uint64_t epoch_ = 1;
  std::vector<std::uint64_t> stamp_;  ///< stamp_[i] == epoch_ => pending.
  std::vector<std::size_t> members_;
  std::vector<std::size_t> scratch_;  ///< Drain snapshot (reused capacity).
};

}  // namespace arinoc
