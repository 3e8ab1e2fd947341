// Persistent fork-join worker team: the one thread pool of the simulator.
//
// The experiment runner forks it once per sweep, one task per grid cell; one
// simulation always steps on a single thread. A ThreadTeam keeps its
// workers parked on a condition variable between forks and wakes them all
// with a single generation bump; joins spin briefly and then yield so
// oversubscribed or single-core hosts degrade gracefully instead of burning
// the core the workers need.
//
// Determinism contract: run() distributes task indices dynamically (an
// atomic cursor), so WHICH thread runs a task is not reproducible — only
// tasks that touch disjoint state may share a team. Bit-identity therefore
// lives in the caller: each runner task owns its cell's result slot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace arinoc::exec {

/// std::thread::hardware_concurrency(), clamped to >= 1.
unsigned hardware_threads();

class ThreadTeam {
 public:
  /// Spawns threads - 1 workers (the caller of run() is the remaining
  /// thread). threads <= 1 spawns nothing and run() executes inline.
  explicit ThreadTeam(unsigned threads);
  ~ThreadTeam();
  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  unsigned threads() const { return threads_; }

  /// Runs fn(i) exactly once for every i in [0, n), spread across the team
  /// (caller included), and returns once all calls have finished. All
  /// writes made by the tasks are visible to the caller on return. `fn`
  /// must not throw: there is no exception channel, so a throw on a worker
  /// thread calls std::terminate.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claims the next unclaimed task index of generation `gen`, or returns
  /// false when that generation has no tasks left (or has been superseded).
  bool claim(std::uint64_t gen, std::size_t n, std::size_t* idx);

  unsigned threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t gen_ = 0;     // guarded by mu_; bumped once per fork
  bool shutdown_ = false;     // guarded by mu_
  std::size_t n_ = 0;         // guarded by mu_ (read by workers after wake)
  const std::function<void(std::size_t)>* fn_ = nullptr;  // guarded by mu_

  // Packs (generation << 32 | next task index). Tagging the cursor with the
  // generation lets a worker that wakes late — after the caller has already
  // observed completion and started the next fork — fail its claim instead
  // of stealing a task from the new generation with the old closure.
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::size_t> done_{0};
};

}  // namespace arinoc::exec
