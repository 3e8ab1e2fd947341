#include "exec/thread_team.hpp"

#include <algorithm>

namespace arinoc::exec {

namespace {
constexpr unsigned kGenShift = 32;
constexpr std::uint64_t kIdxMask = (std::uint64_t{1} << kGenShift) - 1;
}  // namespace

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadTeam::ThreadTeam(unsigned threads) : threads_(std::max(1u, threads)) {
  workers_.reserve(threads_ - 1);
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadTeam::~ThreadTeam() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadTeam::claim(std::uint64_t gen, std::size_t n, std::size_t* idx) {
  std::uint64_t cur = cursor_.load(std::memory_order_acquire);
  for (;;) {
    if ((cur >> kGenShift) != gen) return false;  // superseded fork
    const std::size_t i = static_cast<std::size_t>(cur & kIdxMask);
    if (i >= n) return false;
    if (cursor_.compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      *idx = i;
      return true;
    }
  }
}

void ThreadTeam::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  if (workers_.empty() || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::uint64_t gen;
  {
    std::lock_guard<std::mutex> lk(mu_);
    gen = ++gen_;
    n_ = n;
    fn_ = &fn;
    done_.store(0, std::memory_order_relaxed);
    cursor_.store(gen << kGenShift, std::memory_order_release);
  }
  cv_.notify_all();

  std::size_t i;
  while (claim(gen, n, &i)) {
    fn(i);
    done_.fetch_add(1, std::memory_order_acq_rel);
  }

  // Join: a short spin catches workers finishing within a cycle's worth of
  // work; past that, yield so single-core hosts actually schedule them.
  int spins = 0;
  while (done_.load(std::memory_order_acquire) < n) {
    if (++spins > 128) std::this_thread::yield();
  }
}

void ThreadTeam::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn;
    std::size_t n;
    std::uint64_t gen;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return shutdown_ || gen_ != seen; });
      if (shutdown_) return;
      seen = gen_;
      gen = gen_;
      fn = fn_;
      n = n_;
    }
    std::size_t i;
    while (claim(gen, n, &i)) {
      (*fn)(i);
      done_.fetch_add(1, std::memory_order_acq_rel);
    }
  }
}

}  // namespace arinoc::exec
