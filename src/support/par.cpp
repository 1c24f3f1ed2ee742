#include "support/par.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace pareval::support {

unsigned hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

struct ThreadPool::WorkerQueue {
  std::mutex mu;
  std::deque<std::function<void()>> tasks;       // Normal lane
  std::deque<std::function<void()>> high_tasks;  // High lane, drained first
};

struct ThreadPool::State {
  std::vector<std::unique_ptr<WorkerQueue>> queues;
  std::vector<std::thread> workers;
  std::mutex sleep_mu;
  std::condition_variable wake;
  std::atomic<std::size_t> pending{0};
  // High-lane occupancy, so the all-Normal hot path (every pop, absent any
  // High submission) skips the whole-pool High sweep without taking locks.
  std::atomic<std::size_t> high_pending{0};
  std::atomic<std::size_t> next_queue{0};
  std::atomic<bool> stopping{false};
  // Threads idling inside help_until on the wake cv. notify_one would be
  // consumed by a sleeping worker and leave a helper napping through its
  // full backoff interval; push() broadcasts when any helper is asleep.
  std::atomic<unsigned> helpers_sleeping{0};
};

namespace {
// Which pool (if any) the current thread is a worker of, and its queue
// index there. Lets submit() push to the worker's own deque and lets
// run_pending_task() prefer local work before stealing. Typed as void* only
// for identity comparison — State stays private to ThreadPool.
thread_local const void* tls_pool_state = nullptr;
thread_local unsigned tls_worker_index = 0;
}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  worker_count_ = threads == 0 ? hardware_threads() : threads;
  state_ = std::make_shared<State>();
  state_->queues.reserve(worker_count_);
  for (unsigned i = 0; i < worker_count_; ++i) {
    state_->queues.push_back(std::make_unique<WorkerQueue>());
  }
  state_->workers.reserve(worker_count_);
  for (unsigned i = 0; i < worker_count_; ++i) {
    state_->workers.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  state_->stopping.store(true, std::memory_order_release);
  {
    // The lock pairs with the workers' predicate check: without it a worker
    // could test `stopping`, miss the flag, and sleep through this notify.
    std::lock_guard<std::mutex> lock(state_->sleep_mu);
  }
  state_->wake.notify_all();
  for (auto& w : state_->workers) w.join();
  // A worker exits when it observes `stopping` with nothing pending, but a
  // still-running task on ANOTHER worker may submit after that
  // observation; if its own worker also happens to have exited by the
  // time the push lands, the task would sit in a deque forever. Sweep the
  // queues from the destroying thread so every task whose submit()
  // returned gets executed (tasks those tasks submit included).
  while (run_pending_task()) {
  }
}

void ThreadPool::drain() {
  help_until([this] {
    return state_->pending.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::push(std::function<void()> task, TaskPriority priority) {
  unsigned index;
  if (tls_pool_state == state_.get()) {
    index = tls_worker_index;  // nested submission: keep it local
  } else {
    index = static_cast<unsigned>(
        state_->next_queue.fetch_add(1, std::memory_order_relaxed) %
        worker_count_);
  }
  // Count High occupancy BEFORE the task becomes poppable: a pop can then
  // never decrement ahead of its task's increment, so the counter cannot
  // wrap below zero — at worst it transiently overcounts, costing one
  // wasted (empty) High sweep.
  if (priority == TaskPriority::High) {
    state_->high_pending.fetch_add(1, std::memory_order_release);
  }
  {
    WorkerQueue& q = *state_->queues[index];
    std::lock_guard<std::mutex> lock(q.mu);
    (priority == TaskPriority::High ? q.high_tasks : q.tasks)
        .push_back(std::move(task));
  }
  {
    // The increment must not land between a worker's predicate check and
    // its block, or the notify below is lost and the task sits until the
    // next submission; holding sleep_mu orders it before or after both.
    std::lock_guard<std::mutex> lock(state_->sleep_mu);
    state_->pending.fetch_add(1, std::memory_order_release);
  }
  if (state_->helpers_sleeping.load(std::memory_order_acquire) > 0) {
    state_->wake.notify_all();  // prompt wakeup for backed-off helpers
  } else {
    state_->wake.notify_one();
  }
}

bool ThreadPool::try_pop(std::function<void()>& out) {
  const bool is_worker = tls_pool_state == state_.get();
  const unsigned self = is_worker ? tls_worker_index : 0;
  // Both lanes follow the same discipline — own deque back first (LIFO:
  // newest, cache-warm, nested children), then steal from the front of
  // peers' deques (FIFO: oldest first) — but the High lane is swept across
  // every queue before any Normal task is considered, so an executor never
  // starts normal work while a high-priority task is pending anywhere.
  // The sweep itself is gated on an occupancy counter: an all-Normal
  // workload (the common case) pays one relaxed load, not a lock per
  // queue, to learn the High lane is empty.
  for (const bool high : {true, false}) {
    if (high &&
        state_->high_pending.load(std::memory_order_acquire) == 0) {
      continue;
    }
    auto lane = [high](WorkerQueue& q) -> std::deque<std::function<void()>>& {
      return high ? q.high_tasks : q.tasks;
    };
    auto take = [&](WorkerQueue& q, bool back) {
      out = back ? std::move(lane(q).back()) : std::move(lane(q).front());
      back ? lane(q).pop_back() : lane(q).pop_front();
      state_->pending.fetch_sub(1, std::memory_order_relaxed);
      if (high) state_->high_pending.fetch_sub(1, std::memory_order_relaxed);
    };
    if (is_worker) {
      WorkerQueue& q = *state_->queues[self];
      std::lock_guard<std::mutex> lock(q.mu);
      if (!lane(q).empty()) {
        take(q, /*back=*/true);
        return true;
      }
    }
    for (unsigned k = 0; k < worker_count_; ++k) {
      const unsigned victim = (self + 1 + k) % worker_count_;
      if (is_worker && victim == self) continue;
      WorkerQueue& q = *state_->queues[victim];
      std::lock_guard<std::mutex> lock(q.mu);
      if (!lane(q).empty()) {
        take(q, /*back=*/false);
        return true;
      }
    }
  }
  return false;
}

bool ThreadPool::run_pending_task() {
  std::function<void()> task;
  if (!try_pop(task)) return false;
  task();
  return true;
}

void ThreadPool::help_until(const std::function<bool()>& done) {
  // Idle backoff: a few yields for short waits, then bounded exponential
  // sleeps on the wake cv. push() broadcasts while helpers sleep, so new
  // work still gets prompt pickup; `done()` turning true with no
  // accompanying push (an in-flight task completing) is observed within
  // one capped nap. An idle helper therefore burns ~no CPU instead of
  // yield-spinning a core.
  constexpr unsigned kSpinRounds = 16;
  constexpr unsigned kNapFloorUs = 32;
  constexpr unsigned kNapCapShift = 6;  // 32us << 6 = ~2ms max nap
  State& s = *state_;
  unsigned idle = 0;
  while (!done()) {
    if (run_pending_task()) {
      idle = 0;
      continue;
    }
    ++idle;
    if (idle <= kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    const unsigned shift = std::min(idle - kSpinRounds, kNapCapShift);
    const auto nap = std::chrono::microseconds(kNapFloorUs << shift);
    std::unique_lock<std::mutex> lock(s.sleep_mu);
    if (s.pending.load(std::memory_order_acquire) > 0) continue;
    s.helpers_sleeping.fetch_add(1, std::memory_order_release);
    s.wake.wait_for(lock, nap, [&] {
      return s.pending.load(std::memory_order_acquire) > 0 ||
             s.stopping.load(std::memory_order_acquire);
    });
    s.helpers_sleeping.fetch_sub(1, std::memory_order_release);
  }
}

void ThreadPool::worker_loop(unsigned index) {
  tls_pool_state = state_.get();
  tls_worker_index = index;
  State& s = *state_;
  while (true) {
    std::function<void()> task;
    if (try_pop(task)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(s.sleep_mu);
    s.wake.wait(lock, [&] {
      return s.stopping.load(std::memory_order_acquire) ||
             s.pending.load(std::memory_order_acquire) > 0;
    });
    if (s.stopping.load(std::memory_order_acquire) &&
        s.pending.load(std::memory_order_acquire) == 0) {
      break;
    }
  }
  tls_pool_state = nullptr;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  unsigned threads, TaskPriority priority) {
  if (begin >= end) return;
  if (threads == 0) threads = hardware_threads();
  const std::size_t n = end - begin;
  const unsigned executors =
      static_cast<unsigned>(std::min<std::size_t>(threads, n));
  if (executors <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  // Dynamic scheduling: `executors` claimers share one atomic index. The
  // caller is one executor; the other executors run as pool tasks, so the
  // concurrency cap holds even when the pool has more workers.
  std::atomic<std::size_t> next{begin};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto claim_loop = [&] {
    try {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= end) break;
        body(i);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };

  ThreadPool& pool = ThreadPool::global();
  std::vector<std::future<void>> helpers;
  helpers.reserve(executors - 1);
  for (unsigned t = 0; t + 1 < executors; ++t) {
    helpers.push_back(pool.submit(priority, claim_loop));
  }
  claim_loop();
  // claim_loop swallows exceptions into first_error, so await() here only
  // waits; it cannot rethrow. Helping while waiting keeps nested
  // parallel_for calls deadlock-free on a saturated pool.
  for (auto& h : helpers) pool.await(h);
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pareval::support
