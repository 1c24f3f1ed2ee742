#pragma once
// Parallel execution substrate for the evaluation harness and the native
// golden references.
//
// The central abstraction is `ThreadPool`, a persistent work-stealing
// scheduler: each worker owns a deque, `submit()` from a worker thread
// pushes onto that worker's own deque (LIFO for locality), idle workers
// steal from the front of their peers' deques (FIFO, oldest-first), and
// any thread can make progress on pending work via `run_pending_task()` /
// `await()`. Waiting by helping is what makes *nested* submission safe:
// a pool task that submits subtasks and `await()`s them executes other
// pending tasks while it waits, so a fully-busy pool cannot deadlock on
// its own children.
//
// `parallel_for` is retained as a convenience wrapper and now schedules
// onto the shared global pool instead of spawning throwaway threads.

#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <type_traits>
#include <vector>

namespace pareval::support {

/// Number of worker threads in the default pool (>= 1).
unsigned hardware_threads() noexcept;

/// Two-level task priority: every executor (worker, helper, or external
/// thread calling run_pending_task) drains High tasks — its own and any it
/// can steal — before touching a Normal one. Figure-critical sweep cells
/// (bench_figures) ride the High lane so reports unblock first.
enum class TaskPriority { Normal, High };

class ThreadPool {
 public:
  /// `threads == 0` means hardware_threads().
  explicit ThreadPool(unsigned threads = 0);
  /// Drains every already-submitted task, then joins the workers. Tasks
  /// that land during teardown (a draining task submitting a follow-up)
  /// are executed too: after the workers join, the destroying thread
  /// sweeps the queues until they are empty, so a task whose submit()
  /// returned can never be silently dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned worker_count() const noexcept { return worker_count_; }

  /// Schedule `f()` on the pool and return a future for its result.
  /// Safe to call from inside a pool task (nested submission); pair with
  /// `await()` rather than `future::get()` when doing so.
  template <class F, class R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> submit(F&& f) {
    return submit(TaskPriority::Normal, std::forward<F>(f));
  }

  /// submit() with an explicit priority lane.
  template <class F, class R = std::invoke_result_t<std::decay_t<F>>>
  std::future<R> submit(TaskPriority priority, F&& f) {
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> out = task->get_future();
    push([task] { (*task)(); }, priority);
    return out;
  }

  /// Execute one pending task if any is available (own deque first, then
  /// steal). Returns false when every deque is empty. Safe from any thread.
  bool run_pending_task();

  /// Complete every queued-but-unstarted task, helping from the calling
  /// thread, and return once the queues are empty (tasks a drained task
  /// submitted are drained too). Does NOT wait for tasks already popped
  /// by a worker and still executing — pair with await() on their futures
  /// for that. The pool stays fully usable afterwards: a long-lived
  /// server calls drain() between jobs or before a graceful exit without
  /// tearing the workers down.
  void drain();

  /// Wait for `fut`, executing pending pool tasks in the meantime, then
  /// return its value (rethrowing the task's exception, if any).
  template <class R>
  R await(std::future<R>& fut) {
    help_until([&] {
      return fut.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
    });
    return fut.get();
  }

  /// Run pending tasks until `done()` returns true. When no work is
  /// available it backs off — a few yields, then bounded exponential
  /// sleeps (capped at ~2ms) on the pool's wake signal — so an idle
  /// waiter burns ~no CPU while push() still wakes it promptly.
  void help_until(const std::function<bool()>& done);

  /// The process-wide pool shared by parallel_for and the harness.
  static ThreadPool& global();

 private:
  struct WorkerQueue;
  struct State;

  void push(std::function<void()> task,
            TaskPriority priority = TaskPriority::Normal);
  void worker_loop(unsigned index);
  bool try_pop(std::function<void()>& out);

  std::shared_ptr<State> state_;
  unsigned worker_count_ = 0;
};

/// Run body(i) for i in [begin, end) with dynamic scheduling on the global
/// pool, using at most `threads` concurrent executors (the caller is one of
/// them). `threads == 0` means hardware_threads(); `threads == 1` runs
/// serially inline. The executors claim indices from one atomic counter,
/// so indices start in ascending order. The pool-side executors ride the
/// `priority` lane. Exceptions thrown by `body` propagate to the caller
/// (the first one observed by index-claim order).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  unsigned threads = 0,
                  TaskPriority priority = TaskPriority::Normal);

}  // namespace pareval::support
