// Tests for the work-stealing ThreadPool orchestrator, the single-flight
// ShardedCache under every cache layer, and the scheduling-invariance
// guarantee of the evaluation harness: identical TaskResults (and cache
// counters) no matter how many threads execute the sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <ctime>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "eval/harness.hpp"
#include "eval/shard.hpp"
#include "one_cell.hpp"
#include "support/par.hpp"
#include "support/sharded_cache.hpp"

namespace ps = pareval::support;
namespace pe = pareval::eval;

TEST(ThreadPool, SubmitReturnsValue) {
  ps::ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(pool.await(fut), 42);
}

TEST(ThreadPool, WorkerCountDefaultsToHardware) {
  ps::ThreadPool pool;
  EXPECT_EQ(pool.worker_count(), ps::hardware_threads());
  ps::ThreadPool three(3);
  EXPECT_EQ(three.worker_count(), 3u);
}

TEST(ThreadPool, ExercisesAllWorkers) {
  constexpr unsigned kWorkers = 4;
  ps::ThreadPool pool(kWorkers);
  // A barrier only passable when kWorkers tasks run concurrently: each task
  // blocks until all have arrived, so every worker must pick one up. The
  // timed wait turns a scheduling bug into a test failure, not a hang.
  std::mutex mu;
  std::condition_variable cv;
  unsigned arrived = 0;
  std::set<std::thread::id> ids;
  std::vector<std::future<bool>> futs;
  for (unsigned t = 0; t < kWorkers; ++t) {
    futs.push_back(pool.submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      ++arrived;
      cv.notify_all();
      return cv.wait_for(lock, std::chrono::seconds(10),
                         [&] { return arrived == kWorkers; });
    }));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get());
  EXPECT_EQ(ids.size(), kWorkers);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture) {
  ps::ThreadPool pool(2);
  auto fut = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.await(fut), std::runtime_error);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  // More outer tasks than workers, each submitting and awaiting children:
  // with blocking waits this deadlocks a 2-worker pool; await() helps.
  ps::ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  std::vector<std::future<int>> outers;
  for (int t = 0; t < 8; ++t) {
    outers.push_back(pool.submit([&pool, &inner_runs] {
      std::vector<std::future<int>> inners;
      for (int i = 0; i < 4; ++i) {
        inners.push_back(pool.submit([&inner_runs] {
          inner_runs.fetch_add(1);
          return 1;
        }));
      }
      int sum = 0;
      for (auto& f : inners) sum += pool.await(f);
      return sum;
    }));
  }
  int total = 0;
  for (auto& f : outers) total += pool.await(f);
  EXPECT_EQ(total, 32);
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  std::atomic<int> count{0};
  ps::parallel_for(0, 8, [&](std::size_t) {
    ps::parallel_for(0, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, RunPendingTaskFromExternalThread) {
  ps::ThreadPool pool(1);
  // Saturate the single worker, then verify the external (test) thread can
  // steal the queued second task itself. Submit the second task only after
  // the worker has claimed the first, or this thread could steal the
  // blocker instead and spin in it.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  auto queued = pool.submit([] { return 7; });
  while (queued.wait_for(std::chrono::seconds(0)) !=
         std::future_status::ready) {
    if (!pool.run_pending_task()) std::this_thread::yield();
  }
  EXPECT_EQ(queued.get(), 7);
  release.store(true);
  pool.await(blocker);
}

TEST(ThreadPool, IdleHelpUntilBurnsLittleCpu) {
  // An idle help_until must back off to cv sleeps instead of yield-spinning:
  // waiting ~300ms of wall time on an empty pool should cost the process
  // almost no CPU time. The old yield-spin burned a full core (~300ms CPU
  // here); the backoff path wakes at most every ~2ms for microseconds.
  ps::ThreadPool pool(2);
  std::atomic<bool> done{false};
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    done.store(true);
  });
  const std::clock_t c0 = std::clock();
  pool.help_until([&] { return done.load(); });
  const std::clock_t c1 = std::clock();
  releaser.join();
  const double cpu_ms = 1000.0 * static_cast<double>(c1 - c0) /
                        CLOCKS_PER_SEC;
  EXPECT_LT(cpu_ms, 120.0);  // generous: spin would cost ~300ms+
}

TEST(ThreadPool, HelpUntilWakesPromptlyOnPush) {
  // A helper deep in its backed-off sleep must still pick up new work
  // quickly: push() broadcasts while helpers sleep.
  ps::ThreadPool pool(1);
  std::atomic<bool> done{false};
  // Let the helper reach its capped nap, then measure push-to-run latency.
  std::thread pusher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    pool.submit([&] { done.store(true); });
  });
  const auto t0 = std::chrono::steady_clock::now();
  pool.help_until([&] { return done.load(); });
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  pusher.join();
  // 100ms until the push, then the task must land well inside the 2ms nap
  // cap (wide margin for CI scheduling noise).
  EXPECT_LT(elapsed, 200.0);
}

TEST(ThreadPool, HighPriorityTasksDrainFirst) {
  // Block the single worker, queue Normal tasks, then High tasks, then
  // release: every High task must execute before any Normal one, even
  // though the Normal tasks were submitted first. The test thread never
  // helps (plain future waits), so the worker's pop order is observed
  // directly.
  ps::ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();

  std::vector<int> order;
  std::mutex order_mu;
  std::vector<std::future<void>> futs;
  constexpr int kEach = 4;
  for (int i = 0; i < kEach; ++i) {
    futs.push_back(pool.submit([&, i] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(100 + i);  // Normal lane
    }));
  }
  for (int i = 0; i < kEach; ++i) {
    futs.push_back(pool.submit(ps::TaskPriority::High, [&, i] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);  // High lane
    }));
  }
  release.store(true);
  blocker.wait();
  for (auto& f : futs) f.wait();

  ASSERT_EQ(order.size(), 2u * kEach);
  for (int i = 0; i < kEach; ++i) {
    EXPECT_LT(order[static_cast<std::size_t>(i)], 100)
        << "high-priority task displaced by a normal one at slot " << i;
    EXPECT_GE(order[static_cast<std::size_t>(kEach + i)], 100);
  }
}

TEST(ThreadPool, DrainCompletesQueuedTasksAndPoolStaysUsable) {
  // Block the lone worker so submissions pile up queued-but-unstarted,
  // then drain() from the test thread: the queues must be empty when it
  // returns, every task must complete, and the pool must keep working
  // afterwards — the between-jobs idle point of a long-lived server.
  // drain() does not wait for a task the released worker already popped,
  // so completion is awaited through the futures.
  ps::ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto blocker = pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();

  std::atomic<int> ran{0};
  constexpr int kTasks = 16;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([&] { ran.fetch_add(1); }));
  }
  release.store(true);
  pool.drain();
  EXPECT_FALSE(pool.run_pending_task()) << "drain() left a queued task";
  pool.await(blocker);
  for (auto& f : futures) pool.await(f);
  EXPECT_EQ(ran.load(), kTasks);

  auto after = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(pool.await(after), 42);
}

TEST(ThreadPool, DestructorExecutesTasksSubmittedDuringTeardown) {
  // A draining task that chains follow-ups A -> B -> C: even when the
  // follow-ups land while the destructor is already joining, a submit()
  // that returned must never be dropped — the destroying thread sweeps
  // the queues after the workers exit.
  std::atomic<int> ran{0};
  {
    ps::ThreadPool pool(1);
    pool.submit([&, p = &pool] {
      ran.fetch_add(1);
      p->submit([&, p] {
        ran.fetch_add(1);
        p->submit([&] { ran.fetch_add(1); });
      });
    });
    // Destructor runs here, possibly before any of the chain executed.
  }
  EXPECT_EQ(ran.load(), 3);
}

TEST(ParallelFor, ThreadCapOfOneRunsInline) {
  std::set<std::thread::id> ids;
  ps::parallel_for(0, 64,
                   [&](std::size_t) { ids.insert(std::this_thread::get_id()); },
                   /*threads=*/1);
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

TEST(ParallelFor, HighPriorityRunsBeforeQueuedNormalTasks) {
  // Park every global worker, queue Normal tasks behind them, then start a
  // High parallel_for whose units wait for each other: once the workers
  // are released, each must pick a High executor before any Normal task,
  // so every unit starts before the first Normal task runs.
  ps::ThreadPool& pool = ps::ThreadPool::global();
  const unsigned workers = pool.worker_count();
  std::atomic<unsigned> parked{0};
  std::atomic<bool> release{false};
  std::vector<std::future<void>> blockers;
  for (unsigned w = 0; w < workers; ++w) {
    blockers.push_back(pool.submit([&] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    }));
  }
  while (parked.load() < workers) std::this_thread::yield();

  std::mutex order_mu;
  std::vector<char> order;
  auto note = [&](char c) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(c);
  };
  constexpr int kNormal = 8;
  std::vector<std::future<void>> normals;
  for (int i = 0; i < kNormal; ++i) {
    normals.push_back(pool.submit([&] { note('N'); }));
  }

  const std::size_t units = workers + 1;
  std::atomic<std::size_t> arrived{0};
  std::thread caller([&] {
    ps::parallel_for(
        0, units,
        [&](std::size_t) {
          note('H');
          arrived.fetch_add(1);
          while (arrived.load() < units) std::this_thread::yield();
        },
        workers + 1, ps::TaskPriority::High);
  });
  // The caller claims the first unit only after queueing its helpers.
  while (arrived.load() < 1) std::this_thread::yield();
  release.store(true);
  caller.join();
  for (auto& b : blockers) b.wait();
  for (auto& n : normals) n.wait();

  ASSERT_EQ(order.size(), units + kNormal);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i < units ? 'H' : 'N') << "slot " << i;
  }
}

TEST(ParallelFor, ThrowingUnitSurfacesToCaller) {
  const unsigned executors = ps::ThreadPool::global().worker_count() + 1;
  for (const auto priority : {ps::TaskPriority::Normal,
                              ps::TaskPriority::High}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(ps::parallel_for(
                     0, 64,
                     [&](std::size_t i) {
                       ran.fetch_add(1);
                       if (i == 17) throw std::runtime_error("unit 17");
                     },
                     executors, priority),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 18);
  }
  // The pool is still usable afterwards.
  std::atomic<int> after{0};
  ps::parallel_for(0, 16, [&](std::size_t) { after.fetch_add(1); },
                   executors);
  EXPECT_EQ(after.load(), 16);
}

TEST(Determinism, ShardRecordsIdenticalAcrossThreadsAndPriority) {
  pe::SweepSpec spec = pe::pair_spec(pareval::llm::all_pairs()[1]);
  spec.samples_per_task = 3;
  pe::ScoreCache cache;  // shared: hit or miss, the scores are identical
  pe::HarnessConfig config;
  config.score_cache = &cache;
  config.threads = 1;
  const pe::Suite& suite = pe::Suite::paper();
  const pe::ShardResult serial = pe::run_shard(suite, spec, 1, 2, config);
  ASSERT_FALSE(serial.records.empty());
  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const bool high : {false, true}) {
      config.threads = threads;
      config.high_priority = high;
      EXPECT_EQ(pe::run_shard(suite, spec, 1, 2, config), serial)
          << "threads " << threads << " high_priority " << high;
    }
  }
}

TEST(Determinism, CellSweepIdenticalAcrossThreadCounts) {
  const pe::SweepSpec spec = one_cell_spec(
      "nanoXOR", pareval::llm::Technique::NonAgentic,
      pareval::llm::all_profiles()[0].name, pareval::llm::all_pairs()[0],
      12);
  pe::ScoreCache serial_cache, parallel_cache;
  pe::HarnessConfig serial;
  serial.threads = 1;
  serial.score_cache = &serial_cache;
  pe::HarnessConfig parallel = serial;
  parallel.threads = ps::hardware_threads();
  parallel.score_cache = &parallel_cache;

  const auto a = run_one_cell(spec, serial);
  const auto b = run_one_cell(spec, parallel);
  EXPECT_EQ(a, b);
}

TEST(Determinism, PairSweepIdenticalAcrossThreadCountsAndCache) {
  pe::SweepSpec spec = pe::pair_spec(pareval::llm::all_pairs()[0]);
  spec.samples_per_task = 2;
  pe::HarnessConfig serial;
  serial.threads = 1;
  pe::ScoreCache cache;
  pe::HarnessConfig parallel = serial;
  parallel.threads = ps::hardware_threads();
  parallel.score_cache = &cache;

  const auto a = pe::run_sweep(pe::Suite::paper(), spec, serial);
  const auto b = pe::run_sweep(pe::Suite::paper(), spec, parallel);
  EXPECT_EQ(a, b);
}

TEST(ScoreCache, HitsOnIdenticalArtifacts) {
  const auto* app = pareval::apps::find_app("nanoXOR");
  ASSERT_NE(app, nullptr);
  const auto& repo = app->repos.at(pareval::apps::Model::Cuda);
  pe::ScoreCache cache;
  const auto first = cache.score(*app, repo, pareval::apps::Model::Cuda);
  const auto again = cache.score(*app, repo, pareval::apps::Model::Cuda);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.built, again.built);
  EXPECT_EQ(first.passed, again.passed);
  EXPECT_EQ(first.flat_log(), again.flat_log());
  EXPECT_EQ(first.stages, again.stages);

  cache.clear();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(ScoreCache, ContentHashSeparatesFileBoundaries) {
  pareval::vfs::Repo a, b;
  a.write("x", "ab");
  a.write("y", "c");
  b.write("x", "a");
  b.write("y", "bc");
  EXPECT_NE(pe::repo_content_hash(a), pe::repo_content_hash(b));
  pareval::vfs::Repo a2 = a;
  EXPECT_EQ(pe::repo_content_hash(a), pe::repo_content_hash(a2));
}

TEST(Determinism, PooledColdSweepCountsAreExact) {
  // Single-flight misses: every layer computes each distinct key once, so
  // two cold pooled sweeps report identical counters, and the score and
  // build layers miss exactly once per entry they hold.
  pe::SweepSpec spec = pe::SweepSpec::paper();
  spec.pairs = {"cuda->omp_offload"};
  spec.apps = {"nanoXOR", "microXOR"};
  spec.samples_per_task = 3;
  auto cold_sweep = [&spec] {
    pe::ScoreCache cache;
    pe::HarnessConfig config;
    config.score_cache = &cache;
    pe::run_sweep(pe::Suite::paper(), spec, config);
    EXPECT_EQ(cache.misses(), cache.size());
    EXPECT_EQ(cache.builds().misses(), cache.builds().size());
    return std::vector<std::size_t>{
        cache.hits(),          cache.misses(),
        cache.builds().hits(), cache.builds().misses(),
        cache.tus().hits(),    cache.tus().persisted_hits(),
        cache.tus().misses(),  cache.links().hits(),
        cache.links().persisted_hits(), cache.links().misses()};
  };
  const auto first = cold_sweep();
  EXPECT_GT(first[1], 0u);
  EXPECT_EQ(first, cold_sweep());
}

// ------------------------------------------------------- ShardedCache ----

using IntCache = ps::ShardedCache<int, int>;

TEST(ShardedCache, RacingColdMissesComputeOnce) {
  constexpr int kThreads = 16;
  IntCache cache(64);
  std::atomic<int> arrived{0};
  std::atomic<int> computes{0};
  std::vector<int> values(kThreads, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      values[t] = cache.get_or_compute(7, [&] {
        computes.fetch_add(1);
        // Hold the flight until every thread has arrived, so the others
        // miss while it is in progress.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (arrived.load() < kThreads &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        return 42;
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), static_cast<std::size_t>(kThreads - 1));
  for (const int v : values) EXPECT_EQ(v, 42);
}

TEST(ShardedCache, ThrowingComputeLeavesNoFlight) {
  IntCache cache(64);
  EXPECT_THROW(cache.get_or_compute(
                   3, []() -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_EQ(cache.size(), 0u);
  int computes = 0;
  EXPECT_EQ(cache.get_or_compute(3,
                                 [&] {
                                   ++computes;
                                   return 9;
                                 }),
            9);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_TRUE(cache.claim(4).has_value());  // an idle key claims at once
}

TEST(ShardedCache, LruBoundKeepsMostRecentlyUsed) {
  IntCache cache(2 * IntCache::kShards);  // two entries per shard
  auto compute = [](int v) { return [v] { return v; }; };
  auto present = [&cache](int key) {
    return cache.visit(key, [](int* v) { return v != nullptr; });
  };
  // Keys 0, 16 and 32 share a shard.
  cache.get_or_compute(0, compute(0));
  cache.get_or_compute(16, compute(16));
  cache.get_or_compute(0, compute(0));  // 0 is now more recent than 16
  cache.get_or_compute(32, compute(32));
  EXPECT_TRUE(present(0));
  EXPECT_FALSE(present(16));
  EXPECT_TRUE(present(32));
}

TEST(ShardedCache, SetCapacityShrinksAtOnce) {
  IntCache cache(1024);
  for (int k = 0; k < 64; ++k) cache.insert(k, k);
  EXPECT_EQ(cache.size(), 64u);
  cache.set_capacity(1);  // clamps to one entry per shard
  EXPECT_EQ(cache.size(), IntCache::kShards);
}

TEST(ShardedCache, ClearAndPinnedStats) {
  IntCache cache(64);
  cache.get_or_compute(1, [] { return 1; });
  cache.get_or_compute(1, [] { return 1; });
  cache.get_or_compute(2, [] { return 2; });
  EXPECT_EQ(cache.stats().dump(), "{\"hits\":1,\"misses\":2,\"entries\":2}");
  cache.clear();
  EXPECT_EQ(cache.stats().dump(), "{\"hits\":0,\"misses\":0,\"entries\":0}");
  int computes = 0;
  cache.get_or_compute(1, [&] { return ++computes; });
  EXPECT_EQ(computes, 1);
}
