#pragma once
// serve::JobQueue — the sweep server's scheduler: many concurrent
// SweepSpec jobs sharing one process, one warm ScoreCache, and the one
// global ThreadPool.
//
// Each submitted job is expanded to its full (cell × sample) unit list
// (the 1-shard plan, so a job's folded records are exactly what
// sweep_worker --shard-count 1 would produce). Units are dispatched one
// pool task at a time by a central scheduler instead of being dumped on
// the pool wholesale:
//
//  - per-job priority maps onto the pool's two lanes: a unit of a high
//    job is submitted on TaskPriority::High, so it drains before any
//    normal unit that is already queued;
//  - fair share: within a priority class the scheduler hands out units
//    round-robin across jobs, so a late-arriving small job interleaves
//    with a large one instead of queueing behind its thousands of units;
//  - bounded occupancy: at most `max_inflight` units (default: the
//    pool's worker count) are on the pool at once, so the scheduler —
//    not FIFO submission order — decides what runs next, and cancelled
//    jobs stop consuming CPU after at most the in-flight window.
//
// Results are deterministic regardless of all of this: every unit draws
// from its coordinate-derived RNG stream, so execution order is
// irrelevant and a job's records always recombine bit-identically with
// the batch tools (the property the server's CI gate enforces).
//
// Delivery rides the harness's SampleRecord streaming contract (see
// eval::SampleProgressFn): each completed unit invokes the job's
// on_sample hook with its coordinate-tagged record, from the pool thread
// that ran it. Both hooks also receive the job id — a unit can complete
// before submit() returns, so the id cannot come from the return value.
// on_done fires exactly once, after every unit has settled (ran and
// streamed, or was skipped by a cancel).
//
// A settled job leaves the queue: its JobInfo summary moves into a
// fixed-size history of the newest kJobHistory settled jobs and the job
// itself (spec, cells, units, callbacks) is freed, so a long-running
// server's memory does not grow with the number of jobs it has served.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "eval/harness.hpp"
#include "eval/shard.hpp"

namespace pareval::serve {

enum class JobState { Running, Done, Cancelled };

/// Per-completed-unit streaming hook (pool threads, concurrent).
using JobSampleFn = std::function<void(int job, const eval::SampleRecord&)>;
/// Fired exactly once when the job settles. `records` = units that ran.
using JobDoneFn =
    std::function<void(int job, bool cancelled, std::size_t records)>;

const char* job_state_key(JobState state);

/// Snapshot of one job for the status verb.
struct JobInfo {
  int id = 0;
  JobState state = JobState::Running;
  bool high_priority = false;
  std::uint64_t spec_hash = 0;
  std::size_t cells = 0;
  std::size_t total_units = 0;
  std::size_t completed_units = 0;  // ran and streamed
  std::size_t skipped_units = 0;    // never ran (cancelled)
};

class JobQueue {
 public:
  /// How many settled-job summaries jobs() keeps (the newest ones).
  static constexpr std::size_t kJobHistory = 64;

  /// `suite` must outlive the queue (jobs hold SweepCell pointers into
  /// its registries). `max_inflight` 0 = the global pool's worker count.
  explicit JobQueue(const eval::Suite& suite, unsigned max_inflight = 0);
  /// Blocks until every active job has settled (callbacks included).
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueue a job and start dispatching immediately. `base_config`
  /// contributes the execution knobs (engine, keep_logs, cache); samples
  /// and seed come from the spec, exactly like run_shard. on_sample is
  /// invoked per completed unit from pool threads (concurrently);
  /// on_done exactly once after the last unit settles. Returns the job
  /// id (> 0). The spec must already be validated against the suite.
  int submit(const eval::SweepSpec& spec,
             const eval::HarnessConfig& base_config, bool high_priority,
             JobSampleFn on_sample, JobDoneFn on_done);

  /// Cancel a job: units not yet dispatched never run; in-flight units
  /// finish and stream. False when the id is unknown or the job already
  /// settled. `skipped` (optional) receives the count of units the
  /// cancel struck from the queue.
  bool cancel(int job, std::size_t* skipped = nullptr);

  /// Snapshot of every active job plus the newest kJobHistory settled
  /// ones, ascending id.
  std::vector<JobInfo> jobs() const;

  /// Units queued but not yet dispatched, across active jobs.
  std::size_t queued_units() const;
  /// Units currently on the pool.
  std::size_t inflight_units() const;
  std::size_t active_jobs() const;

  /// Block until no job is active, no unit is in flight, and every
  /// on_done has returned. New submits during the wait extend it — pair
  /// with an external "stop accepting" flag for a graceful drain.
  void wait_idle();

 private:
  struct Job {
    int id = 0;
    bool high_priority = false;
    JobState state = JobState::Running;
    eval::SweepSpec spec;
    std::uint64_t spec_hash = 0;
    std::vector<eval::SweepCell> cells;
    std::vector<std::pair<int, int>> units;  // (cell, sample), plan order
    std::size_t next_unit = 0;               // dispatch cursor
    std::size_t settled = 0;                 // completed + skipped
    std::size_t completed = 0;
    std::size_t skipped = 0;
    eval::HarnessConfig config;  // run_cell_sample's execution knobs
    JobSampleFn on_sample;
    JobDoneFn on_done;
  };

  /// Fair-share pick: the next job with undispatched units, high
  /// priority class first, round-robin within the class. nullptr when
  /// nothing is dispatchable. Caller holds mu_.
  std::shared_ptr<Job> pick_locked();
  /// Top up the pool to max_inflight_ units. Caller holds mu_.
  void dispatch_locked();
  /// One unit finished (ran or skipped); returns the job's on_done to
  /// invoke outside the lock when this settles the job.
  std::function<void()> settle_unit_locked(const std::shared_ptr<Job>& job,
                                           bool ran);
  /// The job's last unit settled: retire it from the rotation and the job
  /// table into history_, and return its on_done (empty when unset).
  /// Callers keep their own shared_ptr, since this erases the table's.
  std::function<void()> finish_locked(const std::shared_ptr<Job>& job);
  static JobInfo info_of(const Job& job);
  /// No active job, no unit in flight, and no on_done still running.
  /// Caller holds mu_.
  bool idle_locked() const {
    return active_ == 0 && inflight_ == 0 && running_callbacks_ == 0;
  }

  const eval::Suite& suite_;
  std::size_t max_inflight_ = 0;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::map<int, std::shared_ptr<Job>> jobs_;  // active jobs only
  std::deque<JobInfo> history_;               // settled, oldest first
  std::vector<int> rr_order_;  // active job ids, rotation order
  std::size_t rr_next_ = 0;
  std::size_t inflight_ = 0;
  std::size_t active_ = 0;
  std::size_t running_callbacks_ = 0;  // on_done calls not yet returned
  int next_id_ = 1;
};

}  // namespace pareval::serve
