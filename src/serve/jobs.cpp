#include "serve/jobs.hpp"

#include <algorithm>
#include <utility>

#include "eval/spec.hpp"
#include "support/par.hpp"

namespace pareval::serve {

using support::TaskPriority;
using support::ThreadPool;

const char* job_state_key(JobState state) {
  switch (state) {
    case JobState::Running:
      return "running";
    case JobState::Done:
      return "done";
    case JobState::Cancelled:
      return "cancelled";
  }
  return "unknown";
}

JobQueue::JobQueue(const eval::Suite& suite, unsigned max_inflight)
    : suite_(suite),
      max_inflight_(max_inflight == 0
                        ? ThreadPool::global().worker_count()
                        : max_inflight) {}

JobQueue::~JobQueue() { wait_idle(); }

int JobQueue::submit(const eval::SweepSpec& spec,
                     const eval::HarnessConfig& base_config,
                     bool high_priority, JobSampleFn on_sample,
                     JobDoneFn on_done) {
  auto job = std::make_shared<Job>();
  job->high_priority = high_priority;
  job->spec = spec;
  job->spec_hash = eval::spec_hash(spec);
  job->cells = eval::sweep_cells(suite_, spec);
  const eval::ShardPlan plan =
      eval::plan_shard(job->cells.size(), spec.samples_per_task, 0, 1);
  job->units = plan.units;
  job->config = base_config;
  job->on_sample = std::move(on_sample);
  job->on_done = std::move(on_done);

  bool empty = false;
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    job->id = id;
    jobs_.emplace(id, job);
    ++active_;
    if (job->units.empty()) {
      // A spec can legally enumerate zero cells (everything gated out).
      // Settle from a pool task like every other job: on_done must never
      // fire on the submitting thread (callers may hold their own locks
      // across submit).
      empty = true;
    } else {
      rr_order_.push_back(id);
      dispatch_locked();
    }
  }
  if (empty) {
    ThreadPool::global().submit([this, job] {
      std::function<void()> done;
      {
        std::lock_guard<std::mutex> lock(mu_);
        done = finish_locked(job);
        if (idle_locked()) idle_cv_.notify_all();
      }
      if (done) done();
    });
  }
  return id;
}

std::shared_ptr<JobQueue::Job> JobQueue::pick_locked() {
  if (rr_order_.empty()) return nullptr;
  // Two passes over the rotation: high-priority jobs first, then normal.
  // rr_next_ advances once per successful pick, so jobs within a class
  // take turns unit-for-unit.
  for (const bool want_high : {true, false}) {
    const std::size_t n = rr_order_.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t slot = (rr_next_ + k) % n;
      auto it = jobs_.find(rr_order_[slot]);
      if (it == jobs_.end()) continue;
      const std::shared_ptr<Job>& job = it->second;
      if (job->state != JobState::Running ||
          job->high_priority != want_high ||
          job->next_unit >= job->units.size()) {
        continue;
      }
      rr_next_ = (slot + 1) % n;
      return job;
    }
  }
  return nullptr;
}

void JobQueue::dispatch_locked() {
  while (inflight_ < max_inflight_) {
    std::shared_ptr<Job> job = pick_locked();
    if (!job) return;
    const auto [cell, sample] = job->units[job->next_unit++];
    ++inflight_;
    const auto lane =
        job->high_priority ? TaskPriority::High : TaskPriority::Normal;
    ThreadPool::global().submit(lane, [this, job, cell, sample] {
      bool ran = false;
      eval::SampleRecord record;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ran = job->state == JobState::Running;
      }
      if (ran) {
        record = {cell, sample,
                  eval::run_cell_sample(suite_, job->cells[cell],
                                        job->config, job->spec.seed,
                                        sample)};
        // Stream outside the queue lock: the sink serializes on its own
        // transport and must never order against dispatch.
        if (job->on_sample) job->on_sample(job->id, record);
      }
      std::function<void()> done;
      {
        std::lock_guard<std::mutex> lock(mu_);
        --inflight_;
        done = settle_unit_locked(job, ran);
        dispatch_locked();
        if (idle_locked()) idle_cv_.notify_all();
      }
      if (done) done();
    });
  }
}

std::function<void()> JobQueue::settle_unit_locked(
    const std::shared_ptr<Job>& job, bool ran) {
  ++job->settled;
  ++(ran ? job->completed : job->skipped);
  if (job->settled < job->units.size()) return {};
  return finish_locked(job);
}

std::function<void()> JobQueue::finish_locked(
    const std::shared_ptr<Job>& job) {
  if (job->state == JobState::Running) job->state = JobState::Done;
  rr_order_.erase(std::remove(rr_order_.begin(), rr_order_.end(), job->id),
                  rr_order_.end());
  if (rr_next_ >= rr_order_.size()) rr_next_ = 0;
  --active_;
  history_.push_back(info_of(*job));
  if (history_.size() > kJobHistory) history_.pop_front();
  jobs_.erase(job->id);
  const bool cancelled = job->state == JobState::Cancelled;
  const std::size_t records = job->completed;
  const int id = job->id;
  auto cb = job->on_done;
  if (!cb) return {};
  // The callback runs after the caller drops mu_; wait_idle (and so the
  // destructor) must not return before it has.
  ++running_callbacks_;
  return [this, cb, id, cancelled, records] {
    cb(id, cancelled, records);
    std::lock_guard<std::mutex> lock(mu_);
    --running_callbacks_;
    if (idle_locked()) idle_cv_.notify_all();
  };
}

bool JobQueue::cancel(int id, std::size_t* skipped) {
  std::function<void()> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->state != JobState::Running ||
        it->second->units.empty()) {
      // Unknown, settled (settled jobs leave jobs_), or already
      // cancelled. Zero-unit jobs settle via their own pool task; there
      // is nothing to strike from the queue.
      return false;
    }
    // A copy, not a reference: finishing the job erases the table's
    // pointer, and this one keeps the job alive until the scope ends.
    const std::shared_ptr<Job> job = it->second;
    job->state = JobState::Cancelled;
    // Units never dispatched settle right here as skipped; in-flight
    // ones settle from their pool task (those dispatched-but-unstarted
    // observe the cancelled state and skip themselves).
    const std::size_t undispatched = job->units.size() - job->next_unit;
    if (skipped != nullptr) *skipped = undispatched;
    job->next_unit = job->units.size();
    job->settled += undispatched;
    job->skipped += undispatched;
    if (job->settled >= job->units.size()) done = finish_locked(job);
    if (idle_locked()) idle_cv_.notify_all();
  }
  if (done) done();
  return true;
}

JobInfo JobQueue::info_of(const Job& job) {
  JobInfo info;
  info.id = job.id;
  info.state = job.state;
  info.high_priority = job.high_priority;
  info.spec_hash = job.spec_hash;
  info.cells = job.cells.size();
  info.total_units = job.units.size();
  info.completed_units = job.completed;
  info.skipped_units = job.skipped;
  return info;
}

std::vector<JobInfo> JobQueue::jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobInfo> out(history_.begin(), history_.end());
  out.reserve(history_.size() + jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(info_of(*job));
  std::sort(out.begin(), out.end(),
            [](const JobInfo& a, const JobInfo& b) { return a.id < b.id; });
  return out;
}

std::size_t JobQueue::queued_units() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t queued = 0;
  for (const int id : rr_order_) {
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->state != JobState::Running) {
      continue;
    }
    queued += it->second->units.size() - it->second->next_unit;
  }
  return queued;
}

std::size_t JobQueue::inflight_units() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

std::size_t JobQueue::active_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

void JobQueue::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return idle_locked(); });
}

}  // namespace pareval::serve
