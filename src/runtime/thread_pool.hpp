// Elastic worker pool for data-parallel batch execution and streaming
// task submission.
//
// Each backend run builds its own SoC/VP instance, so independent images
// parallelise cleanly; what the pool adds is dynamic load balancing (a
// shared index counter — image costs vary with polling-loop alignment) and
// a stable worker id so callers can keep per-worker state (e.g. one
// PreparedModel copy per worker instead of per image).
//
// Two execution paths share the same workers:
//   parallel_for(count, task)  one blocking, load-balanced job (batch
//                              barrier semantics)
//   submit(fn) -> future       a queued task that runs as soon as any
//                              worker is free (streaming arrivals — no
//                              barrier, results collected via futures)
//
// Pools are meant to live as long as their owning session/process: workers
// start once and are reused across every job and submitted task. The pool
// is *elastic*: the construction-time worker count is only the starting
// size, and submit() grows the pool — up to max_workers() — whenever tasks
// queue up with no idle worker to take them, so a pool sized by an early
// small batch still scales to later bursty arrivals. With an idle timeout
// set (set_idle_timeout; off by default), elastic workers that stay idle
// past the timeout retire back down to the construction-time floor, so a
// long-lived serving pool returns its burst threads to the host between
// traffic peaks instead of parking them forever.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace nvsoc::runtime {

class ThreadPool {
 public:
  /// `workers` == 0 picks one worker per hardware thread (at least 1); the
  /// value is the *initial* size only (see class comment). `max_workers`
  /// caps elastic growth: 0 picks hardware threads, but never less than
  /// the initial size, so an explicit `workers` request is always honoured.
  /// Exception-safe: if spawning thread k throws (std::system_error under
  /// thread exhaustion), the k-1 already-running workers are signalled and
  /// joined before the exception escapes.
  explicit ThreadPool(std::size_t workers = 0, std::size_t max_workers = 0);

  /// Drains every queued submit() task (their futures all complete), then
  /// stops and joins the workers. Must not run concurrently with
  /// parallel_for.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current live worker count: grows under queue pressure, shrinks back
  /// toward the construction-time floor when an idle timeout is set.
  /// Joins any already-retired worker threads as a side effect, so the
  /// count never includes threads that have left the pool.
  std::size_t worker_count() const;
  /// The elastic-growth cap.
  std::size_t max_workers() const;
  /// Raise (or, down to the current worker count, lower) the growth cap;
  /// 0 resets it to hardware threads. The pool never drops workers below
  /// the cap on its own — only the idle reaper retires them.
  void set_max_workers(std::size_t cap);

  /// Idle-timeout reaper for elastic workers: a worker above the
  /// construction-time floor that sees no work for `timeout` retires (its
  /// thread exits and is joined). Zero — the default — disables reaping.
  /// Takes effect immediately: parked workers are woken to re-arm their
  /// wait. Thread-safe.
  void set_idle_timeout(std::chrono::milliseconds timeout);
  std::chrono::milliseconds idle_timeout() const;
  /// How many elastic workers the idle reaper has retired so far.
  std::uint64_t workers_reaped() const;

  /// Run task(worker, index) for every index in [0, count), dynamically
  /// load-balanced across the workers; blocks until every index has
  /// completed. `worker` identifies the executing thread (ids of retired
  /// workers are reused by later growth). If tasks throw, every index
  /// still executes and the exception of the lowest failing index is
  /// rethrown here. One job at a time: parallel_for must not be re-entered
  /// from a task. Queued submit() tasks already running delay the job's
  /// completion; queued tasks not yet started wait until the job finishes
  /// (workers spawned by elastic growth mid-job may pick them up early —
  /// they never join a job that started before them).
  void parallel_for(
      std::size_t count,
      const std::function<void(std::size_t worker, std::size_t index)>& task);

  /// Enqueue `fn` to run on the first free worker; returns the future for
  /// its result. The task's value — or the exception it threw — travels
  /// through the future, so submit() itself never observes task failures.
  /// Thread-safe against concurrent submit() calls. If every worker is
  /// busy and the cap allows, a new worker is spawned for the queued task
  /// (growth is best-effort: under thread exhaustion the task simply waits
  /// for an existing worker).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      MutexLock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
      grow_if_pressured_locked();
    }
    job_ready_.notify_one();
    return future;
  }

  /// Worker count for a batch of `task_count` items: one per hardware
  /// thread, but never more than there are items.
  static std::size_t recommended_workers(std::size_t task_count);

  /// How many ThreadPools this process has constructed — lets tests assert
  /// that a serving session builds exactly one pool for its lifetime
  /// instead of one per batch. Elastic growth adds workers to an existing
  /// pool and does not count here.
  static std::uint64_t total_created();

 private:
  /// `seen_generation` is the parallel_for generation at *spawn* time:
  /// construction workers pass 0; growth workers pass the live value so
  /// they never join a job whose barrier did not count them.
  void worker_loop(std::size_t worker, std::uint64_t seen_generation);
  /// Spawn one more worker when more tasks are queued than there are idle
  /// workers and the cap allows. "Idle" means not running a task
  /// (live_ - busy_), so a freshly spawned worker that has not parked in
  /// the wait yet still counts as available: it takes a queued task as
  /// soon as it reaches worker_loop. Reuses the slot of a retired worker
  /// when one exists. Best-effort: spawn failures are swallowed (the
  /// queued task waits for an existing worker instead).
  void grow_if_pressured_locked() REQUIRES(mutex_);
  /// Join the threads of workers that have already retired (they have left
  /// worker_loop, so the joins return promptly). Must be called without
  /// mutex_ held.
  void join_retired() const;

  mutable Mutex mutex_;
  CondVar job_ready_;
  CondVar job_done_;

  /// Slots for live workers; a retired worker's slot holds a moved-from
  /// (non-joinable) handle until growth reuses it. threads_.size() is the
  /// high-water mark, live_ the current worker count.
  std::vector<std::thread> threads_ GUARDED_BY(mutex_);
  /// Handles of retired workers awaiting a join (see join_retired).
  mutable std::vector<std::thread> retired_ GUARDED_BY(mutex_);

  /// submit() tasks, FIFO.
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  const std::function<void(std::size_t, std::size_t)>* task_
      GUARDED_BY(mutex_) = nullptr;
  /// Elastic-growth cap.
  std::size_t max_workers_ GUARDED_BY(mutex_) = 0;
  /// Reaper floor: the construction spawn.
  std::size_t min_workers_ GUARDED_BY(mutex_) = 0;
  /// Workers currently in worker_loop.
  std::size_t live_ GUARDED_BY(mutex_) = 0;
  /// 0 = never reap.
  std::chrono::milliseconds idle_timeout_ GUARDED_BY(mutex_){0};
  /// Workers retired by the idle reaper.
  std::uint64_t reaped_ GUARDED_BY(mutex_) = 0;
  /// Workers running a queued task or a parallel_for index. Every other
  /// live worker — parked, or spawned and not yet parked — is idle and
  /// can take a queued task, which is what growth measures against.
  std::size_t busy_ GUARDED_BY(mutex_) = 0;
  /// Indices in the current job.
  std::size_t count_ GUARDED_BY(mutex_) = 0;
  /// Next unclaimed index.
  std::size_t next_ GUARDED_BY(mutex_) = 0;
  /// Workers still inside the current job.
  std::size_t active_ GUARDED_BY(mutex_) = 0;
  /// Bumped per job so workers run it once.
  std::uint64_t generation_ GUARDED_BY(mutex_) = 0;
  bool stop_ GUARDED_BY(mutex_) = false;

  /// Lowest index that threw (valid if error_ set).
  std::size_t error_index_ GUARDED_BY(mutex_);
  std::exception_ptr error_ GUARDED_BY(mutex_);
};

}  // namespace nvsoc::runtime
