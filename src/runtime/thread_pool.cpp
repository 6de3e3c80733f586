#include "runtime/thread_pool.hpp"

#include <algorithm>

namespace nvsoc::runtime {

namespace {

std::atomic<std::uint64_t> g_pools_created{0};

std::size_t hardware_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers, std::size_t max_workers) {
  if (workers == 0) workers = hardware_workers();
  // An explicit initial size is always honoured: the default cap is
  // hardware threads *or* the initial size, whichever is larger; an
  // explicit cap below the initial size clamps the initial spawn instead.
  max_workers_ = max_workers == 0 ? std::max(hardware_workers(), workers)
                                  : std::max<std::size_t>(1, max_workers);
  workers = std::min(workers, max_workers_);
  min_workers_ = workers;
  threads_.reserve(workers);
  try {
    for (std::size_t w = 0; w < workers; ++w) {
      threads_.emplace_back([this, w] { worker_loop(w, /*seen_generation=*/0); });
      ++live_;
    }
  } catch (...) {
    // Thread exhaustion mid-spawn: the already-running workers are parked
    // in worker_loop and would keep the process alive (and ~vector would
    // terminate on joinable threads) unless they are stopped and joined
    // before the exception escapes.
    {
      MutexLock lock(mutex_);
      stop_ = true;
    }
    job_ready_.notify_all();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    throw;
  }
  g_pools_created.fetch_add(1, std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  job_ready_.notify_all();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  join_retired();
}

void ThreadPool::join_retired() const {
  std::vector<std::thread> done;
  {
    MutexLock lock(mutex_);
    done.swap(retired_);
  }
  // Join outside the lock: the threads have already returned from
  // worker_loop, so these joins only wait for OS-level thread teardown.
  for (auto& thread : done) thread.join();
}

std::size_t ThreadPool::worker_count() const {
  join_retired();
  MutexLock lock(mutex_);
  return live_;
}

std::size_t ThreadPool::max_workers() const {
  MutexLock lock(mutex_);
  return max_workers_;
}

void ThreadPool::set_max_workers(std::size_t cap) {
  MutexLock lock(mutex_);
  if (cap == 0) cap = hardware_workers();
  max_workers_ = std::max(cap, live_);
}

void ThreadPool::set_idle_timeout(std::chrono::milliseconds timeout) {
  {
    MutexLock lock(mutex_);
    idle_timeout_ = timeout;
  }
  // Parked workers re-evaluate their wait mode (timed vs untimed) on wakeup.
  job_ready_.notify_all();
}

std::chrono::milliseconds ThreadPool::idle_timeout() const {
  MutexLock lock(mutex_);
  return idle_timeout_;
}

std::uint64_t ThreadPool::workers_reaped() const {
  MutexLock lock(mutex_);
  return reaped_;
}

void ThreadPool::grow_if_pressured_locked() {
  if (queue_.size() <= live_ - busy_ || live_ >= max_workers_) return;
  // Reuse the slot of a retired worker when one exists, so worker ids stay
  // dense; otherwise open a new slot.
  std::size_t worker = 0;
  while (worker < threads_.size() && threads_[worker].joinable()) ++worker;
  // Capture the generation at *spawn* time (under the lock): a worker
  // spawned while a parallel_for job is in flight must not join it — the
  // job's barrier counted only the workers that existed when it started.
  const std::uint64_t seen = generation_;
  try {
    if (worker == threads_.size()) threads_.emplace_back();
    threads_[worker] = std::thread([this, worker, seen] {
      worker_loop(worker, seen);
    });
    ++live_;
  } catch (...) {
    // Best-effort growth: under thread exhaustion the queued task simply
    // waits for an existing worker.
  }
}

void ThreadPool::worker_loop(std::size_t worker,
                             std::uint64_t seen_generation) {
  MutexLock lock(mutex_);
  for (;;) {
    while (!stop_ && queue_.empty() && generation_ == seen_generation) {
      // Elastic workers (above the construction floor) arm a timed wait
      // when the reaper is enabled; any wakeup — work, a new job, or a
      // set_idle_timeout notify — re-evaluates the mode.
      if (idle_timeout_.count() > 0 && live_ > min_workers_) {
        if (job_ready_.wait_for(mutex_, idle_timeout_) ==
                std::cv_status::timeout &&
            !stop_ && queue_.empty() && generation_ == seen_generation &&
            idle_timeout_.count() > 0 && live_ > min_workers_) {
          // Quiet period elapsed with nothing to do: retire. The handle
          // moves to retired_ under the lock, so the slot is immediately
          // reusable by growth and joins happen off this thread.
          --live_;
          ++reaped_;
          retired_.push_back(std::move(threads_[worker]));
          return;
        }
      } else {
        job_ready_.wait(mutex_);
      }
    }

    // A pending parallel_for job takes priority over queued tasks: the
    // job's barrier waits on every worker, so none may wander off into the
    // queue first.
    if (generation_ != seen_generation) {
      seen_generation = generation_;
      const auto* task = task_;
      const std::size_t count = count_;
      while (next_ < count) {
        const std::size_t index = next_++;
        ++busy_;
        lock.unlock();
        std::exception_ptr thrown;
        try {
          (*task)(worker, index);
        } catch (...) {
          thrown = std::current_exception();
        }
        lock.lock();
        --busy_;
        if (thrown && (error_ == nullptr || index < error_index_)) {
          error_index_ = index;
          error_ = thrown;
        }
      }
      if (--active_ == 0) job_done_.notify_all();
      continue;
    }

    if (!queue_.empty()) {
      std::function<void()> task = std::move(queue_.front());
      queue_.pop_front();
      ++busy_;
      lock.unlock();
      task();  // a packaged_task: exceptions land in its future
      lock.lock();
      --busy_;
      continue;
    }

    // stop_ is honoured only once the queue is drained, so every future
    // handed out by submit() completes before the destructor returns.
    if (stop_) return;
  }
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& task) {
  if (count == 0) return;
  MutexLock lock(mutex_);
  task_ = &task;
  count_ = count;
  next_ = 0;
  active_ = live_;
  error_ = nullptr;
  error_index_ = 0;
  ++generation_;
  job_ready_.notify_all();
  while (active_ != 0) job_done_.wait(mutex_);
  task_ = nullptr;
  if (error_ != nullptr) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

std::size_t ThreadPool::recommended_workers(std::size_t task_count) {
  return std::max<std::size_t>(1, std::min(hardware_workers(), task_count));
}

std::uint64_t ThreadPool::total_created() {
  return g_pools_created.load(std::memory_order_relaxed);
}

}  // namespace nvsoc::runtime
