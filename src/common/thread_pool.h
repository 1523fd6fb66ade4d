#ifndef LSENS_COMMON_THREAD_POOL_H_
#define LSENS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

namespace lsens {

// Fixed-size thread pool with a single shared FIFO queue — no work
// stealing, no dynamic resizing. Built for coarse-grained tasks (a
// concurrent reader session each, in the serving tests and bench), not for
// fine-grained task graphs. The engines themselves run serially.
//
// Usage contract:
//   - Submit() enqueues a task; the pool passes the executing worker's
//     index (in [0, num_workers())) so callers can hand each worker
//     thread-private state.
//   - Tasks are accounted per submitting thread: Wait() blocks until every
//     task *the calling thread* submitted has finished, then rethrows the
//     first exception one of those tasks raised (later exceptions are
//     dropped; remaining tasks still run). Concurrent top-level callers
//     sharing one pool are therefore fully independent — neither waits on
//     nor receives errors from the other's tasks. After Wait() the pool
//     is reusable for the next batch.
//   - Nested submission is rejected: Submit() and Wait() LSENS_CHECK-fail
//     when called from a pool worker thread (ThreadPool::OnWorkerThread()
//     detects one).
//   - The destructor drains the queue, then joins all workers.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  // Enqueues `task`; it runs as task(worker_index) on some worker. The
  // task is charged to the calling thread's batch.
  void Submit(std::function<void(size_t)> task);

  // Blocks until every task the calling thread submitted has completed;
  // rethrows the first exception among them (the pool stays usable
  // afterwards). A no-op for a thread with no outstanding submissions.
  void Wait();

  // True iff the calling thread is a worker of *any* ThreadPool. Used to
  // refuse nested submission, and by DefaultExecContext's debug check.
  static bool OnWorkerThread();

 private:
  // One per submitting thread, alive from its first Submit() to the end
  // of the Wait() that drains it. std::map node stability lets queued
  // tasks hold plain pointers.
  struct Batch {
    size_t pending = 0;
    std::exception_ptr first_error;
  };
  struct Task {
    std::function<void(size_t)> fn;
    Batch* batch;
  };

  void WorkerLoop(size_t index);

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue non-empty or stop
  std::condition_variable done_cv_;   // Wait(): own batch drained
  std::deque<Task> queue_;
  std::map<std::thread::id, Batch> batches_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// The process-wide pool, created lazily on first use and sized
// max(hardware_concurrency, 8) — the floor keeps concurrent reader
// sessions genuinely concurrent on small CI machines (idle workers cost
// only a blocked thread). Override with the LSENS_POOL_WORKERS environment
// variable (read once, at creation).
ThreadPool& GlobalThreadPool();

}  // namespace lsens

#endif  // LSENS_COMMON_THREAD_POOL_H_
