/**
 * @file
 * A fixed-size worker pool — the sweep engine's `--jobs` workers — and
 * parallelFor, the fork-join loop inside one stage (annotation).
 *
 * Deliberately minimal: FIFO task queue, submit-from-anywhere (including
 * from inside a running task, which is how the sweep DAG releases
 * dependent stages), and a waitAll() barrier that returns once the queue
 * is drained and every worker is idle. Tasks must not throw — the
 * simulator's error paths terminate the process via fatal()/panic()
 * instead of unwinding.
 */

#ifndef PREFSIM_COMMON_THREAD_POOL_HH
#define PREFSIM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prefsim
{

class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 selects the hardware concurrency
     *        (minimum 1).
     */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task; runnable from any thread, including a worker. */
    void submit(std::function<void()> task);

    /**
     * Block until the queue is empty and no task is executing. Safe only
     * from non-worker threads (a worker waiting on itself deadlocks).
     */
    void waitAll();

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Largest worker count a pool is built with; larger requests are
     *  clamped (the bench CLI rejects them outright). */
    static constexpr unsigned kMaxThreads = 1024;

    /** The worker count @p requested resolves to (0 = all cores;
     *  at most kMaxThreads). */
    static unsigned resolveThreads(unsigned requested);

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable work_cv_; ///< Signals queued work / shutdown.
    std::condition_variable idle_cv_; ///< Signals the pool went idle.
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t active_ = 0; ///< Tasks currently executing.
    bool stop_ = false;
};

/**
 * Run fn(0) .. fn(n - 1), each index exactly once, on
 * min(n, hardware concurrency) threads, the calling thread one of
 * them; returns when every call has. Indices are handed out in order
 * as threads free up, so calls must be independent: each writes only
 * its own slot. Called on a ThreadPool worker (or inside another
 * parallelFor) it runs inline, in index order, so a sweep at `--jobs N`
 * still keeps at most N threads busy. Like pool tasks, @p fn must not
 * throw.
 */
void parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn);

} // namespace prefsim

#endif // PREFSIM_COMMON_THREAD_POOL_HH
