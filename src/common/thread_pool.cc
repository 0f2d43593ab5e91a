#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <utility>

namespace prefsim
{

namespace
{
/** Set on pool workers and parallelFor threads: parallelFor runs
 *  inline there. */
thread_local bool t_on_worker = false;
} // namespace

unsigned
ThreadPool::resolveThreads(unsigned requested)
{
    if (requested > 0)
        return std::min(requested, kMaxThreads);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = resolveThreads(threads);
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

void
ThreadPool::waitAll()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::workerLoop()
{
    t_on_worker = true;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) // stop_ set and nothing left to run.
            return;
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        lock.unlock();
        task();
        lock.lock();
        --active_;
        if (queue_.empty() && active_ == 0)
            idle_cv_.notify_all();
    }
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    const std::size_t threads =
        t_on_worker
            ? 1
            : std::min<std::size_t>(n, ThreadPool::resolveThreads(0));
    if (threads <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;)
            fn(i);
    };
    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t t = 1; t < threads; ++t) {
        helpers.emplace_back([&drain] {
            t_on_worker = true;
            drain();
        });
    }
    // The caller takes its share too; a nested parallelFor inside fn
    // must run inline on it as on the helpers.
    t_on_worker = true;
    drain();
    t_on_worker = false;
    for (std::thread &h : helpers)
        h.join();
}

} // namespace prefsim
