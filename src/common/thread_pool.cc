#include "common/thread_pool.hh"

#include <algorithm>
#include <utility>

namespace prefsim
{

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

} // namespace prefsim
