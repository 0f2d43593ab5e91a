/**
 * @file
 * The metrics registry: named counters, gauges and fixed-bucket
 * histograms that simulator components publish into instead of growing
 * ever more ad-hoc struct fields.
 *
 * Design constraints, in order:
 *
 *  1. **Zero cost when disabled.** Simulator components never touch a
 *     metric directly: they emit events into a per-run obs::Sink and
 *     the MetricsTap below folds them into the registry. Without an
 *     ObsContext there is no sink, and each hook site costs one
 *     predictable null check.
 *  2. **Thread-safe updates, paid once per run.** A sweep runs many
 *     simulations concurrently into one shared registry, so every
 *     mutation of a registry metric is a relaxed atomic. The simulator
 *     does not pay that per event: its MetricsTap counts into plain
 *     per-run counters and histograms and folds them into the registry
 *     when the run commits. Every field is a sum or a max, so the
 *     merged registry is exact in any commit order. Exact cross-thread
 *     ordering of reads taken while writers are active is not
 *     guaranteed (snapshots are taken after runPending() joins the
 *     workers).
 *  3. **Stable identity.** Metrics are created once by name and live as
 *     long as the registry; pointers handed to components never move
 *     (the registry stores them behind unique_ptr).
 *
 * Histograms are fixed-bucket: construction takes ascending boundaries
 * b0 < b1 < ... < bn; bucket i counts values in [b_i, b_{i+1}), with
 * dedicated underflow (v < b0) and overflow (v >= bn) buckets, so a
 * value exactly on a boundary lands in the bucket it opens.
 */

#ifndef PREFSIM_OBS_METRICS_HH
#define PREFSIM_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace prefsim
{

class JsonWriter;

namespace obs
{

/** Monotone event count. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written instantaneous value (e.g. a depth or occupancy). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t d)
    {
        value_.fetch_add(d, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> value_{0};
};

class RunHistogram;

/** Fixed-bucket histogram with underflow and overflow buckets. */
class Histogram
{
  public:
    /** @param bounds ascending bucket boundaries (at least one). */
    explicit Histogram(std::vector<std::uint64_t> bounds);

    void record(std::uint64_t v);

    /** Number of interior buckets ([b_i, b_{i+1}); bounds-1, or 0 for a
     *  single boundary, where everything is under- or overflow). */
    std::size_t numBuckets() const { return counts_.size(); }
    const std::vector<std::uint64_t> &bounds() const { return bounds_; }

    std::uint64_t bucketCount(std::size_t i) const;
    std::uint64_t underflow() const
    {
        return underflow_.load(std::memory_order_relaxed);
    }
    std::uint64_t overflow() const
    {
        return overflow_.load(std::memory_order_relaxed);
    }

    /** Total recorded values (all buckets + under/overflow). */
    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    /** Largest value recorded into the overflow bucket (0 when the
     *  overflow bucket is empty); anchors summary interpolation. */
    std::uint64_t overflowMax() const
    {
        return overflowMax_.load(std::memory_order_relaxed);
    }
    /** Sum of recorded values (for means). */
    std::uint64_t sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    double
    mean() const
    {
        const std::uint64_t n = count();
        return n ? static_cast<double>(sum()) / static_cast<double>(n)
                 : 0.0;
    }

    /**
     * Compact distribution summary derived from the buckets. minBound /
     * maxBound are the bounds of the lowest and highest non-empty
     * buckets (underflow reports 0; overflow reports the largest value
     * actually recorded, since the bucket itself is unbounded above);
     * percentiles interpolate linearly inside the bucket holding the
     * rank, with underflow treated as [0, b0) and overflow as
     * [bounds.back(), recorded max] — before the recorded max was
     * tracked, a rank landing in a non-empty overflow bucket degraded
     * to the bucket's lower bound, silently underreporting p99 of any
     * tail-heavy distribution. An empty histogram summarises to all
     * zeros.
     */
    struct Summary
    {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t minBound = 0; ///< Lower bound, lowest non-empty.
        std::uint64_t maxBound = 0; ///< Upper bound, highest non-empty.
        double p50 = 0.0;
        double p90 = 0.0;
        double p99 = 0.0;
    };
    Summary summary() const;

    /** Zero every bucket and the count/sum (the boundaries stay). */
    void reset();

    /** Add @p run's counts (same boundaries) into this histogram. */
    void merge(const RunHistogram &run);

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> underflow_{0};
    std::atomic<std::uint64_t> overflow_{0};
    std::atomic<std::uint64_t> overflowMax_{0};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/**
 * One run's share of a registry Histogram: the same buckets as plain
 * integers, recorded on the simulating thread without atomics and
 * folded into the shared histogram by commit().
 */
class RunHistogram
{
  public:
    explicit RunHistogram(Histogram &shared);

    void record(std::uint64_t v);

    /** Merge into the shared histogram and start over from zero. */
    void commit();

  private:
    friend class Histogram;

    Histogram &shared_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t overflowMax_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

/**
 * Named metric store. counter()/gauge()/histogram() create on first
 * use and return the same object on every later call; histogram()
 * panics if re-requested with different boundaries (two components
 * disagreeing about one metric is a bug worth failing loudly on).
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name,
                         std::vector<std::uint64_t> bounds);

    /** True when no metric has been created. */
    bool empty() const;

    /**
     * Serialise every metric as one JSON object keyed by name:
     * counters/gauges as numbers, histograms as
     * {"bounds":[...],"counts":[...],"underflow":N,"overflow":N,
     *  "count":N,"sum":N}. Take after workers have joined.
     */
    void writeJson(JsonWriter &j) const;

    /** Reset every registered metric to zero (between sweep phases). */
    void reset();

  private:
    mutable std::mutex mu_; ///< Guards the maps, not metric updates.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

struct Event;

/**
 * The metrics view of the event stream (see obs/event.hh): resolves the
 * simulator's counters and histograms in a registry once, at
 * construction, counts each event into per-run copies of them, and
 * folds those into the registry once, at commit().
 */
class MetricsTap
{
  public:
    explicit MetricsTap(MetricsRegistry &r);

    void on(const Event &e);

    /** Fold the run into the registry (once, when the run commits). */
    void commit();

  private:
    /** A registry counter and the run's increments not yet folded. */
    struct RunCounter
    {
        Counter &shared;
        std::uint64_t n = 0;
    };

    /** Data-bus requests already queued when a new one arrives. */
    RunHistogram queueDepth_;
    /** Cycles a ready op of each class waited for the data bus. */
    RunHistogram arbWaitDemand_;
    RunHistogram arbWaitPrefetch_;
    /** Cycles a blocked demand waited on the prefetch it attached to
     *  (the latency the prefetch failed to hide). */
    RunHistogram prefetchLateness_;
    RunCounter invalidations_; ///< Remote copies or in-flight fills killed.
    RunCounter downgrades_;    ///< Remote private copies demoted.
    RunCounter deadFills_;     ///< Fills that arrived invalidated.
    RunCounter lateDemandAttach_;
    RunCounter evictions_;     ///< Valid lines displaced (machine total).
    RunCounter dirtyEvictions_;
    RunCounter prefetchLostEvictions_;
};

/** Cycle-valued histogram boundaries: powers of two from 1 to 2^20,
 *  the default shape for wait/latency metrics. */
std::vector<std::uint64_t> powerOfTwoBounds(unsigned max_log2 = 20);

/** Small linear boundaries 0..n (queue depths and the like). */
std::vector<std::uint64_t> linearBounds(std::uint64_t n);

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_METRICS_HH
