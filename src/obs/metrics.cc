#include "obs/metrics.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/log.hh"
#include "obs/event.hh"

namespace prefsim
{
namespace obs
{

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      counts_(bounds_.empty() ? 0 : bounds_.size() - 1)
{
    prefsim_assert(!bounds_.empty(),
                   "histogram needs at least one boundary");
    prefsim_assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                       std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                           bounds_.end(),
                   "histogram boundaries must be strictly ascending");
}

namespace
{

/** The interior bucket of @p v, which lies in [bounds.front(),
 *  bounds.back()): the last boundary <= v opens it, so a value equal to
 *  a boundary lands in the bucket that boundary opens. */
std::size_t
interiorBucket(const std::vector<std::uint64_t> &bounds, std::uint64_t v)
{
    // Branch-free binary search: bucket indices of successive records
    // are unpredictable, and a mispredicted step costs more than the
    // step itself.
    const std::uint64_t *base = bounds.data();
    for (std::size_t n = bounds.size(); n > 1;) {
        const std::size_t half = n / 2;
        base = base[half] <= v ? base + half : base;
        n -= half;
    }
    return static_cast<std::size_t>(base - bounds.data());
}

/** Raise @p max to at least @p v. */
void
fetchMax(std::atomic<std::uint64_t> &max, std::uint64_t v)
{
    std::uint64_t cur = max.load(std::memory_order_relaxed);
    while (v > cur &&
           !max.compare_exchange_weak(cur, v, std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
    }
}

} // namespace

void
Histogram::record(std::uint64_t v)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    if (v < bounds_.front()) {
        underflow_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    if (v >= bounds_.back()) {
        overflow_.fetch_add(1, std::memory_order_relaxed);
        // The overflow bucket is unbounded above, so the summary needs
        // the actual extreme to anchor its percentiles.
        fetchMax(overflowMax_, v);
        return;
    }
    counts_[interiorBucket(bounds_, v)].fetch_add(
        1, std::memory_order_relaxed);
}

void
Histogram::merge(const RunHistogram &run)
{
    prefsim_assert(run.counts_.size() == counts_.size(),
                   "histogram merged with different boundaries");
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (run.counts_[i])
            counts_[i].fetch_add(run.counts_[i], std::memory_order_relaxed);
    }
    underflow_.fetch_add(run.underflow_, std::memory_order_relaxed);
    overflow_.fetch_add(run.overflow_, std::memory_order_relaxed);
    fetchMax(overflowMax_, run.overflowMax_);
    count_.fetch_add(run.count_, std::memory_order_relaxed);
    sum_.fetch_add(run.sum_, std::memory_order_relaxed);
}

RunHistogram::RunHistogram(Histogram &shared)
    : shared_(shared), counts_(shared.numBuckets())
{}

void
RunHistogram::record(std::uint64_t v)
{
    ++count_;
    sum_ += v;
    const std::vector<std::uint64_t> &bounds = shared_.bounds();
    if (v < bounds.front()) {
        ++underflow_;
    } else if (v >= bounds.back()) {
        ++overflow_;
        overflowMax_ = std::max(overflowMax_, v);
    } else {
        ++counts_[interiorBucket(bounds, v)];
    }
}

void
RunHistogram::commit()
{
    shared_.merge(*this);
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = overflow_ = overflowMax_ = count_ = sum_ = 0;
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
    underflow_.store(0, std::memory_order_relaxed);
    overflow_.store(0, std::memory_order_relaxed);
    overflowMax_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    prefsim_assert(i < counts_.size(), "histogram bucket out of range");
    return counts_[i].load(std::memory_order_relaxed);
}

Histogram::Summary
Histogram::summary() const
{
    Summary s;
    // Snapshot every bucket once and derive everything from the
    // snapshot: updates are relaxed atomics, so a summary taken while
    // writers are active is only required to be self-consistent.
    const std::uint64_t under = underflow();
    const std::uint64_t over = overflow();
    std::vector<std::uint64_t> counts(counts_.size());
    std::uint64_t total = under + over;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        counts[i] = counts_[i].load(std::memory_order_relaxed);
        total += counts[i];
    }
    if (total == 0)
        return s;
    s.count = total;
    s.sum = sum();

    // Bounds of the lowest/highest non-empty bucket, walking the
    // conceptual bucket order: underflow [0, b0), interior
    // [b_i, b_{i+1}), overflow [b_n, b_n].
    bool found_min = false;
    if (under > 0) {
        s.minBound = 0;
        s.maxBound = bounds_.front();
        found_min = true;
    }
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        if (!found_min) {
            s.minBound = bounds_[i];
            found_min = true;
        }
        s.maxBound = bounds_[i + 1];
    }
    // Overflow values are >= bounds.back() by the record() branch, so
    // the recorded extreme is the honest upper edge of the
    // distribution; the old bounds.back() clamp underreported any
    // tail past the last boundary.
    const std::uint64_t over_max =
        std::max(overflowMax(), bounds_.back());
    if (over > 0) {
        if (!found_min)
            s.minBound = bounds_.back();
        s.maxBound = over_max;
    }

    const auto percentile = [&](double q) -> double {
        const double rank = q * static_cast<double>(total);
        double cum = 0.0;
        const auto interp = [&](double lo, double hi, double cnt) {
            return lo + (rank - cum) / cnt * (hi - lo);
        };
        if (under > 0) {
            const auto cnt = static_cast<double>(under);
            if (cum + cnt >= rank)
                return interp(0.0, static_cast<double>(bounds_.front()),
                              cnt);
            cum += cnt;
        }
        for (std::size_t i = 0; i < counts.size(); ++i) {
            if (counts[i] == 0)
                continue;
            const auto cnt = static_cast<double>(counts[i]);
            if (cum + cnt >= rank)
                return interp(static_cast<double>(bounds_[i]),
                              static_cast<double>(bounds_[i + 1]), cnt);
            cum += cnt;
        }
        // Only the overflow bucket is left. Interpolate up to the
        // recorded maximum — clamping to the bucket's lower edge made
        // p99 of a tail-heavy distribution report bounds.back() no
        // matter how far past it the tail reached.
        if (over > 0)
            return interp(static_cast<double>(bounds_.back()),
                          static_cast<double>(over_max),
                          static_cast<double>(over));
        return static_cast<double>(bounds_.back());
    };
    s.p50 = percentile(0.50);
    s.p90 = percentile(0.90);
    s.p99 = percentile(0.99);
    return s;
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name,
                           std::vector<std::uint64_t> bounds)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot) {
        slot = std::make_unique<Histogram>(std::move(bounds));
    } else {
        prefsim_assert(slot->bounds() == bounds,
                       "histogram '", name,
                       "' re-registered with different boundaries");
    }
    return *slot;
}

bool
MetricsRegistry::empty() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void
MetricsRegistry::writeJson(JsonWriter &j) const
{
    std::lock_guard<std::mutex> lock(mu_);
    j.beginObject();
    j.key("counters").beginObject();
    for (const auto &[name, c] : counters_)
        j.key(name).value(c->value());
    j.endObject();
    j.key("gauges").beginObject();
    for (const auto &[name, g] : gauges_) {
        const std::int64_t v = g->value();
        // Gauges are signed; the writer is not. Negative depths and the
        // like do not occur today, so emit via double if it happens.
        if (v >= 0)
            j.key(name).value(static_cast<std::uint64_t>(v));
        else
            j.key(name).value(static_cast<double>(v));
    }
    j.endObject();
    j.key("histograms").beginObject();
    for (const auto &[name, h] : histograms_) {
        j.key(name).beginObject();
        j.key("bounds").beginArray();
        for (const std::uint64_t b : h->bounds())
            j.value(b);
        j.endArray();
        j.key("counts").beginArray();
        for (std::size_t i = 0; i < h->numBuckets(); ++i)
            j.value(h->bucketCount(i));
        j.endArray();
        j.key("underflow").value(h->underflow());
        j.key("overflow").value(h->overflow());
        j.key("count").value(h->count());
        j.key("sum").value(h->sum());
        j.key("mean").value(h->mean());
        const Histogram::Summary s = h->summary();
        j.key("summary").beginObject();
        j.key("count").value(s.count);
        j.key("sum").value(s.sum);
        j.key("min_bound").value(s.minBound);
        j.key("max_bound").value(s.maxBound);
        j.key("p50").value(s.p50);
        j.key("p90").value(s.p90);
        j.key("p99").value(s.p99);
        j.endObject();
        j.endObject();
    }
    j.endObject();
    j.endObject();
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->set(0);
    for (auto &[name, h] : histograms_)
        h->reset();
}

MetricsTap::MetricsTap(MetricsRegistry &r)
    : queueDepth_(r.histogram("bus.queue_depth", linearBounds(32))),
      arbWaitDemand_(
          r.histogram("bus.arb_wait_demand", powerOfTwoBounds(14))),
      arbWaitPrefetch_(
          r.histogram("bus.arb_wait_prefetch", powerOfTwoBounds(14))),
      prefetchLateness_(
          r.histogram("prefetch.lateness_cycles", powerOfTwoBounds(14))),
      invalidations_{r.counter("coherence.invalidations")},
      downgrades_{r.counter("coherence.downgrades")},
      deadFills_{r.counter("coherence.dead_fills")},
      lateDemandAttach_{r.counter("prefetch.late_demand_attach")},
      evictions_{r.counter("cache.evictions")},
      dirtyEvictions_{r.counter("cache.evictions_dirty")},
      prefetchLostEvictions_{r.counter("cache.evictions_prefetch_unused")}
{}

void
MetricsTap::on(const Event &e)
{
    switch (e.kind) {
      case EventKind::BusRequest:
        queueDepth_.record(e.arg);
        return;
      case EventKind::BusGrant:
        (e.demand ? arbWaitDemand_ : arbWaitPrefetch_)
            .record(e.cycle - e.aux);
        return;
      case EventKind::Fill:
        if (e.prefetch && e.demand)
            prefetchLateness_.record(e.cycle - e.aux);
        if (e.dead)
            ++deadFills_.n;
        return;
      case EventKind::Invalidate:
      case EventKind::InflightKill:
        ++invalidations_.n;
        return;
      case EventKind::Downgrade:
        ++downgrades_.n;
        return;
      case EventKind::LateAttach:
        ++lateDemandAttach_.n;
        return;
      case EventKind::Evict:
        ++evictions_.n;
        if (e.dirty)
            ++dirtyEvictions_.n;
        if (e.prefetch)
            ++prefetchLostEvictions_.n;
        return;
      default:
        return;
    }
}

void
MetricsTap::commit()
{
    for (RunHistogram *h : {&queueDepth_, &arbWaitDemand_,
                            &arbWaitPrefetch_, &prefetchLateness_})
        h->commit();
    for (RunCounter *c :
         {&invalidations_, &downgrades_, &deadFills_, &lateDemandAttach_,
          &evictions_, &dirtyEvictions_, &prefetchLostEvictions_}) {
        c->shared.inc(c->n);
        c->n = 0;
    }
}

std::vector<std::uint64_t>
powerOfTwoBounds(unsigned max_log2)
{
    std::vector<std::uint64_t> bounds;
    bounds.reserve(max_log2 + 2);
    bounds.push_back(0);
    for (unsigned i = 0; i <= max_log2; ++i)
        bounds.push_back(std::uint64_t{1} << i);
    return bounds;
}

std::vector<std::uint64_t>
linearBounds(std::uint64_t n)
{
    std::vector<std::uint64_t> bounds;
    bounds.reserve(n + 1);
    for (std::uint64_t i = 0; i <= n; ++i)
        bounds.push_back(i);
    return bounds;
}

} // namespace obs
} // namespace prefsim
