#include "prefetch/assoc_filter.hh"

#include <algorithm>

#include "common/log.hh"

namespace prefsim
{

AssocFilter::AssocFilter(const CacheGeometry &geom, unsigned num_lines)
    : geom_(geom), num_lines_(num_lines)
{
    prefsim_assert(num_lines_ > 0, "associative filter needs >= 1 line");
    lines_.reserve(num_lines_);
}

bool
AssocFilter::access(Addr addr)
{
    const Addr tag = geom_.lineBase(addr);
    auto it = std::find(lines_.begin(), lines_.end(), tag);
    const bool miss = it == lines_.end();
    if (miss) {
        // Take a free slot, or evict the LRU line in the last one.
        if (lines_.size() < num_lines_)
            lines_.push_back(tag);
        it = lines_.end() - 1;
    }
    std::rotate(lines_.begin(), it, it + 1);
    lines_.front() = tag;
    return miss;
}

bool
AssocFilter::resident(Addr addr) const
{
    return std::find(lines_.begin(), lines_.end(), geom_.lineBase(addr)) !=
           lines_.end();
}

void
AssocFilter::reset()
{
    lines_.clear();
}

} // namespace prefsim
