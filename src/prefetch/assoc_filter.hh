/**
 * @file
 * Small fully-associative LRU filter.
 *
 * The PWS strategy (paper §4.1) estimates the temporal locality of
 * write-shared data by running it through a 16-line associative cache
 * filter: "the longer a shared cache line has resided in the cache
 * without being accessed, the more likely it is to have been
 * invalidated". Misses in this filter select the redundant prefetches
 * PWS adds on top of PREF.
 */

#ifndef PREFSIM_PREFETCH_ASSOC_FILTER_HH
#define PREFSIM_PREFETCH_ASSOC_FILTER_HH

#include <vector>

#include "common/cache_geometry.hh"
#include "common/types.hh"

namespace prefsim
{

/** Fully-associative, true-LRU, tag-only cache filter. */
class AssocFilter
{
  public:
    /**
     * @param geom Used only for line granularity.
     * @param num_lines Associativity (the paper uses 16).
     */
    AssocFilter(const CacheGeometry &geom, unsigned num_lines = 16);

    /**
     * Access @p addr, installing its line as most-recently used.
     * @return true if the access missed.
     */
    bool access(Addr addr);

    /** Query residency without touching LRU state. */
    bool resident(Addr addr) const;

    void reset();

    unsigned numLines() const { return num_lines_; }

  private:
    CacheGeometry geom_;
    unsigned num_lines_;
    /** Resident line tags, most recently used first (at most
     *  num_lines_; the filter is small, so a scan beats a map). */
    std::vector<Addr> lines_;
};

} // namespace prefsim

#endif // PREFSIM_PREFETCH_ASSOC_FILTER_HH
