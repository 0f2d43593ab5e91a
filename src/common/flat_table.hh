/**
 * @file
 * FlatTable: the unordered record store behind the attribution
 * profiler, which looks a cache line up on nearly every event, behind
 * the whole-trace sharing analysis, and behind the memory system's
 * holder directory, which looks a line up on every snoop.
 */

#ifndef PREFSIM_COMMON_FLAT_TABLE_HH
#define PREFSIM_COMMON_FLAT_TABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/log.hh"

namespace prefsim
{

/** Fibonacci hash of an address, the FlatTable hash for address keys:
 *  a probe starts at the top bits, which the multiply mixes from every
 *  bit of the address. */
struct AddrHash
{
    std::uint64_t
    operator()(std::uint64_t addr) const
    {
        return addr * 0x9e37'79b9'7f4a'7c15ULL;
    }
};

/** log2 of a FlatTable's initial slot count. */
inline constexpr unsigned kFlatTableInitialLog2Slots = 10;

/**
 * Records in first-use order in a dense vector, found by key through a
 * linear-probing index of their 1-based positions (0 is an empty
 * slot). The keys have their own dense vector, so a probe compares
 * keys without touching records; the index is at most half full and
 * four bytes a slot, so both stay cache-resident beside the simulator.
 * A key's probe starts at the top bits of Hash{}(key). Positions never
 * move (the records only grow until clear()), so growing the index
 * keeps every position valid.
 */
template <typename Key, typename Record, typename Hash>
class FlatTable
{
  public:
    /** The record of @p key; a new one, passed to @p init, when
     *  absent. */
    template <typename Init>
    Record &
    get(const Key &key, Init init)
    {
        // A line's events come in bursts (a miss, its grant, its
        // fill), so a small direct-mapped memo of recent keys
        // answers most lookups without probing.
        const std::uint64_t hash = Hash{}(key);
        std::uint32_t &memo = memo_[hash >> (64 - kMemoLog2)];
        if (memo == 0 || keys_[memo - 1] != key)
            memo = position(key, hash, init);
        return records_[memo - 1];
    }

    /** The record of @p key, or nullptr when absent. Does not touch
     *  the memo, so concurrent finds on a table nobody writes are
     *  safe. */
    const Record *
    find(const Key &key) const
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = Hash{}(key) >> (64 - log2Slots_); slots_[i];
             i = (i + 1) & mask) {
            if (keys_[slots_[i] - 1] == key)
                return &records_[slots_[i] - 1];
        }
        return nullptr;
    }

    const std::vector<Key> &keys() const { return keys_; }
    std::vector<Record> &records() { return records_; }

    /** Forget every record; the slot count stays. */
    void
    clear()
    {
        keys_.clear();
        records_.clear();
        std::fill(slots_.begin(), slots_.end(), 0);
        memo_.fill(0);
    }

  private:
    static constexpr unsigned kMemoLog2 = 8;

    /** The 1-based position of @p key (hashing to @p hash),
     *  appended when absent. */
    template <typename Init>
    std::uint32_t
    position(const Key &key, std::uint64_t hash, Init init)
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash >> (64 - log2Slots_);
        for (; slots_[i]; i = (i + 1) & mask) {
            if (keys_[slots_[i] - 1] == key)
                return slots_[i];
        }
        if (2 * (keys_.size() + 1) > slots_.size()) {
            grow();
            return position(key, hash, init);
        }
        keys_.push_back(key);
        init(records_.emplace_back());
        return slots_[i] = static_cast<std::uint32_t>(keys_.size());
    }

    /** Double the slot count and re-index every record. */
    void
    grow()
    {
        ++log2Slots_;
        prefsim_assert(log2Slots_ < 32, "flat table overflow");
        slots_.assign(std::size_t{1} << log2Slots_, 0);
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t n = 0; n < keys_.size(); ++n) {
            std::size_t i = Hash{}(keys_[n]) >> (64 - log2Slots_);
            while (slots_[i])
                i = (i + 1) & mask;
            slots_[i] = static_cast<std::uint32_t>(n + 1);
        }
    }

    /** Positions of recently used keys, by the top hash bits. */
    std::array<std::uint32_t, std::size_t{1} << kMemoLog2> memo_{};
    std::vector<Key> keys_;
    std::vector<Record> records_;
    unsigned log2Slots_ = kFlatTableInitialLog2Slots;
    std::vector<std::uint32_t> slots_ =
        std::vector<std::uint32_t>(std::size_t{1} << log2Slots_);
};

} // namespace prefsim

#endif // PREFSIM_COMMON_FLAT_TABLE_HH
