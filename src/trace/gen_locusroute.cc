/**
 * @file
 * Synthetic LocusRoute (commercial-quality VLSI standard-cell router).
 *
 * Character reproduced (paper §3.2, §4.2):
 *  - the central structure is a shared cost grid, geographically
 *    partitioned: each processor routes wires mostly inside its own
 *    strip, with mostly-sequential sharing where wires cross strip
 *    boundaries;
 *  - boundary lines mix cells owned by different processors, so part of
 *    the invalidation misses is false sharing;
 *  - utilisation sits in the middle of the workload set (.54-.64), with
 *    a moderate stream of capacity/conflict misses from wire-list and
 *    geometry data (modelled as a cold stream).
 */

#include <algorithm>
#include <cstdint>

#include "common/log.hh"
#include "trace/builder.hh"
#include "trace/layout.hh"
#include "trace/workload.hh"

namespace prefsim
{

ParallelTrace
generateLocusRoute(const WorkloadParams &params)
{
    prefsim_assert(!params.restructured,
                   "locusroute has no restructured variant in the paper");
    const LocusTunables &tune = params.tunables.locusroute;
    const unsigned P = params.numProcs;
    const unsigned height = std::max(
        P, static_cast<unsigned>(tune.gridHeight * params.dataScale));
    const unsigned rows_per_proc = height / P;

    const Addr grid_base = kSharedBaseA;
    auto cell_addr = [&](unsigned row, unsigned col) {
        return grid_base +
               (Addr{row} * tune.gridWidth + col) * kWordBytes;
    };

    const std::uint64_t refs_per_wire = tune.wireCells + tune.wireWrites +
                                        tune.privateRefs + tune.coldRefs;
    const std::uint64_t refs_per_step = refs_per_wire * tune.wiresPerStep;
    const std::uint64_t steps =
        std::max<std::uint64_t>(5, params.refsPerProc / refs_per_step);

    ParallelTrace out;
    out.name = "locusroute";
    out.numLocks = 0;
    out.numBarriers = static_cast<SyncId>(steps);

    buildProcs(out, P, params.seed, [&](ProcTraceBuilder &b) {
        const ProcId p = b.proc();
        Rng &rng = b.rng();
        // The wire list sits in the cache-set range the strip does not
        // use (strips are 16 KB, half the cache); the cold stream gets a
        // confined window above it.
        const Addr wirelist =
            privateBase(p) + ((p % 2 == 0) ? 20 * 1024 : 4 * 1024);
        ColdStream cold(privateBase(p) +
                        ((p % 2 == 0) ? 26 * 1024 : 10 * 1024));
        const unsigned first_row = p * rows_per_proc;
        unsigned col = static_cast<unsigned>(
            rng.below(tune.gridWidth - tune.wireCells));

        for (std::uint64_t step = 0; step < steps; ++step) {
            for (unsigned w = 0; w < tune.wiresPerStep; ++w) {
                // Pick the wire's row: usually inside my strip, sometimes
                // spilling into a neighbour's boundary rows (sequential
                // sharing and boundary false sharing).
                unsigned row;
                bool crossing = false;
                if (w % 25 == 12) {
                    const unsigned neighbour =
                        (p + (rng.chance(0.5) ? 1 : P - 1)) % P;
                    row = neighbour * rows_per_proc +
                          static_cast<unsigned>(rng.below(2));
                    crossing = true;
                } else {
                    row = first_row + static_cast<unsigned>(
                                          rng.below(rows_per_proc));
                }
                // Within the owner's own boundary rows the router only
                // evaluates (congested edges are avoided); occupancy
                // there is written by the *crossing* wires of the
                // neighbour — whose words the owner never touches.
                const bool write_phase =
                    crossing || (row % rows_per_proc) >= 2;
                // Random-walk the start column for spatial locality.
                const int delta =
                    static_cast<int>(rng.below(2 * tune.walkStride + 1)) -
                    static_cast<int>(tune.walkStride);
                const int max_col =
                    static_cast<int>(tune.gridWidth - tune.wireCells - 1);
                int c = static_cast<int>(col) + delta;
                c = std::clamp(c, 0, max_col);
                col = static_cast<unsigned>(c);

                // Wire endpoints from the hot private wire list.
                for (unsigned r = 0; r < tune.privateRefs; ++r)
                    b.read(wirelist + Addr{rng.below(1024)} * kWordBytes);
                // Streamed netlist descriptors (cold lines, every
                // other wire).
                if (w % 4 == 0) {
                    for (unsigned r = 0; r < tune.coldRefs; ++r)
                        b.read(cold.next());
                }
                // Cost evaluation: sample the candidate path (even
                // offsets from an even-aligned start).
                const unsigned base_col = col & ~1u;
                for (unsigned i = 0; i < tune.wireCells; ++i) {
                    b.read(cell_addr(row, base_col + 2 * (i % 20)));
                    if (i % 8 == 0)
                        b.compute(static_cast<std::uint32_t>(
                            rng.geometric(tune.computeMean)));
                }
                // Update occupancy on the interleaved cells.
                if (write_phase) {
                    for (unsigned i = 0; i < tune.wireWrites; ++i)
                        b.write(cell_addr(row, base_col + 1 + 2 * i));
                }
                b.compute(static_cast<std::uint32_t>(
                    rng.geometric(tune.computeMean * 5)));
            }
            b.barrier(static_cast<SyncId>(step));
        }
    });
    return out;
}

} // namespace prefsim
