/**
 * @file
 * The reproduction's experiments as data: one registry entry per paper
 * table, figure or ablation, run by bench/prefsim_repro.cpp.
 *
 * An entry owns no engine: enqueue() declares every point render()
 * reads, each an ExperimentSpec carrying its own geometry, processor
 * count or simulator knobs where the experiment varies them. Any set
 * of entries can therefore share one SweepEngine and one runPending(),
 * and an entry renders the same bytes whatever else the engine holds.
 */

#ifndef PREFSIM_BENCH_EXPERIMENTS_HH
#define PREFSIM_BENCH_EXPERIMENTS_HH

#include <ostream>
#include <string>
#include <vector>

#include "core/sweep.hh"

namespace prefsim
{

/** One table or figure of the reproduction. */
struct Experiment
{
    /** Registry name, e.g. "fig2_exec_time"; also results/<name>.txt. */
    const char *name;
    /** Declare every point render() reads. */
    void (*enqueue)(SweepEngine &engine);
    /** Print the table; @p csv selects CSV where the entry has one
     *  (fig1, fig2, fig3, table2; the others ignore it). */
    void (*render)(SweepEngine &engine, bool csv, std::ostream &os);
};

/** Every experiment, in the order the paper presents them. */
const std::vector<Experiment> &experiments();

/**
 * The entries called @p names, in the order given (every entry when
 * @p names is empty). An unknown name is fatal.
 */
std::vector<const Experiment *>
selectExperiments(const std::vector<std::string> &names);

} // namespace prefsim

#endif // PREFSIM_BENCH_EXPERIMENTS_HH
