/**
 * @file
 * The observability context: one metrics registry plus one tracer,
 * shared by every simulation a sweep runs.
 *
 * Ownership: a SweepEngine (or an embedder, or a test) creates an
 * ObsContext and points SimConfig::obs at it; each Simulator then
 * builds one per-run event sink (obs/event.hh) whose consumers fold the
 * run into the registry and, when the tracer is enabled, into a per-run
 * TraceBuffer committed back to the tracer. A null ObsContext pointer —
 * the default everywhere — means no sink exists and the simulator runs
 * exactly as before.
 */

#ifndef PREFSIM_OBS_OBS_HH
#define PREFSIM_OBS_OBS_HH

#include "obs/critpath/critpath.hh"
#include "obs/interval_sampler.hh"
#include "obs/metrics.hh"
#include "obs/profile/attribution_profiler.hh"
#include "obs/trace.hh"

namespace prefsim
{

/** Shared instrumentation backplane (see file comment). */
struct ObsContext
{
    obs::MetricsRegistry metrics;
    obs::Tracer tracer;
    /** Finished interval time series (SimConfig::sampleInterval > 0);
     *  serialised as `prefsim-timeseries-v1`. */
    obs::TimeSeriesStore timeseries;
    /** Finished per-line attribution profiles (SimConfig::profile);
     *  serialised as `prefsim-profile-v1`. */
    obs::ProfileStore profile;
    /** Finished critical-path analyses (SimConfig::critpath);
     *  serialised as `prefsim-critpath-v1`. */
    obs::CritPathStore critpath;
};

} // namespace prefsim

#endif // PREFSIM_OBS_OBS_HH
