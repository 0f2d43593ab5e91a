/**
 * @file
 * Cache-key derivation and ExperimentResult serialisation for the sweep
 * engine's content-addressed on-disk result cache.
 *
 * A key is a canonical, human-readable flattening of *every* input that
 * can change an experiment's outcome: the workload and its full tunable
 * set, the cache geometry, the effective annotation parameters, and the
 * complete simulator configuration. The key string itself is stored in
 * each cache file and compared verbatim on load, so an FNV-1a filename
 * collision can never alias two different experiments.
 *
 * Results round-trip through stats/json: writeResultJson emits every
 * counter of SimStats / AnnotateStats (all integers, so the round-trip
 * is exact), and readResultJson strictly validates — any missing field,
 * malformed syntax or truncation yields nullopt and the caller
 * recomputes the point.
 */

#ifndef PREFSIM_CORE_RESULT_IO_HH
#define PREFSIM_CORE_RESULT_IO_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/experiment.hh"

namespace prefsim
{

/** Key of the trace-generation stage: workload + generation params. */
std::string traceStageKey(const ExperimentSpec &spec);

/** Key of the annotation stage: trace key + geometry + strategy params.*/
std::string annotateStageKey(const ExperimentSpec &spec);

/** Key of the full experiment: annotate key + simulator configuration. */
std::string experimentCacheKey(const ExperimentSpec &spec);

/** 64-bit FNV-1a over @p s (the content address). */
std::uint64_t fnv1a64(const std::string &s);

/** Cache file name for @p key: 16 hex digits + ".json". */
std::string cacheFileName(const std::string &key);

/** Serialise @p result (tagged with @p key) as one JSON document. */
void writeResultJson(std::ostream &os, const ExperimentResult &result,
                     const std::string &key);

/**
 * Parse a document produced by writeResultJson. Returns nullopt unless
 * the document is well-formed, complete, and its embedded key equals
 * @p key exactly. @p spec is copied into the returned result (the spec
 * is the lookup key; it is not persisted field-by-field).
 */
std::optional<ExperimentResult> readResultJson(const std::string &text,
                                               const ExperimentSpec &spec,
                                               const std::string &key);

} // namespace prefsim

#endif // PREFSIM_CORE_RESULT_IO_HH
