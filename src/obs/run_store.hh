/**
 * @file
 * What the three per-run telemetry formats (time series, profile,
 * critical path) share: the thread-safe store a sweep commits finished
 * runs to, and the skeleton of their strict readers.
 *
 * A per-run document is {"schema": TAG, "runs": [RUN, ...]} with the
 * runs sorted by label. Each format's module owns its TAG (the run
 * type's kSchema) and its RUN object (a writeRunJson overload). A run
 * the sweep loaded from its result cache was never simulated and is
 * written as {"label": L, "skipped": "cache-hit"} instead. The profile
 * and critical-path modules also own the inverse, a strict reader,
 * because several tools consume those documents.
 */

#ifndef PREFSIM_OBS_RUN_STORE_HH
#define PREFSIM_OBS_RUN_STORE_HH

#include <algorithm>
#include <mutex>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hh"

namespace prefsim
{
namespace obs
{

/**
 * A per-run document whose fields all have the right kinds but which
 * breaks its format's own structure: a skip marker other than
 * "cache-hit", a list that is not an array, lines out of address
 * order, an unknown resource class, or a derived field (a totals
 * block, a segment length) that disagrees with what it derives from.
 * validate_telemetry reports it under the format's rule; any other
 * JsonError is a telemetry.schema violation.
 */
class FormatError : public JsonError
{
  public:
    using JsonError::JsonError;
};

/** The array member @p key of @p obj; FormatError if not an array. */
std::vector<JsonField> formatArray(const JsonField &obj,
                                   const std::string &key);

/** Whether @p run is a cache-hit skip marker (FormatError for a
 *  "skipped" member that is not "cache-hit"). */
bool isSkipMarker(const JsonField &run);

/** Open a run object with its label. A skipped run is closed with its
 *  marker at once; @return whether the caller writes the body. */
template <typename Run>
bool
beginRunJson(JsonWriter &j, const Run &run)
{
    j.beginObject();
    j.key("label").value(run.label);
    if (!run.skipped)
        return true;
    j.key("skipped").value("cache-hit");
    j.endObject();
    return false;
}

/**
 * Thread-safe collection of one format's finished runs, owned by the
 * ObsContext. Run provides `label`, `skipped`, `kSchema` and a
 * writeRunJson(JsonWriter &, const Run &) overload.
 *
 * Each run is committed with its key in the sweep (the point's
 * experiment cache key, unique within a sweep). The key is never
 * written; it orders runs that share a label, which sweeps over knobs
 * the label does not name have.
 */
template <typename Run>
class RunStore
{
  public:
    void
    commit(Run run, std::string key = {})
    {
        std::lock_guard<std::mutex> lock(mu_);
        runs_.push_back(std::move(run));
        keys_.push_back(std::move(key));
    }

    /** Record that the sweep loaded @p label from its result cache and
     *  never simulated it, so "not simulated" stays distinguishable
     *  from "lost" downstream. */
    void
    commitSkipped(std::string label, std::string key = {})
    {
        Run run;
        run.label = std::move(label);
        run.skipped = true;
        commit(std::move(run), std::move(key));
    }

    bool
    empty() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return runs_.empty();
    }

    std::size_t
    numRuns() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return runs_.size();
    }

    /** Copy of the committed runs, in commit order. */
    std::vector<Run>
    snapshot() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return runs_;
    }

    /** Write the full document. Runs are sorted by label, then key:
     *  concurrent sweeps commit in completion order, and the document
     *  must be deterministic (check.sh compares engine outputs byte for
     *  byte). */
    void
    writeJson(std::ostream &os) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<std::size_t> ordered(runs_.size());
        for (std::size_t i = 0; i < ordered.size(); ++i)
            ordered[i] = i;
        std::stable_sort(ordered.begin(), ordered.end(),
                         [this](std::size_t a, std::size_t b) {
                             return std::tie(runs_[a].label, keys_[a]) <
                                    std::tie(runs_[b].label, keys_[b]);
                         });
        JsonWriter j(os);
        j.beginObject();
        j.key("schema").value(Run::kSchema);
        j.key("runs").beginArray();
        for (const std::size_t i : ordered)
            writeRunJson(j, runs_[i]);
        j.endArray();
        j.endObject();
        os << "\n";
    }

  protected:
    mutable std::mutex mu_;
    std::vector<Run> runs_;
    std::vector<std::string> keys_; ///< Each run's sweep key.
};

/**
 * Read every run of a per-run document (the schema is the caller's to
 * check). Skip markers come back with `skipped` set; every other run
 * goes through @p read_body(const JsonField &, Run &), the format's
 * inverse of its writeRunJson body.
 * @throws JsonError, or FormatError, naming the key path.
 */
template <typename Run, typename ReadBody>
std::vector<Run>
readRunsJson(const JsonValue &doc, ReadBody read_body)
{
    std::vector<Run> runs;
    for (const JsonField &item : formatArray(JsonField(doc), "runs")) {
        Run run;
        run.label = item["label"].str();
        run.skipped = isSkipMarker(item);
        if (!run.skipped)
            read_body(item, run);
        runs.push_back(std::move(run));
    }
    return runs;
}

/** readRunsJson over the Run::kSchema document at @p path.
 *  @throws std::runtime_error naming the file and the key path. */
template <typename Run, typename ReadBody>
std::vector<Run>
loadRunsJson(const std::string &path, ReadBody read_body)
{
    const JsonValue doc = loadJsonDocument(path, Run::kSchema);
    try {
        return readRunsJson<Run>(doc, read_body);
    } catch (const JsonError &e) {
        throw std::runtime_error(path + ": " + e.what());
    }
}

} // namespace obs
} // namespace prefsim

#endif // PREFSIM_OBS_RUN_STORE_HH
