#include "obs/run_store.hh"

namespace prefsim
{
namespace obs
{

std::vector<JsonField>
formatArray(const JsonField &obj, const std::string &key)
{
    const JsonField field = obj[key];
    if (!field.value().isArray())
        throw FormatError(field.path() + ": not an array");
    return field.items();
}

bool
isSkipMarker(const JsonField &run)
{
    const std::optional<JsonField> marker = run.find("skipped");
    if (!marker)
        return false;
    if (!marker->value().isString() || marker->str() != "cache-hit")
        throw FormatError(marker->path() + ": must be \"cache-hit\"");
    return true;
}

} // namespace obs
} // namespace prefsim
