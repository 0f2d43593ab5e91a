#include "obs/event.hh"

namespace prefsim
{
namespace obs
{

void
Sink::emit(const Event &e)
{
    metrics_.on(e);
    if (trace_)
        trace_->on(e);
    if (profile_)
        profile_->on(e);
    if (critpath_)
        critpath_->on(e);
    if (extra_)
        extra_(e);
}

} // namespace obs
} // namespace prefsim
