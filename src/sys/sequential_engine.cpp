#include "sys/sequential_engine.hpp"

#include "core/error.hpp"

namespace neon::sys {

void SequentialEngine::enqueue(Stream& stream, Op op)
{
    // Fail-stop: once a RuntimeError aborted the engine, further enqueues
    // rethrow it instead of silently executing against inconsistent state.
    if (aborted()) {
        rethrowAbort();
    }
    if (!process(stream, op)) {
        throw InternalError(
            "sequential engine: wait on an unrecorded event — the task "
            "list is not a topological order of the dependency graph");
    }
}

void SequentialEngine::sync(Stream&)
{
    // Ops already executed eagerly: nothing to wait for — but a stored
    // abort must surface to hosts that only sync (never enqueue again).
    rethrowAbort();
}

void SequentialEngine::syncAll()
{
    rethrowAbort();
}

}  // namespace neon::sys
