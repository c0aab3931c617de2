#include "sys/threaded_engine.hpp"

#include <algorithm>
#include <chrono>

#include "sys/device.hpp"

namespace neon::sys {

namespace {
std::chrono::steady_clock::time_point wallDeadline(double seconds)
{
    return std::chrono::steady_clock::now() +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               std::chrono::duration<double>(std::max(seconds, 0.0)));
}
}  // namespace

ThreadedEngine::State& ThreadedEngine::stateOf(const Stream& stream)
{
    return *static_cast<State*>(stream.engineState.get());
}

void ThreadedEngine::attach(Stream& stream)
{
    auto state = std::make_shared<State>();
    stream.engineState = state;
    state->worker = std::thread([this, &stream, s = state.get()] { workerLoop(&stream, s); });
    Engine::attach(stream);
}

void ThreadedEngine::detach(Stream& stream)
{
    State& st = stateOf(stream);
    st.cancel.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(st.mutex);
        st.stop = true;
    }
    st.cvWork.notify_all();
    if (st.worker.joinable()) {
        st.worker.join();
    }
    Engine::detach(stream);
}

void ThreadedEngine::enqueue(Stream& stream, Op op)
{
    // Fail-stop: once a RuntimeError aborted the engine, further enqueues
    // rethrow it instead of silently queueing against inconsistent state.
    if (aborted()) {
        rethrowAbort();
    }
    State& st = stateOf(stream);
    {
        std::lock_guard<std::mutex> lock(st.mutex);
        st.queue.push_back(std::move(op));
    }
    st.cvWork.notify_one();
}

void ThreadedEngine::workerLoop(Stream* stream, State* state)
{
    for (;;) {
        Op op;
        {
            std::unique_lock<std::mutex> lock(state->mutex);
            state->cvWork.wait(lock, [state] { return state->stop || !state->queue.empty(); });
            if (state->queue.empty()) {
                if (state->stop) {
                    return;
                }
                continue;
            }
            op = std::move(state->queue.front());
            state->queue.pop_front();
            state->busy = true;
        }
        try {
            if (!aborted()) {
                if (!process(*stream, op)) {
                    awaitEvent(*stream, *state, std::get<WaitOp>(op));
                }
            } else if (const auto* r = std::get_if<RecordOp>(&op)) {
                // Suppressed drain after an abort: records still fire so
                // waiters wake; waits and work ops are skipped so nothing
                // blocks or executes against inconsistent state.
                recordEvent(*stream, *r);
            }
        } catch (...) {
            // First error wins; the engine latches aborted and the queue
            // drains in suppressed mode so no thread stays blocked.
            raiseAbort(std::current_exception());
        }
        {
            std::lock_guard<std::mutex> lock(state->mutex);
            state->busy = false;
        }
        state->cvIdle.notify_all();
    }
}

void ThreadedEngine::awaitEvent(Stream& stream, State& state, const WaitOp& op)
{
    // Bounded wait: a scheduler bug (event never recorded) surfaces as a
    // SyncTimeout RuntimeError instead of a deadlock; an engine abort or a
    // stream detach cancels the wait promptly.
    const double limit = stream.device().config().hostSyncTimeout;
    const auto   deadline = wallDeadline(limit);
    double       evTime = 0.0;
    for (;;) {
        const EventWaitStatus ws = op.event->waitRecorded(0.05, abortFlag(), &evTime);
        if (ws == EventWaitStatus::Recorded) {
            break;
        }
        if (ws == EventWaitStatus::Cancelled || state.cancel.load(std::memory_order_acquire)) {
            return;
        }
        if (limit > 0.0 && std::chrono::steady_clock::now() >= deadline) {
            auto info = opError(RuntimeError::Kind::SyncTimeout, stream, "wait", "wait", op.attr);
            info.timeout = limit;
            abortWith(std::move(info));
        }
    }
    completeWait(stream, op, evTime);
}

bool ThreadedEngine::waitIdle(State& state, double limitSeconds)
{
    const auto deadline = wallDeadline(limitSeconds);
    // Sliced wait: the workers notify cvIdle on every completed op, but an
    // abort raised from another stream's worker cannot, so poll the clock.
    constexpr auto               kSlice = std::chrono::milliseconds(2);
    std::unique_lock<std::mutex> lock(state.mutex);
    while (!(state.queue.empty() && !state.busy)) {
        if (limitSeconds > 0.0 && std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        state.cvIdle.wait_for(lock, kSlice,
                              [&state] { return state.queue.empty() && !state.busy; });
    }
    return true;
}

void ThreadedEngine::sync(Stream& stream)
{
    const double limit = stream.device().config().hostSyncTimeout;
    // A drain stuck after an abort surfaces the root cause below instead.
    if (!waitIdle(stateOf(stream), limit) && !aborted()) {
        auto info = opError(RuntimeError::Kind::SyncTimeout, stream, "sync", "stream sync");
        info.timeout = limit;
        abortWith(std::move(info));
    }
    rethrowAbort();
}

void ThreadedEngine::syncAll()
{
    for (Stream* s : streams()) {
        sync(*s);
    }
    rethrowAbort();
}

void ThreadedEngine::quiesce()
{
    // Suppressed ops drain fast (waits are cancelled by the abort flag);
    // bound the wait anyway — quiesce must never throw or hang.
    for (Stream* s : streams()) {
        waitIdle(stateOf(*s), std::max(s->device().config().hostSyncTimeout, 1.0));
    }
}

}  // namespace neon::sys
