#include "sys/threaded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "sys/device.hpp"
#include "sys/transfer_plan.hpp"

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

ThreadedEngine::~ThreadedEngine() = default;

void ThreadedEngine::attach(Stream& stream)
{
    auto state = std::make_shared<State>();
    stream.engineState = state;
    state->worker = std::thread([this, &stream, s = state.get()] { workerLoop(&stream, s); });
    std::lock_guard<std::mutex> lock(mRegistryMutex);
    mStreams.insert(&stream);
    mDevices.insert(&stream.device());
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
    std::lock_guard<std::mutex> lock(mRegistryMutex);
    mStreams.erase(&stream);
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
            process(*stream, *state, op);
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

void ThreadedEngine::process(Stream& stream, State& state, Op& op)
{
    Device&          dev = stream.device();
    const SimConfig& cfg = dev.config();

    // Suppressed drain after an abort: records still fire so waiters wake,
    // waits are skipped so nothing blocks, work ops are skipped so nothing
    // executes against inconsistent state.
    if (aborted()) {
        if (auto* r = std::get_if<RecordOp>(&op)) {
            double v = 0.0;
            {
                std::lock_guard<std::mutex> lock(mClockMutex);
                v = state.vtime;
            }
            r->event->record(v, dev.id(), stream.id());
        }
        return;
    }

    const bool faulty = mFaults.active();

    if (auto* k = std::get_if<KernelOp>(&op)) {
        double start = 0.0;
        double end = 0.0;
        {
            std::lock_guard<std::mutex> lock(mClockMutex);
            const double before = state.vtime;
            start = std::max(before, dev.computeAvailable);
            if (faulty) {
                const FaultDecision d = consultFaults(dev, stream.id(), ScheduleOpKind::Kernel,
                                                      k->attr, "kernel", k->name);
                if (d.stallSeconds > 0.0) {
                    mTrace.record(dev.id(), stream.id(), TraceKind::Fault, "stall:" + k->name, start,
                                start + d.stallSeconds, 0, k->attr.containerId, k->attr.runId);
                    start += d.stallSeconds;
                }
            }
            end = start + kernelDuration(cfg, k->items, k->hint);
            if (cfg.opTimeout > 0.0 && end - before > cfg.opTimeout) {
                throwOpTimeout(dev, stream.id(), "kernel", k->name, k->attr, cfg.opTimeout);
            }
            state.vtime = end;
            dev.computeAvailable = end;
        }
        // Body executes outside mClockMutex: real work must not serialize
        // the other stream workers' clock updates.
        if (!cfg.dryRun) {
            runKernelWork(dev, stream.id(), *k, start);
        }
        mTrace.record(dev.id(), stream.id(), TraceKind::Kernel, k->name, start, end, 0,
                    k->attr.containerId, k->attr.runId);
        return;
    }
    if (auto* t = std::get_if<TransferOp>(&op)) {
        TransferSchedule plan;
        {
            std::lock_guard<std::mutex> lock(mClockMutex);
            const double before = state.vtime;
            double       begin = before;
            FaultDecision d;
            if (faulty) {
                d = consultFaults(dev, stream.id(), ScheduleOpKind::Transfer, t->attr,
                                  "transfer", t->name);
                if (d.stallSeconds > 0.0) {
                    mTrace.record(dev.id(), stream.id(), TraceKind::Fault, "stall:" + t->name, begin,
                                begin + d.stallSeconds, 0, t->attr.containerId, t->attr.runId);
                    begin += d.stallSeconds;
                }
            }
            // Failed attempts occupy the DMA engines just like real
            // transfers, then back off exponentially in virtual time.
            double    cursor = begin;
            const int failed = std::min(d.failedAttempts, cfg.retry.maxAttempts);
            for (int attempt = 1; attempt <= failed; ++attempt) {
                const TransferSchedule bad = planTransfer(dev, cursor, *t, d.slowdown);
                const double           backoff = retryBackoff(cfg, attempt);
                mTrace.record(dev.id(), stream.id(), TraceKind::Fault,
                            "retry#" + std::to_string(attempt) + ":" + t->name, cursor,
                            bad.end + backoff, bad.totalBytes, t->attr.containerId,
                            t->attr.runId);
                cursor = bad.end + backoff;
            }
            if (d.failedAttempts >= cfg.retry.maxAttempts) {
                state.vtime = cursor;
                throwTransferExhausted(dev, stream.id(), t->name, t->attr,
                                       cfg.retry.maxAttempts);
            }
            plan = planTransfer(dev, cursor, *t, d.slowdown);
            const double end = std::max(plan.end, cursor);
            if (cfg.opTimeout > 0.0 && end - before > cfg.opTimeout) {
                throwOpTimeout(dev, stream.id(), "transfer", t->name, t->attr, cfg.opTimeout);
            }
            state.vtime = end;
        }
        if (!cfg.dryRun) {
            for (const auto& chunk : t->chunks) {
                if (chunk.copy) {
                    chunk.copy();
                }
            }
        }
        for (size_t i = 0; i < t->chunks.size(); ++i) {
            mTrace.record(dev.id(), stream.id(), TraceKind::Transfer, t->name, plan.windows[i].start,
                        plan.windows[i].end, plan.windows[i].bytes, t->attr.containerId,
                        t->attr.runId);
        }
        return;
    }
    if (auto* h = std::get_if<HostFnOp>(&op)) {
        double start = 0.0;
        double end = 0.0;
        {
            std::lock_guard<std::mutex> lock(mClockMutex);
            const double before = state.vtime;
            start = before;
            if (faulty) {
                const FaultDecision d = consultFaults(dev, stream.id(), ScheduleOpKind::HostFn,
                                                      h->attr, "hostFn", h->name);
                if (d.stallSeconds > 0.0) {
                    mTrace.record(dev.id(), stream.id(), TraceKind::Fault, "stall:" + h->name, start,
                                start + d.stallSeconds, 0, h->attr.containerId, h->attr.runId);
                    start += d.stallSeconds;
                }
            }
            end = start + h->simDuration;
            if (cfg.opTimeout > 0.0 && end - before > cfg.opTimeout) {
                throwOpTimeout(dev, stream.id(), "hostFn", h->name, h->attr, cfg.opTimeout);
            }
            state.vtime = end;
        }
        if (!cfg.dryRun && h->fn) {
            h->fn();
        }
        mTrace.record(dev.id(), stream.id(), TraceKind::HostFn, h->name, start, end, 0,
                    h->attr.containerId, h->attr.runId);
        return;
    }
    if (auto* r = std::get_if<RecordOp>(&op)) {
        double v = 0.0;
        {
            std::lock_guard<std::mutex> lock(mClockMutex);
            v = state.vtime;
        }
        r->event->record(v, dev.id(), stream.id());
        return;
    }
    if (auto* w = std::get_if<WaitOp>(&op)) {
        if (faulty) {
            consultFaults(dev, stream.id(), ScheduleOpKind::Wait, w->attr, "wait", "wait");
        }
        // Bounded wait: a scheduler bug (event never recorded) surfaces as
        // a SyncTimeout RuntimeError instead of a deadlock; an engine abort
        // or a stream detach cancels the wait promptly.
        const double limit = cfg.hostSyncTimeout;
        const auto   deadline = wallDeadline(limit);
        double       evTime = 0.0;
        for (;;) {
            const EventWaitStatus ws = w->event->waitRecorded(0.05, abortFlag(), &evTime);
            if (ws == EventWaitStatus::Recorded) {
                break;
            }
            if (ws == EventWaitStatus::Cancelled ||
                state.cancel.load(std::memory_order_acquire)) {
                return;
            }
            if (limit > 0.0 && std::chrono::steady_clock::now() >= deadline) {
                throwSyncTimeout(dev.id(), stream.id(), "wait", "wait", w->attr, limit);
            }
        }
        double before = 0.0;
        {
            std::lock_guard<std::mutex> lock(mClockMutex);
            before = state.vtime;
            state.vtime = std::max(state.vtime, evTime);
        }
        if (evTime > before && mTrace.enabled()) {
            mTrace.record(dev.id(), stream.id(), TraceKind::Wait, "wait", before, evTime, 0,
                        w->attr.containerId, w->attr.runId, w->event->id(),
                        w->event->recordedDevice(), w->event->recordedStream());
        }
        return;
    }
}

void ThreadedEngine::sync(Stream& stream)
{
    State&       st = stateOf(stream);
    const double limit = stream.device().config().hostSyncTimeout;
    const auto   deadline = wallDeadline(limit);
    // Sliced wait: the workers notify cvIdle on every completed op, but an
    // abort raised from another stream's worker cannot, so poll it too.
    constexpr auto kSlice = std::chrono::milliseconds(2);
    {
        std::unique_lock<std::mutex> lock(st.mutex);
        while (!(st.queue.empty() && !st.busy)) {
            if (limit > 0.0 && std::chrono::steady_clock::now() >= deadline) {
                if (aborted()) {
                    break;  // drain is stuck? surface the root cause below
                }
                lock.unlock();
                throwSyncTimeout(stream.device().id(), stream.id(), "sync", "stream sync", {},
                                 limit);
            }
            st.cvIdle.wait_for(lock, kSlice,
                               [&st] { return st.queue.empty() && !st.busy; });
        }
    }
    rethrowAbort();
}

void ThreadedEngine::syncAll()
{
    std::vector<Stream*> streams;
    {
        std::lock_guard<std::mutex> lock(mRegistryMutex);
        streams.assign(mStreams.begin(), mStreams.end());
    }
    for (Stream* s : streams) {
        sync(*s);
    }
    rethrowAbort();
}

void ThreadedEngine::quiesce()
{
    std::vector<Stream*> streams;
    {
        std::lock_guard<std::mutex> lock(mRegistryMutex);
        streams.assign(mStreams.begin(), mStreams.end());
    }
    // Suppressed ops drain fast (waits are cancelled by the abort flag);
    // bound the wait anyway — quiesce must never throw or hang.
    constexpr auto kSlice = std::chrono::milliseconds(2);
    for (Stream* s : streams) {
        State&     st = stateOf(*s);
        const auto deadline = wallDeadline(std::max(s->device().config().hostSyncTimeout, 1.0));
        std::unique_lock<std::mutex> lock(st.mutex);
        while (!(st.queue.empty() && !st.busy)) {
            if (std::chrono::steady_clock::now() >= deadline) {
                break;
            }
            st.cvIdle.wait_for(lock, kSlice, [&st] { return st.queue.empty() && !st.busy; });
        }
    }
}

double ThreadedEngine::streamVtime(const Stream& stream) const
{
    std::lock_guard<std::mutex> lock(mClockMutex);
    return stateOf(stream).vtime;
}

double ThreadedEngine::maxVtime() const
{
    std::scoped_lock lock(mRegistryMutex, mClockMutex);
    double v = 0.0;
    for (const Stream* s : mStreams) {
        v = std::max(v, stateOf(*s).vtime);
    }
    return v;
}

void ThreadedEngine::resetClocks()
{
    std::scoped_lock lock(mRegistryMutex, mClockMutex);
    for (Stream* s : mStreams) {
        stateOf(*s).vtime = 0.0;
    }
    for (Device* d : mDevices) {
        d->resetClocks();
    }
}

}  // namespace neon::sys
