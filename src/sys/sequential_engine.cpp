#include "sys/sequential_engine.hpp"

#include <algorithm>
#include <string>

#include "core/error.hpp"
#include "sys/device.hpp"
#include "sys/transfer_plan.hpp"

namespace neon::sys {

SequentialEngine::State& SequentialEngine::stateOf(const Stream& stream)
{
    return *static_cast<State*>(stream.engineState.get());
}

void SequentialEngine::attach(Stream& stream)
{
    std::lock_guard<std::mutex> lock(mMutex);
    stream.engineState = std::make_shared<State>();
    mStreams.insert(&stream);
    mDevices.insert(&stream.device());
}

void SequentialEngine::detach(Stream& stream)
{
    std::lock_guard<std::mutex> lock(mMutex);
    mStreams.erase(&stream);
}

void SequentialEngine::enqueue(Stream& stream, Op op)
{
    // Fail-stop: once a RuntimeError aborted the engine, further enqueues
    // rethrow it instead of silently executing against inconsistent state.
    if (aborted()) {
        rethrowAbort();
    }

    State&           st = stateOf(stream);
    Device&          dev = stream.device();
    const SimConfig& cfg = dev.config();
    const bool       faulty = mFaults.active();

    if (auto* k = std::get_if<KernelOp>(&op)) {
        double start = std::max(st.vtime, dev.computeAvailable);
        if (faulty) {
            const FaultDecision d = consultFaults(dev, stream.id(), ScheduleOpKind::Kernel,
                                                  k->attr, "kernel", k->name);
            if (d.stallSeconds > 0.0) {
                mTrace.record(dev.id(), stream.id(), TraceKind::Fault, "stall:" + k->name, start,
                            start + d.stallSeconds, 0, k->attr.containerId, k->attr.runId);
                start += d.stallSeconds;
            }
        }
        const double end = start + kernelDuration(cfg, k->items, k->hint);
        if (cfg.opTimeout > 0.0 && end - st.vtime > cfg.opTimeout) {
            throwOpTimeout(dev, stream.id(), "kernel", k->name, k->attr, cfg.opTimeout);
        }
        st.vtime = end;
        dev.computeAvailable = end;
        if (!cfg.dryRun) {
            runKernelWork(dev, stream.id(), *k, start);
        }
        mTrace.record(dev.id(), stream.id(), TraceKind::Kernel, k->name, start, end, 0,
                    k->attr.containerId, k->attr.runId);
        return;
    }
    if (auto* t = std::get_if<TransferOp>(&op)) {
        double        begin = st.vtime;
        FaultDecision d;
        if (faulty) {
            d = consultFaults(dev, stream.id(), ScheduleOpKind::Transfer, t->attr, "transfer",
                              t->name);
            if (d.stallSeconds > 0.0) {
                mTrace.record(dev.id(), stream.id(), TraceKind::Fault, "stall:" + t->name, begin,
                            begin + d.stallSeconds, 0, t->attr.containerId, t->attr.runId);
                begin += d.stallSeconds;
            }
        }
        // Failed attempts occupy the DMA engines just like real transfers,
        // then back off exponentially in virtual time (cost model).
        double    cursor = begin;
        const int failed = std::min(d.failedAttempts, cfg.retry.maxAttempts);
        for (int attempt = 1; attempt <= failed; ++attempt) {
            const TransferSchedule bad = planTransfer(dev, cursor, *t, d.slowdown);
            const double           backoff = retryBackoff(cfg, attempt);
            mTrace.record(dev.id(), stream.id(), TraceKind::Fault,
                        "retry#" + std::to_string(attempt) + ":" + t->name, cursor,
                        bad.end + backoff, bad.totalBytes, t->attr.containerId, t->attr.runId);
            cursor = bad.end + backoff;
        }
        if (d.failedAttempts >= cfg.retry.maxAttempts) {
            st.vtime = cursor;
            throwTransferExhausted(dev, stream.id(), t->name, t->attr, cfg.retry.maxAttempts);
        }
        const TransferSchedule plan = planTransfer(dev, cursor, *t, d.slowdown);
        const double           end = std::max(plan.end, cursor);
        if (cfg.opTimeout > 0.0 && end - st.vtime > cfg.opTimeout) {
            throwOpTimeout(dev, stream.id(), "transfer", t->name, t->attr, cfg.opTimeout);
        }
        for (size_t i = 0; i < t->chunks.size(); ++i) {
            const auto& chunk = t->chunks[i];
            if (!cfg.dryRun && chunk.copy) {
                chunk.copy();
            }
            mTrace.record(dev.id(), stream.id(), TraceKind::Transfer, t->name, plan.windows[i].start,
                        plan.windows[i].end, chunk.bytes, t->attr.containerId, t->attr.runId);
        }
        st.vtime = end;
        return;
    }
    if (auto* h = std::get_if<HostFnOp>(&op)) {
        double start = st.vtime;
        if (faulty) {
            const FaultDecision d = consultFaults(dev, stream.id(), ScheduleOpKind::HostFn,
                                                  h->attr, "hostFn", h->name);
            if (d.stallSeconds > 0.0) {
                mTrace.record(dev.id(), stream.id(), TraceKind::Fault, "stall:" + h->name, start,
                            start + d.stallSeconds, 0, h->attr.containerId, h->attr.runId);
                start += d.stallSeconds;
            }
        }
        const double end = start + h->simDuration;
        if (cfg.opTimeout > 0.0 && end - st.vtime > cfg.opTimeout) {
            throwOpTimeout(dev, stream.id(), "hostFn", h->name, h->attr, cfg.opTimeout);
        }
        st.vtime = end;
        if (!cfg.dryRun && h->fn) {
            h->fn();
        }
        mTrace.record(dev.id(), stream.id(), TraceKind::HostFn, h->name, start, end, 0,
                    h->attr.containerId, h->attr.runId);
        return;
    }
    if (auto* r = std::get_if<RecordOp>(&op)) {
        // Records are fault-exempt: they must always fire so waiters wake.
        r->event->record(st.vtime, dev.id(), stream.id());
        return;
    }
    if (auto* w = std::get_if<WaitOp>(&op)) {
        if (faulty) {
            consultFaults(dev, stream.id(), ScheduleOpKind::Wait, w->attr, "wait", "wait");
        }
        if (!w->event->recorded()) {
            throw InternalError(
                "sequential engine: wait on an unrecorded event — the task "
                "list is not a topological order of the dependency graph");
        }
        const double evTime = w->event->vtime();
        if (evTime > st.vtime && mTrace.enabled()) {
            mTrace.record(dev.id(), stream.id(), TraceKind::Wait, "wait", st.vtime, evTime, 0,
                        w->attr.containerId, w->attr.runId, w->event->id(),
                        w->event->recordedDevice(), w->event->recordedStream());
        }
        st.vtime = std::max(st.vtime, evTime);
        return;
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

double SequentialEngine::streamVtime(const Stream& stream) const
{
    return stateOf(stream).vtime;
}

double SequentialEngine::maxVtime() const
{
    std::lock_guard<std::mutex> lock(mMutex);
    double v = 0.0;
    for (const Stream* s : mStreams) {
        v = std::max(v, stateOf(*s).vtime);
    }
    return v;
}

void SequentialEngine::resetClocks()
{
    std::lock_guard<std::mutex> lock(mMutex);
    for (Stream* s : mStreams) {
        stateOf(*s).vtime = 0.0;
    }
    for (Device* d : mDevices) {
        d->resetClocks();
    }
}

}  // namespace neon::sys
