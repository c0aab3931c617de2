#include "sys/stream.hpp"

#include <algorithm>

#include "sys/device.hpp"

namespace neon::sys {

Stream::Stream(Engine& engine, Device& device, int id)
    : mEngine(&engine), mDevice(&device), mId(id)
{
    mEngine->attach(*this);
}

Stream::~Stream()
{
    mEngine->detach(*this);
}

void Stream::enqueue(Op op)
{
    // Stamp skeleton attribution at enqueue time: the host thread that
    // enqueues is the one that set the trace context, while the threaded
    // engine may process the op on a worker thread much later.
    Trace&       trace = mEngine->trace();
    ScheduleLog& slog = mEngine->scheduleLog();
    const bool   logging = slog.enabled();
    // Fault rules match on run id, so attribution must also be stamped when
    // a plan is active even if neither trace nor schedule log is on.
    if (trace.enabled() || logging || mEngine->faults().active()) {
        const TraceContext ctx = trace.context();
        if (ctx.containerId >= 0 || ctx.runId >= 0) {
            std::visit(
                [&](auto& o) {
                    if constexpr (requires { o.attr; }) {
                        if (o.attr.containerId < 0) {
                            o.attr = {ctx.containerId, ctx.runId};
                        }
                    }
                },
                op);
        }
        if (logging) {
            ScheduleRecord r;
            r.device = mDevice->id();
            r.stream = mId;
            r.containerId = ctx.containerId;
            r.runId = ctx.runId;
            std::visit(
                [&](const auto& o) {
                    using T = std::decay_t<decltype(o)>;
                    if constexpr (std::is_same_v<T, KernelOp>) {
                        r.kind = ScheduleOpKind::Kernel;
                    } else if constexpr (std::is_same_v<T, TransferOp>) {
                        r.kind = ScheduleOpKind::Transfer;
                    } else if constexpr (std::is_same_v<T, HostFnOp>) {
                        r.kind = ScheduleOpKind::HostFn;
                    } else if constexpr (std::is_same_v<T, RecordOp>) {
                        r.kind = ScheduleOpKind::Record;
                        r.eventId = o.event->id();
                    } else if constexpr (std::is_same_v<T, WaitOp>) {
                        r.kind = ScheduleOpKind::Wait;
                        r.eventId = o.event->id();
                    }
                    if constexpr (requires { o.attr; }) {
                        r.containerId = o.attr.containerId;
                        r.runId = o.attr.runId;
                    }
                },
                op);
            slog.add(r);
        }
    }
    mEngine->enqueue(*this, std::move(op));
}

void Stream::transfer(TransferOp op)
{
    enqueue(std::move(op));
}

void Stream::hostFn(std::string name, double simDuration, std::function<void()> fn)
{
    enqueue(HostFnOp{std::move(name), simDuration, std::move(fn), {}});
}

void Stream::record(EventPtr event)
{
    enqueue(RecordOp{std::move(event)});
}

void Stream::wait(EventPtr event)
{
    enqueue(WaitOp{std::move(event), {}});
}

void Stream::sync()
{
    mEngine->sync(*this);
}

double Stream::vtime() const
{
    return mEngine->streamVtime(*this);
}

// Engine: registry and clocks ------------------------------------------------

void Engine::attach(Stream& stream)
{
    std::lock_guard<std::mutex> lock(mRegistryMutex);
    mStreams.insert(&stream);
    mDevices.insert(&stream.device());
}

void Engine::detach(Stream& stream)
{
    std::lock_guard<std::mutex> lock(mRegistryMutex);
    mStreams.erase(&stream);
}

std::vector<Stream*> Engine::streams() const
{
    std::lock_guard<std::mutex> lock(mRegistryMutex);
    return {mStreams.begin(), mStreams.end()};
}

double Engine::streamVtime(const Stream& stream) const
{
    const auto lock = clockLock();
    return stream.mVtime;
}

double Engine::maxVtime() const
{
    std::lock_guard<std::mutex> registry(mRegistryMutex);
    const auto                  lock = clockLock();
    double                      v = 0.0;
    for (const Stream* s : mStreams) {
        v = std::max(v, s->mVtime);
    }
    return v;
}

void Engine::resetClocks()
{
    std::lock_guard<std::mutex> registry(mRegistryMutex);
    const auto                  lock = clockLock();
    for (Stream* s : mStreams) {
        s->mVtime = 0.0;
    }
    for (Device* d : mDevices) {
        d->resetClocks();
    }
}

// Engine: op semantics --------------------------------------------------------

namespace {

template <class W>
constexpr ScheduleOpKind kindOf()
{
    if constexpr (std::is_same_v<W, KernelOp>) {
        return ScheduleOpKind::Kernel;
    } else if constexpr (std::is_same_v<W, TransferOp>) {
        return ScheduleOpKind::Transfer;
    } else {
        return ScheduleOpKind::HostFn;
    }
}

/// Schedule `op`'s chunks onto `dev`'s two DMA engines from stream time
/// `vtime` — chunks serialize within a direction, the directions run in
/// parallel (paper §IV-C2) — and commit dev.copyAvailable. `slowdown`
/// scales each chunk's duration (link degradation). Fills one window per
/// chunk and returns the stream time after the op.
double planTransfer(Device& dev, double vtime, const TransferOp& op, double slowdown,
                    std::vector<TimeWindow>& windows)
{
    const SimConfig& cfg = dev.config();
    windows.clear();
    double dirEnd[2] = {0.0, 0.0};
    bool   dirUsed[2] = {false, false};
    for (const auto& chunk : op.chunks) {
        const int dir = chunk.direction != 0 ? 1 : 0;
        if (!dirUsed[dir]) {
            dirEnd[dir] = std::max(vtime, dev.copyAvailable[dir]);
            dirUsed[dir] = true;
        }
        const double start = dirEnd[dir];
        dirEnd[dir] = start + transferDuration(cfg, chunk.bytes) * slowdown;
        windows.push_back({start, dirEnd[dir]});
    }
    double end = vtime;
    for (int dir = 0; dir < 2; ++dir) {
        if (dirUsed[dir]) {
            dev.copyAvailable[dir] = dirEnd[dir];
            end = std::max(end, dirEnd[dir]);
        }
    }
    return end;
}

}  // namespace

bool Engine::process(Stream& stream, const Op& op)
{
    if (const auto* k = std::get_if<KernelOp>(&op)) {
        execute(stream, *k, account(stream, *k));
    } else if (const auto* t = std::get_if<TransferOp>(&op)) {
        execute(stream, *t, account(stream, *t));
    } else if (const auto* h = std::get_if<HostFnOp>(&op)) {
        execute(stream, *h, account(stream, *h));
    } else if (const auto* r = std::get_if<RecordOp>(&op)) {
        // Records are fault-exempt: they must always fire so waiters wake.
        recordEvent(stream, *r);
    } else {
        const auto& w = std::get<WaitOp>(op);
        if (mFaults.active()) {
            decideFaults(stream, ScheduleOpKind::Wait, "wait", w.attr);
        }
        if (!w.event->recorded()) {
            return false;
        }
        completeWait(stream, w, w.event->vtime());
    }
    return true;
}

template <class W>
TimeWindow Engine::account(Stream& stream, const W& op)
{
    constexpr ScheduleOpKind kind = kindOf<W>();
    const auto               lock = clockLock();
    Device&                  dev = stream.device();
    const SimConfig&         cfg = dev.config();
    const double             before = stream.mVtime;
    double                   start = before;
    if constexpr (kind == ScheduleOpKind::Kernel) {
        start = std::max(before, dev.computeAvailable);
    }
    FaultDecision d;
    if (mFaults.active()) {
        d = decideFaults(stream, kind, op.name, op.attr);
        if (d.stallSeconds > 0.0) {
            mTrace.record(dev.id(), stream.id(), TraceKind::Fault, "stall:" + op.name, start,
                          start + d.stallSeconds, 0, op.attr.containerId, op.attr.runId);
            start += d.stallSeconds;
        }
    }
    double end = start;
    if constexpr (kind == ScheduleOpKind::Kernel) {
        end = start + kernelDuration(cfg, op.items, op.hint);
    } else if constexpr (kind == ScheduleOpKind::HostFn) {
        end = start + op.simDuration;
    } else {
        // Failed attempts occupy the DMA engines just like real transfers,
        // then back off exponentially in virtual time (cost model).
        const int failed = std::min(d.failedAttempts, cfg.retry.maxAttempts);
        for (int attempt = 1; attempt <= failed; ++attempt) {
            const double retryAt =
                planTransfer(dev, end, op, d.slowdown, stream.mChunkWindows) +
                retryBackoff(cfg, attempt);
            uint64_t bytes = 0;
            for (const auto& chunk : op.chunks) {
                bytes += chunk.bytes;
            }
            mTrace.record(dev.id(), stream.id(), TraceKind::Fault,
                          "retry#" + std::to_string(attempt) + ":" + op.name, end, retryAt,
                          bytes, op.attr.containerId, op.attr.runId);
            end = retryAt;
        }
        if (d.failedAttempts >= cfg.retry.maxAttempts) {
            stream.mVtime = end;
            auto info = opError(RuntimeError::Kind::TransferFailed, stream, "transfer", op.name,
                                op.attr);
            info.attempts = cfg.retry.maxAttempts;
            abortWith(std::move(info));
        }
        end = planTransfer(dev, end, op, d.slowdown, stream.mChunkWindows);
    }
    if (cfg.opTimeout > 0.0 && end - before > cfg.opTimeout) {
        auto info =
            opError(RuntimeError::Kind::OpTimeout, stream, to_string(kind), op.name, op.attr);
        info.timeout = cfg.opTimeout;
        abortWith(std::move(info));
    }
    stream.mVtime = end;
    if constexpr (kind == ScheduleOpKind::Kernel) {
        dev.computeAvailable = end;
    }
    return {start, end};
}

void Engine::execute(Stream& stream, const KernelOp& op, TimeWindow w)
{
    const Device& dev = stream.device();
    if (op.work && !dev.config().dryRun) {
        // Devirtualized path: one indirect call per chunk. The pool only
        // pays off for real host computation with multiple chunks; SIM_GPU
        // devices execute functionally but stay single-threaded so the
        // cost model's serial-compute assumption remains true.
        ThreadPool* pool = mHostPool.get();
        const bool  usePool = pool != nullptr && pool->threadCount() > 1 && op.work.chunks > 1 &&
                             dev.type() == DeviceType::CPU;
        if (usePool && mTrace.enabled()) {
            std::vector<WorkerSample> samples;
            pool->parallelFor(op.work.chunks, op.work.run, op.work.ctx, &samples);
            for (const auto& s : samples) {
                mTrace.record(dev.id(), stream.id(), TraceKind::HostPool, op.name, w.start,
                              w.start + s.busySeconds, static_cast<uint64_t>(s.chunks),
                              op.attr.containerId, op.attr.runId, 0, s.worker, stream.id());
            }
        } else if (usePool) {
            pool->parallelFor(op.work.chunks, op.work.run, op.work.ctx);
        } else {
            for (int32_t c = 0; c < op.work.chunks; ++c) {
                op.work.run(op.work.ctx, c, op.work.chunks);
            }
        }
        if (op.work.finalize != nullptr) {
            op.work.finalize(op.work.ctx, 0, op.work.chunks);
        }
    }
    mTrace.record(dev.id(), stream.id(), TraceKind::Kernel, op.name, w.start, w.end, 0,
                  op.attr.containerId, op.attr.runId);
}

void Engine::execute(Stream& stream, const TransferOp& op, TimeWindow)
{
    const Device& dev = stream.device();
    for (size_t i = 0; i < op.chunks.size(); ++i) {
        const auto& chunk = op.chunks[i];
        if (!dev.config().dryRun && chunk.copy) {
            chunk.copy();
        }
        const TimeWindow& w = stream.mChunkWindows[i];
        mTrace.record(dev.id(), stream.id(), TraceKind::Transfer, op.name, w.start, w.end,
                      chunk.bytes, op.attr.containerId, op.attr.runId);
    }
}

void Engine::execute(Stream& stream, const HostFnOp& op, TimeWindow w)
{
    const Device& dev = stream.device();
    if (!dev.config().dryRun && op.fn) {
        op.fn();
    }
    mTrace.record(dev.id(), stream.id(), TraceKind::HostFn, op.name, w.start, w.end, 0,
                  op.attr.containerId, op.attr.runId);
}

void Engine::recordEvent(Stream& stream, const RecordOp& op)
{
    op.event->record(streamVtime(stream), stream.device().id(), stream.id());
}

void Engine::completeWait(Stream& stream, const WaitOp& op, double eventVtime)
{
    double before = 0.0;
    {
        const auto lock = clockLock();
        before = stream.mVtime;
        stream.mVtime = std::max(before, eventVtime);
    }
    if (eventVtime > before && mTrace.enabled()) {
        mTrace.record(stream.device().id(), stream.id(), TraceKind::Wait, "wait", before,
                      eventVtime, 0, op.attr.containerId, op.attr.runId, op.event->id(),
                      op.event->recordedDevice(), op.event->recordedStream());
    }
}

FaultDecision Engine::decideFaults(const Stream& stream, ScheduleOpKind kind,
                                   std::string_view name, const OpAttribution& attr)
{
    const FaultDecision d = mFaults.decide(stream.device().id(), stream.id(), kind, attr);
    if (d.deviceLost) {
        abortWith(opError(RuntimeError::Kind::DeviceLost, stream, to_string(kind), name, attr));
    }
    return d;
}

// Engine: fail-stop abort protocol ------------------------------------------

void Engine::raiseAbort(std::exception_ptr error)
{
    {
        std::lock_guard<std::mutex> lock(mAbortMutex);
        if (!mAbortError) {
            mAbortError = std::move(error);
        }
    }
    mAborted.store(true, std::memory_order_release);
}

void Engine::rethrowAbort() const
{
    std::exception_ptr error;
    {
        std::lock_guard<std::mutex> lock(mAbortMutex);
        error = mAbortError;
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

void Engine::clearAbort()
{
    {
        std::lock_guard<std::mutex> lock(mAbortMutex);
        mAbortError = nullptr;
    }
    mAborted.store(false, std::memory_order_release);
}

RuntimeError::Info Engine::opError(RuntimeError::Kind kind, const Stream& stream,
                                   std::string_view opKind, std::string_view opName,
                                   const OpAttribution& attr)
{
    RuntimeError::Info info;
    info.kind = kind;
    info.device = stream.device().id();
    info.stream = stream.id();
    info.opKind = opKind;
    info.opName = opName;
    info.containerId = attr.containerId;
    info.runId = attr.runId;
    return info;
}

void Engine::abortWith(RuntimeError::Info info)
{
    auto error = std::make_exception_ptr(RuntimeError(std::move(info)));
    raiseAbort(error);
    std::rethrow_exception(error);
}

}  // namespace neon::sys
