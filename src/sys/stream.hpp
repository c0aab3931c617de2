#pragma once
// Stream: FIFO command queue bound to one device (CUDA Stream analogue,
// paper §IV-A). All enqueue operations are asynchronous with respect to the
// host; sync() blocks until the queue drains.

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "core/error.hpp"
#include "sys/fault.hpp"
#include "sys/op.hpp"
#include "sys/schedule_log.hpp"
#include "sys/thread_pool.hpp"
#include "sys/trace.hpp"

namespace neon::sys {

class Engine;
class Device;

/// Virtual-time interval of an op, or of one chunk of a transfer.
struct TimeWindow
{
    double start = 0.0;
    double end = 0.0;
};

class Stream
{
   public:
    /// Streams are created through Engine/Backend; the ctor registers the
    /// stream with its engine.
    Stream(Engine& engine, Device& device, int id);
    ~Stream();

    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    void enqueue(Op op);

    // Convenience wrappers -------------------------------------------------
    void transfer(TransferOp op);
    void hostFn(std::string name, double simDuration, std::function<void()> fn);
    void record(EventPtr event);
    void wait(EventPtr event);

    /// Host blocks until every enqueued op completed.
    void sync();

    /// Virtual time at which the last enqueued op finishes.
    [[nodiscard]] double vtime() const;

    [[nodiscard]] Device& device() const { return *mDevice; }
    [[nodiscard]] int     id() const { return mId; }
    [[nodiscard]] Engine& engine() const { return *mEngine; }

    /// Engine-private per-stream state, owned here for lifetime simplicity.
    std::shared_ptr<void> engineState;

   private:
    friend class Engine;

    Engine* mEngine;
    Device* mDevice;
    int     mId;
    // Clock state of the engine's op-semantics core, guarded by its clock
    // discipline (Engine::clockLock).
    double                  mVtime = 0.0;
    std::vector<TimeWindow> mChunkWindows;  ///< last transfer's chunks, account -> execute
};

/// Execution engine: how enqueued ops are processed (DESIGN.md §4). The op
/// semantics live here once — what each op kind costs on the virtual
/// clocks, how faults perturb it, which trace rows it leaves. The two
/// engines differ only in where ops run (eagerly on the enqueuing thread,
/// or on one worker per stream), what a wait on an unrecorded event does,
/// and how queued work drains after an abort.
class Engine
{
   public:
    virtual ~Engine() = default;

    /// Stream registration (called by the Stream ctor/dtor).
    virtual void attach(Stream& stream);
    virtual void detach(Stream& stream);
    virtual void enqueue(Stream& stream, Op op) = 0;
    virtual void sync(Stream& stream) = 0;
    virtual void syncAll() = 0;

    [[nodiscard]] double streamVtime(const Stream& stream) const;
    /// Max vtime across every stream (virtual makespan of the work so far).
    [[nodiscard]] double maxVtime() const;
    /// Zero every stream/device clock (between measured runs).
    void resetClocks();

    [[nodiscard]] Trace& trace() { return mTrace; }

    /// Enqueue-order op log consumed by neon::analysis (off by default).
    [[nodiscard]] ScheduleLog& scheduleLog() { return mScheduleLog; }

    /// Deterministic fault injection (docs/robustness.md; off by default).
    [[nodiscard]] FaultInjector& faults() { return mFaults; }

    /// Install the Backend's shared host worker pool. CPU-device kernels
    /// with chunked work run through it; SIM_GPU cost accounting never
    /// touches it. May be null (inline execution).
    void setHostPool(std::shared_ptr<ThreadPool> pool) { mHostPool = std::move(pool); }
    [[nodiscard]] const std::shared_ptr<ThreadPool>& hostPool() const { return mHostPool; }

    // --- fail-stop abort protocol (docs/robustness.md) --------------------
    // The first RuntimeError raised while processing an op latches the
    // engine into the aborted state: ops already queued drain without
    // executing (events still record so no thread blocks), new enqueues and
    // host syncs rethrow the stored error. Nothing hangs, nothing is
    // silently corrupted — field state stays what completed ops wrote.
    [[nodiscard]] bool aborted() const { return mAborted.load(std::memory_order_acquire); }
    /// Store `error` (first caller wins) and latch the abort flag.
    void raiseAbort(std::exception_ptr error);
    /// Rethrow the stored abort error, if any.
    void rethrowAbort() const;
    /// Drain all queued work without throwing (Skeleton abort/quiesce path).
    virtual void quiesce() {}
    /// Release the abort latch and stored error (post-mortem recovery in
    /// tests; a lost device stays lost until faults().setPlan()).
    void clearAbort();

   protected:
    /// `lockClocks`: serialize every clock access on a mutex, for engines
    /// that process ops on several threads.
    explicit Engine(bool lockClocks) : mLockClocks(lockClocks) {}

    /// Process `op` with the shared semantics. A work op is accounted on
    /// the virtual clocks (under the clock discipline), then executed and
    /// traced (outside it); a record stamps its event at the stream vtime; a
    /// wait on a recorded event advances the stream to the event's time.
    /// Returns false for a wait on an event not recorded yet: the engine
    /// decides what that means and finishes the wait with completeWait().
    bool process(Stream& stream, const Op& op);
    /// Advance the stream to `eventVtime` and write the wait trace row.
    void completeWait(Stream& stream, const WaitOp& op, double eventVtime);
    /// Record `op.event` at the stream's current vtime.
    void recordEvent(Stream& stream, const RecordOp& op);

    /// Error attribution for an op of `stream`.
    static RuntimeError::Info opError(RuntimeError::Kind kind, const Stream& stream,
                                      std::string_view opKind, std::string_view opName,
                                      const OpAttribution& attr = {});
    /// Latch the abort with a RuntimeError built from `info` and throw it.
    [[noreturn]] void abortWith(RuntimeError::Info info);
    /// The abort latch, exposed to bounded event waits as a cancel flag.
    [[nodiscard]] const std::atomic<bool>* abortFlag() const { return &mAborted; }
    /// Snapshot of the attached streams.
    [[nodiscard]] std::vector<Stream*> streams() const;

    Trace         mTrace;
    ScheduleLog   mScheduleLog;
    FaultInjector mFaults;
    std::shared_ptr<ThreadPool> mHostPool;

   private:
    /// The clock discipline: the clock mutex when the engine locks clocks,
    /// an empty lock (no mutex taken) otherwise.
    [[nodiscard]] std::unique_lock<std::mutex> clockLock() const
    {
        return mLockClocks ? std::unique_lock<std::mutex>(mClockMutex)
                           : std::unique_lock<std::mutex>();
    }

    /// Step 1 of a work op: consult faults, commit the stream vtime and the
    /// device compute/DMA clocks, return the op's window (a transfer's chunk
    /// windows go to stream.mChunkWindows). Takes the clock lock.
    template <class W>
    TimeWindow account(Stream& stream, const W& op);
    /// Step 2 of a work op: run its body (skipped on dryRun) and record its
    /// trace rows. Runs outside any lock.
    void execute(Stream& stream, const KernelOp& op, TimeWindow w);
    void execute(Stream& stream, const TransferOp& op, TimeWindow w);
    void execute(Stream& stream, const HostFnOp& op, TimeWindow w);
    /// The fault decision for the op about to be processed; a lost device
    /// aborts with an attributed DeviceLost error.
    FaultDecision decideFaults(const Stream& stream, ScheduleOpKind kind, std::string_view name,
                               const OpAttribution& attr);

    const bool                  mLockClocks;
    mutable std::mutex          mClockMutex;  ///< stream vtimes + device clocks
    mutable std::mutex          mRegistryMutex;
    std::unordered_set<Stream*> mStreams;
    std::unordered_set<Device*> mDevices;

    std::atomic<bool>          mAborted{false};
    mutable std::mutex         mAbortMutex;
    std::exception_ptr         mAbortError;
};

}  // namespace neon::sys
