#pragma once
// Per-layer probes shared by the workloads' traced runs. Each times calls
// into one module's public functions and records its metrics.

#include <algorithm>
#include <vector>

#include "common.hpp"
#include "set/backend.hpp"
#include "set/container.hpp"
#include "skeleton/skeleton.hpp"

namespace perfbench {

/// skeleton.compile_us (sequence() with withCache(false), median of 5),
/// skeleton.replay_us (cache hit, median of 21) and the schedule's shape
/// (tasks, nodes, streams).
void probeSchedule(const neon::set::Backend& backend, const std::vector<neon::set::Container>& list,
                   const neon::skeleton::SequenceOptions& options, Result& result);

/// sys.pool_forkjoin_us: ThreadPool::parallelFor with a no-op ChunkFn at
/// the given width and chunk count (median of 200, after 20 warm-up calls).
void probePoolForkJoin(int width, int32_t chunks, Result& result);

/// set.sync_us: Backend::sync() with nothing enqueued (median of 200).
void probeIdleSync(const neon::set::Backend& backend, Result& result);

/// sys.pool_chunks_per_iter, sys.pool_busy_frac and sys.enqueue_ns_per_op
/// from the ExecutionReport of `iterations` profiled calls of `iteration`.
template <typename Fn>
void probeHostPool(const neon::set::Backend& backend, int iterations, Fn&& iteration,
                   Result& result)
{
    auto prof = backend.profiler();
    prof.clear();
    prof.enable(true);
    const double wall = traced("skeleton", "run.profiled", [&] {
        for (int it = 0; it < iterations; ++it) {
            iteration();
        }
    });
    prof.enable(false);
    const auto report = prof.report();
    prof.clear();
    double chunks = 0.0;
    for (const auto& d : report.devices()) {
        chunks += static_cast<double>(d.hostPoolChunks);
    }
    auto& m = result.metrics;
    m["sys.pool_chunks_per_iter"] = chunks / iterations;
    m["sys.pool_busy_frac"] = report.totalHostPoolBusy() / (wall * backend.hostThreads());
    m["sys.enqueue_ns_per_op"] = wall / std::max(report.eventCount(), 1) * 1e9;
}

}  // namespace perfbench
