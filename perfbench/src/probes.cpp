#include "probes.hpp"

#include "sys/thread_pool.hpp"

namespace perfbench {

void probeSchedule(const neon::set::Backend& backend, const std::vector<neon::set::Container>& list,
                   const neon::skeleton::SequenceOptions& options, Result& result)
{
    neon::skeleton::Skeleton         s(backend);
    neon::skeleton::CompiledSchedule handle;
    std::vector<double>              compile, replay;
    for (int rep = 0; rep < 5; ++rep) {
        compile.push_back(traced("skeleton", "sequence.nocache", [&] {
            s.sequence(list, neon::skeleton::SequenceOptions(options).withCache(false));
        }));
    }
    for (int rep = 0; rep < 21; ++rep) {
        replay.push_back(
            traced("skeleton", "sequence", [&] { handle = s.sequence(list, options); }));
    }
    auto& m = result.metrics;
    m["skeleton.compile_us"] = median(compile) * 1e6;
    m["skeleton.replay_us"] = median(replay) * 1e6;
    m["skeleton.tasks"] = handle.taskCount();
    m["skeleton.nodes"] = handle.nodeCount();
    m["skeleton.streams"] = handle.streamCount();
}

void probePoolForkJoin(int width, int32_t chunks, Result& result)
{
    neon::sys::ThreadPool    pool(width);
    const neon::sys::ChunkFn noop = [](void*, int32_t, int32_t) {};
    std::vector<double>      t;
    traced("sys", "parallelFor x220", [&] {
        for (int rep = 0; rep < 220; ++rep) {
            const double t0 = wallNow();
            pool.parallelFor(chunks, noop, nullptr);
            if (rep >= 20) {
                t.push_back(wallNow() - t0);
            }
        }
    });
    result.metrics["sys.pool_forkjoin_us"] = median(t) * 1e6;
}

void probeIdleSync(const neon::set::Backend& backend, Result& result)
{
    std::vector<double> t;
    for (int rep = 0; rep < 200; ++rep) {
        t.push_back(traced("set", "sync.idle", [&] { backend.sync(); }));
    }
    result.metrics["set.sync_us"] = median(t) * 1e6;
}

}  // namespace perfbench
