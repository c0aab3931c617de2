#pragma once
// The metric catalogue: every end-to-end metric (printed with --trace 0)
// and every per-layer metric (printed with --trace 1), with its unit.
// BENCHMARK.json lists the same names; README.md says what each means on
// each workload. A per-layer metric that a workload does not exercise is
// printed as 0.

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using MetricSpec = std::pair<std::string, std::string>;  // (name, unit)

inline const std::vector<MetricSpec>& endToEndMetrics()
{
    static const std::vector<MetricSpec> list = {
        {"setup_s", "s"},
        {"peak_rss_mib", "MiB"},
        {"solve_s", "s"},
        {"mlups", "MLUPS"},
        {"host_us_per_iter", "us"},
    };
    return list;
}

inline const std::vector<MetricSpec>& perLayerMetrics()
{
    static const std::vector<MetricSpec> list = [] {
        std::vector<MetricSpec> l = {
            {"skeleton.compile_us", "us"},
            {"skeleton.replay_us", "us"},
            {"skeleton.tasks", "count"},
            {"skeleton.nodes", "count"},
            {"skeleton.streams", "count"},
            {"skeleton.run_us", "us"},
            {"skeleton.self_frac", "ratio"},
            {"set.scalar_op_us", "us"},
            {"set.sync_us", "us"},
            {"sys.pool_forkjoin_us", "us"},
            {"sys.pool_busy_frac", "ratio"},
            {"sys.pool_chunks_per_iter", "count"},
            {"sys.enqueue_ns_per_op", "ns"},
        };
        for (const char* k :
             {"laplacian", "axpy", "axmy", "xpby", "dot", "norm2Sq", "collideStream"}) {
            l.push_back({std::string("dgrid.") + k + ".ns_per_cell", "ns"});
            l.push_back({std::string("dgrid.") + k + ".bytes_per_cell", "B_computed"});
        }
        const std::vector<MetricSpec> rest = {
            {"dgrid.halo_us", "us"},
            {"patterns.dot.combine_us", "us"},
            {"egrid.elasticApply.ns_per_cell", "ns"},
            {"egrid.elasticApply.bytes_per_cell", "B_computed"},
            {"egrid.halo_us", "us"},
            {"egrid.active_cells", "count"},
            {"solver.iters", "count"},
            {"solver.us_per_iter", "us"},
            {"sim.overlap_pct", "%"},
            {"sim.critical_path_us", "us_virtual"},
            {"sim.wait_us", "us_virtual"},
            {"sim.halo_bytes_per_iter", "B"},
            {"sim.device_util", "ratio"},
            {"sim.cg_iter_us", "us_virtual"},
            {"sim.lbm_step_us", "us_virtual"},
            {"ref.native_cg_ratio_1t", "ratio"},
            {"ref.native_lbm_ratio_1t", "ratio"},
            {"ref.cg_thread_speedup", "ratio"},
            {"trace.overhead_frac", "ratio"},
        };
        l.insert(l.end(), rest.begin(), rest.end());
        for (const char* m : {"solver", "skeleton", "set", "sys", "dgrid", "egrid", "patterns"}) {
            l.push_back({std::string("self.") + m + "_ms", "ms"});
        }
        for (const char* m : {"setup_s", "solve_s", "host_us_per_iter"}) {
            const std::string unit = std::string(m) == "host_us_per_iter" ? "us" : "s";
            l.push_back({std::string(m) + ".tail", unit});
            l.push_back({std::string(m) + ".tail_pct", "%"});
            l.push_back({std::string(m) + ".samples", "count"});
        }
        return l;
    }();
    return list;
}

}  // namespace perfbench
