// sim_dgx8: dry runs on eight simulated A100-like GPUs. No cell executes,
// so host wall time is pure orchestration, while the virtual clock gives
// the paper's multi-GPU times. One round: re-sequence the CG iteration
// (a schedule-cache replay), run it 20 times on 320^3 with extended OCC,
// then 20 D3Q19 steps on 192^3 with standard OCC.

#include <cmath>
#include <iostream>
#include <memory>

#include "cg_parts.hpp"
#include "dgrid/dfield.hpp"
#include "lbm/cavity3d.hpp"
#include "poisson/poisson.hpp"
#include "probes.hpp"
#include "workloads.hpp"

using namespace neon;

namespace perfbench {
namespace {

constexpr int kDevices = 8;
constexpr int kIters = 20;
/// Warm-up rounds per set-up: a round takes about a millisecond, so a
/// few would leave setup_s at the mercy of one page fault.
constexpr int kWarmupRounds = 32;
/// Virtual times of every round must agree to this relative tolerance:
/// they are makespan deltas on a clock that keeps growing, so they can
/// differ in the last bits only.
constexpr double kVirtualTol = 1e-9;

/// The modeled node, set here rather than read from a library preset so
/// that a change to the presets does not move this benchmark.
sys::SimConfig a100Node()
{
    sys::SimConfig cfg;
    cfg.device.memBandwidth = 1.24e12;
    cfg.device.flopRate = 19.5e12;
    cfg.device.kernelLaunchOverhead = 4e-6;
    cfg.link.bandwidth = 200e9;
    cfg.link.latency = 4e-6;
    cfg.deviceMemCapacity = 40ull << 30;
    cfg.dryRun = true;
    return cfg;
}

struct Sim
{
    using CgGrid = dgrid::DGrid;
    using CgField = dgrid::DField<double>;

    set::Backend                                  backend;
    CgGrid                                        cgGrid;
    CgField                                       x, b;
    std::unique_ptr<CgParts<CgGrid, CgField>>     cg;
    skeleton::Skeleton                            cgIter;
    dgrid::DGrid                                  lbmGrid;
    lbm::CavityD3Q19<dgrid::DGrid, float>         cavity;

    explicit Sim(Result& result)
        : backend(makeBackend(set::BackendSpec::simGpu(kDevices, a100Node()).withHostThreads(1),
                              result)),
          cgGrid(backend, {320, 320, 320}, Stencil::laplace7()),
          x(cgGrid.newField<double>("x", 1, 0.0)),
          b(cgGrid.newField<double>("b", 1, 0.0)),
          cg(std::make_unique<CgParts<CgGrid, CgField>>(
              cgGrid,
              [g = cgGrid](CgField in, CgField out) {
                  return poisson::makeLaplacianApply(g, in, out);
              },
              x, b)),
          cgIter(backend),
          lbmGrid(backend, {192, 192, 192}, lbm::D3Q19::stencil()),
          cavity(lbmGrid, 0.56, 0.1, Occ::STANDARD)
    {}

    struct Round
    {
        double                     wall = 0.0;
        double                     cgIterV = 0.0;
        double                     lbmStepV = 0.0;
        skeleton::CompiledSchedule handle;
    };

    Round round()
    {
        Round        r;
        const double t0 = wallNow();
        backend.sync();
        const double m0 = backend.profiler().makespan();
        traced("skeleton", "sequence", [&] {
            r.handle = cgIter.sequence(cg->iterList(), cgOptions("cg.iter", Occ::EXTENDED));
        });
        for (int i = 0; i < kIters; ++i) {
            traced("skeleton", "run(cg)", [&] { cgIter.run(); });
        }
        traced("set", "sync", [&] { cgIter.sync(); });
        const double m1 = backend.profiler().makespan();
        traced("skeleton", "run(lbm)", [&] { cavity.run(kIters); });
        traced("set", "sync", [&] { backend.sync(); });
        const double m2 = backend.profiler().makespan();
        r.wall = wallNow() - t0;
        r.cgIterV = (m1 - m0) / kIters;
        r.lbmStepV = (m2 - m1) / kIters;
        return r;
    }

    /// Simulated cell updates per round.
    static double cellUpdates() { return kIters * (std::pow(320.0, 3) + std::pow(192.0, 3)); }
};

bool near(double a, double b)
{
    return std::abs(a - b) <= kVirtualTol * std::max(std::abs(a), std::abs(b));
}

}  // namespace

void runSimDgx8(const Context& ctx, Result& result)
{
    const auto build = [&] {
        auto sim = std::make_unique<Sim>(result);
        for (int round = 0; round < kWarmupRounds; ++round) {
            sim->round();
        }
        return sim;
    };
    std::vector<double> setupTimes;
    const auto          sim = coldSetup(build, setupTimes);
    std::cout << "# fingerprint " << fingerprint(ctx, sim->backend.toString(), 0.0) << "\n";

    // Every round's virtual times must equal this one's.
    const Sim::Round first = sim->round();
    const auto       loop = closedLoop(ctx.trace ? ctx.seconds / 2 : ctx.seconds, [&] {
        const auto r = sim->round();
        const bool lintClean = r.handle.lint().clean();
        result.unit(lintClean && r.handle.cacheHit() && near(r.cgIterV, first.cgIterV) &&
                        near(r.lbmStepV, first.lbmStepV),
                    "round " + std::to_string(result.attempted) + ": lint " +
                        (lintClean ? "clean" : "dirty") + ", virtual " +
                        std::to_string(r.cgIterV) + " / " + std::to_string(r.lbmStepV));
        return r.wall;
    }, build, setupTimes);
    const auto& roundTimes = loop.units;
    std::cerr << "perfbench: " << roundTimes.size() << " rounds, " << setupTimes.size()
              << " set-ups, virtual CG iteration "
              << first.cgIterV * 1e6 << " us, LBM step " << first.lbmStepV * 1e6 << " us\n";

    auto&               m = result.metrics;
    std::vector<double> iterSeconds;
    for (const double t : roundTimes) {
        iterSeconds.push_back(t / (2 * kIters));
    }
    if (!ctx.trace) {
        const double round = fastest(roundTimes);
        m["setup_s"] = fastest(setupTimes);
        m["solve_s"] = round;
        m["host_us_per_iter"] = fastest(iterSeconds) * 1e6;
        m["mlups"] = Sim::cellUpdates() / round / 1e6;
        m["peak_rss_mib"] = loop.rssMiB;
        return;
    }

    addTail(result, "setup_s", setupTimes);
    addTail(result, "solve_s", roundTimes);
    addTail(result, "host_us_per_iter", iterSeconds, 1e6);
    m["sim.cg_iter_us"] = first.cgIterV * 1e6;
    m["sim.lbm_step_us"] = first.lbmStepV * 1e6;

    // Rounds with spans off and on in turn for the tracing overhead, then
    // one profiled round for the virtual-timeline report.
    auto&               tr = tracer();
    std::vector<double> plainWall, tracedWall;
    for (int rep = 0; rep < 21; ++rep) {
        tr.enable(false);
        plainWall.push_back(sim->round().wall);
        tr.enable(true);
        tracedWall.push_back(sim->round().wall);
    }
    m["trace.overhead_frac"] = median(tracedWall) / median(plainWall) - 1.0;
    m["skeleton.run_us"] = median(plainWall) / (2 * kIters) * 1e6;

    auto prof = sim->backend.profiler();
    prof.clear();
    prof.enable(true);
    sim->round();
    prof.enable(false);
    const auto report = prof.report();
    prof.clear();
    m["sim.overlap_pct"] = report.overlapPercent();
    m["sim.critical_path_us"] = report.criticalPath() * 1e6;
    m["sim.wait_us"] = report.totalWaitTime() * 1e6;
    m["sim.halo_bytes_per_iter"] = static_cast<double>(report.haloBytes()) / (2 * kIters);
    m["sim.device_util"] = report.deviceUtilization();
    m["sys.enqueue_ns_per_op"] = median(plainWall) / std::max(report.eventCount(), 1) * 1e9;

    probeSchedule(sim->backend, sim->cg->iterList(), cgOptions("cg.iter", Occ::EXTENDED), result);
    probeIdleSync(sim->backend, result);
}

}  // namespace perfbench
