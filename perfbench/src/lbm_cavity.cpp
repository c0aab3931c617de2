// lbm_cavity: closed loop of D3Q19 step blocks through lbm::CavityD3Q19 on
// one CPU device and one host thread, each block checked against the
// hand-written fused baseline advanced in lockstep.

#include <cmath>
#include <iostream>
#include <memory>
#include <random>

#include "dgrid/dfield.hpp"
#include "lbm/cavity3d.hpp"
#include "lbm/native3d.hpp"
#include "lbm_kernel.hpp"
#include "probes.hpp"
#include "workloads.hpp"

using namespace neon;

namespace perfbench {
namespace {

constexpr int      kN = 24;
constexpr int      kBlockSteps = 4;
constexpr int      kWarmupSteps = 16;
constexpr double   kTau = 0.8;
constexpr double   kMacroTol = 1e-5;
constexpr double   kPerturb = 0.01;
using Cavity = lbm::CavityD3Q19<dgrid::DGrid, float>;
using Native = lbm::native::NativeCavityD3Q19<float>;

struct Lbm
{
    index_3d                dim{kN, kN, kN};
    double                  lid;
    dgrid::DGrid            grid;
    std::unique_ptr<Cavity> cavity;

    Lbm(double lidVelocity, int n, Result& result)
        : dim{n, n, n},
          lid(lidVelocity),
          grid(makeBackend(set::BackendSpec::cpu(1).withHostThreads(1), result), dim,
               lbm::D3Q19::stencil()),
          cavity(std::make_unique<Cavity>(grid, kTau, lid, Occ::NONE))
    {
        // NativeCavityD3Q19::perturbDensity applied to the Neon state: a
        // small density wave everywhere. Started from rest instead, cells
        // ahead of the flow front still hold the rest state and step
        // faster, so the step time drifts up (~40% on a 4-core Xeon) while
        // the front crosses the box; with the wave every step does the
        // same work from the first one.
        auto& f = cavity->current();
        f.forEachActiveHost([](const index_3d& g, int, float& v) {
            v *= static_cast<float>(1.0 +
                                    kPerturb * std::sin(0.7 * g.x + 0.31 * g.y + 0.113 * g.z));
        });
        f.updateDev();
    }

    [[nodiscard]] double cells() const { return static_cast<double>(dim.size()); }
    /// Two populations fields of 19 floats per cell.
    [[nodiscard]] double workingSetMiB() const { return 2.0 * 19 * 4 * cells() / (1 << 20); }
};

/// Largest difference of (rho, u) between the Neon state and the native
/// baseline over every cell.
double macroError(Cavity& cavity, const Native& native, const index_3d& dim)
{
    cavity.sync();
    auto& f = cavity.current();
    f.updateHost();
    std::vector<float> pop(dim.size() * lbm::D3Q19::Q);
    f.forEachActiveHost([&](const index_3d& g, int i, const float& v) {
        pop[dim.pitch(g) * lbm::D3Q19::Q + static_cast<size_t>(i)] = v;
    });
    double worst = 0.0;
    dim.forEach([&](const index_3d& g) {
        const float* p = &pop[dim.pitch(g) * lbm::D3Q19::Q];
        double       rho = 0.0;
        double       u[3] = {0.0, 0.0, 0.0};
        for (int i = 0; i < lbm::D3Q19::Q; ++i) {
            rho += p[i];
            for (int d = 0; d < 3; ++d) {
                u[d] += p[i] * lbm::D3Q19::c[static_cast<size_t>(i)][static_cast<size_t>(d)];
            }
        }
        const auto ref = native.macroAt(g);
        worst = std::max(worst, std::abs(rho - ref.rho));
        for (int d = 0; d < 3; ++d) {
            worst = std::max(worst, std::abs(u[d] / rho - ref.u[static_cast<size_t>(d)]));
        }
    });
    return worst;
}

/// One run of the benchmark's copy of the collide+stream container, from
/// the cavity's state into a scratch field, must reproduce one step of
/// lbm::CavityD3Q19 bit for bit (checked on a small cavity).
bool kernelCopyMatches(double lid, Result& result)
{
    Lbm  small(lid, 12, result);
    auto backend = small.grid.backend();
    auto scratch = small.grid.newField<float>("lbm.scratch", lbm::D3Q19::Q, 0.0f);
    makeCollideStream(small.grid, small.cavity->current(), scratch,
                      static_cast<float>(1.0 / kTau), static_cast<float>(lid))
        .run(set::StreamSet(backend, 0));
    backend.sync();
    small.cavity->run(1);
    small.cavity->sync();
    auto& a = small.cavity->current();
    a.updateHost();
    scratch.updateHost();
    bool same = true;
    small.dim.forEach([&](const index_3d& g) {
        for (int i = 0; i < lbm::D3Q19::Q; ++i) {
            same = same && a.hVal(g, i) == scratch.hVal(g, i);
        }
    });
    return same;
}

}  // namespace

void runLbmCavity(const Context& ctx, Result& result)
{
    std::mt19937_64 rng(ctx.seed);
    const double    lid = std::uniform_real_distribution<double>(0.02, 0.1)(rng);

    const auto build = [&] {
        auto pb = std::make_unique<Lbm>(lid, kN, result);
        pb->cavity->run(kWarmupSteps);
        pb->cavity->sync();
        return pb;
    };
    std::vector<double> setupTimes;
    const auto          pb = coldSetup(build, setupTimes);
    std::cout << "# fingerprint "
              << fingerprint(ctx, pb->grid.backend().toString(), pb->workingSetMiB()) << "\n";
    Native native(pb->dim, kTau, lid, lbm::native::Variant::Fused);
    native.perturbDensity(kPerturb);
    native.run(kWarmupSteps);

    auto&      m = result.metrics;
    auto&      tr = tracer();
    const bool tracing = tr.enabled();
    auto       backend = pb->grid.backend();
    const auto streams = set::StreamSet(backend, 0);
    // Traced runs also time the step's one container alone after every
    // block, on the cavity's state (one of its two population fields,
    // written to a scratch field): the same arithmetic on the same values,
    // under the same host load as the skeleton steps it is compared with.
    set::Container isolatedStep;
    if (tracing) {
        auto scratch = pb->grid.newField<float>("lbm.scratch", lbm::D3Q19::Q, 0.0f);
        isolatedStep = makeCollideStream(pb->grid, pb->cavity->current(), scratch,
                                         static_cast<float>(1.0 / kTau), static_cast<float>(lid));
    }

    std::vector<double> plainSteps, tracedSteps, nativeSteps, isolated, isolatedShare;
    double              worst = 0.0;
    const auto          loop = closedLoop(ctx.trace ? ctx.seconds / 2 : ctx.seconds, [&] {
        double block = 0.0;
        double plain = 0.0;
        int    plainCount = 0;
        for (int s = 0; s < kBlockSteps; ++s) {
            // Traced runs alternate spans on and off step by step, to
            // measure the tracing overhead on the same state.
            const bool on = tracing && s % 2 == 0;
            tr.enable(on);
            const double t0 = wallNow();
            traced("skeleton", "run(lbm)", [&] { pb->cavity->run(1); });
            traced("set", "sync", [&] { pb->cavity->sync(); });
            const double dt = wallNow() - t0;
            (on ? tracedSteps : plainSteps).push_back(dt);
            if (!on) {
                plain += dt;
                ++plainCount;
            }
            block += dt;
        }
        tr.enable(tracing);
        if (tracing) {
            // Twice, timing the second: the first brings the scratch field
            // back into cache, as the skeleton steps find their fields.
            for (int rep = 0; rep < 2; ++rep) {
                const double dt = traced("dgrid", "collideStream", [&] {
                    isolatedStep.run(streams);
                    backend.sync();
                });
                if (rep == 1) {
                    isolated.push_back(dt);
                }
            }
            // Paired with the block's untraced steps, so host-load swings
            // cancel within a pair.
            isolatedShare.push_back(isolated.back() / (plain / plainCount));
        }
        nativeSteps.push_back(
            traced("ref", "NativeCavityD3Q19", [&] { native.run(kBlockSteps); }) / kBlockSteps);
        const double err = macroError(*pb->cavity, native, pb->dim);
        worst = std::max(worst, err);
        result.unit(err <= kMacroTol, "block " + std::to_string(result.attempted) +
                                          ": macro difference " + std::to_string(err));
        return block;
    }, build, setupTimes);
    const auto& blockTimes = loop.units;
    std::cerr << "perfbench: " << blockTimes.size() << " blocks of " << kBlockSteps << " steps, "
              << setupTimes.size() << " set-ups, lid " << lid << ", worst macro difference "
              << worst << "\n";

    if (!ctx.trace) {
        const double step = fastest(plainSteps);
        m["setup_s"] = fastest(setupTimes);
        m["solve_s"] = fastest(blockTimes);
        m["host_us_per_iter"] = step * 1e6;
        m["mlups"] = pb->cells() / step / 1e6;
        m["peak_rss_mib"] = loop.rssMiB;
        return;
    }

    std::vector<double> stepSeconds;
    for (const double b : blockTimes) {
        stepSeconds.push_back(b / kBlockSteps);
    }
    addTail(result, "setup_s", setupTimes);
    addTail(result, "solve_s", blockTimes);
    addTail(result, "host_us_per_iter", stepSeconds, 1e6);
    const double runSeconds = median(plainSteps);
    m["skeleton.run_us"] = runSeconds * 1e6;
    m["trace.overhead_frac"] = median(tracedSteps) / runSeconds - 1.0;
    m["ref.native_lbm_ratio_1t"] = runSeconds / median(nativeSteps);
    const double kernel = median(isolated);
    m["dgrid.collideStream.ns_per_cell"] = kernel / pb->cells() * 1e9;
    m["dgrid.collideStream.bytes_per_cell"] = isolatedStep.costHint().bytesPerItem;
    const double selfFrac = 1.0 - median(isolatedShare);
    m["skeleton.self_frac"] = selfFrac;
    result.require(std::abs(selfFrac) <= kReconcileTol,
                   "reconciliation: |self_frac| = " + std::to_string(std::abs(selfFrac)));
    result.require(kernelCopyMatches(lid, result),
                   "the benchmark's collide+stream copy differs from lbm::CavityD3Q19");

    probeSchedule(backend, {isolatedStep}, skeleton::SequenceOptions().withName("lbm.step"),
                  result);
    probeHostPool(backend, 4, [&] {
        pb->cavity->run(1);
        pb->cavity->sync();
    }, result);
    probePoolForkJoin(1, pb->grid.span(0, DataView::STANDARD).chunkCount(), result);
    probeIdleSync(backend, result);
}

}  // namespace perfbench
