// poisson_cg and fem_sparse: closed loops of CG solves to tolerance through
// solver::cgSolve, with the host-side residual check, and the traced
// breakdown of the same solve (cg_parts.hpp).

#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <type_traits>

#include "cg_parts.hpp"
#include "dgrid/dfield.hpp"
#include "egrid/efield.hpp"
#include "fem/elasticity.hpp"
#include "poisson/native.hpp"
#include "poisson/poisson.hpp"
#include "probes.hpp"
#include "solver/cg.hpp"
#include "workloads.hpp"

using namespace neon;

namespace perfbench {
namespace {

constexpr int kMaxIterations = 20000;
/// Fixed iteration count of the reference runs (native ratio, speed-up).
constexpr int kRefIterations = 20;
constexpr int kRefReps = 3;
constexpr int kProfiledIterations = 8;

/// Host mirror of `f` as a flat vector over the bounding box (pitch-major,
/// component-minor); inactive cells read 0.
template <typename Field>
std::vector<double> gatherHost(const Field& f, const index_3d& dim)
{
    f.updateHost();
    const auto          card = static_cast<size_t>(f.cardinality());
    std::vector<double> out(dim.size() * card, 0.0);
    f.forEachActiveHost([&](const index_3d& g, int c, const double& v) {
        out[dim.pitch(g) * card + static_cast<size_t>(c)] = v;
    });
    return out;
}

double norm2(const std::vector<double>& v)
{
    double s = 0.0;
    for (const double e : v) {
        s += e * e;
    }
    return std::sqrt(s);
}

double relativeResidual(const std::vector<double>& rhs, const std::vector<double>& ax)
{
    std::vector<double> r(rhs.size());
    for (size_t i = 0; i < r.size(); ++i) {
        r[i] = rhs[i] - ax[i];
    }
    return norm2(r) / norm2(rhs);
}

/// 7-point Poisson on a dense n^3 grid over two CPU devices, random RHS.
struct Poisson
{
    /// Side of the closed loop's box.
    static constexpr int32_t     kN = 16;
    /// Side of the box of the host-pool probes: at kN a device's span is
    /// one chunk (spanChunkCount gives one chunk per 2048 cells), so the
    /// pool would not engage.
    static constexpr int32_t     kPoolN = 32;
    static constexpr const char* kGridModule = "dgrid";
    static constexpr const char* kApply = "laplacian";
    static constexpr int         kDevices = 2;
    static constexpr double      kTol = 1e-8;
    static constexpr Occ         kOcc = Occ::STANDARD;
    using Grid = dgrid::DGrid;
    using Field = dgrid::DField<double>;

    index_3d                  dim;
    std::vector<double>       rhs;  ///< pitch order
    Grid                      grid;
    Field                     x, b;
    poisson::native::NativeCg host{dim};  ///< host operator of the residual check

    Poisson(uint64_t seed, const set::BackendSpec& spec, Result& result, int32_t n = kN)
        : dim{n, n, n}
    {
        std::mt19937_64                        rng(seed);
        std::uniform_real_distribution<double> u(-1.0, 1.0);
        rhs.resize(dim.size());
        for (double& v : rhs) {
            v = u(rng);
        }
        grid = Grid(makeBackend(spec, result), dim, Stencil::laplace7());
        x = grid.newField<double>("x", 1, 0.0);
        b = grid.newField<double>("b", 1, 0.0);
        b.forEachActiveHost([&](const index_3d& g, int, double& v) { v = rhs[dim.pitch(g)]; });
        b.updateDev();
        resetX();
    }

    void resetX() const
    {
        x.fillHost(0.0);
        x.updateDev();
    }

    [[nodiscard]] std::function<set::Container(Field, Field)> makeApply() const
    {
        return [g = grid](Field in, Field out) { return poisson::makeLaplacianApply(g, in, out); };
    }

    [[nodiscard]] double cells() const { return static_cast<double>(dim.size()); }
    /// x, b and cgSolve's r, p, Ap.
    [[nodiscard]] double workingSetMiB() const { return 5.0 * cells() * 8.0 / (1 << 20); }

    [[nodiscard]] double trueResidual() const
    {
        const auto          xv = gatherHost(x, dim);
        std::vector<double> ax(xv.size());
        host.apply(xv, ax);
        return relativeResidual(rhs, ax);
    }
};

/// Hex8 elasticity on an element-sparse 24x24x12 EGrid over two CPU devices.
/// The solid is a set of seeded square columns spanning all of z, so the
/// loaded top face and the fixed bottom face are both solid.
struct Fem
{
    static constexpr const char* kGridModule = "egrid";
    static constexpr const char* kApply = "elasticApply";
    static constexpr int         kDevices = 2;
    static constexpr double      kTol = 1e-6;
    static constexpr Occ         kOcc = Occ::STANDARD;
    /// 3 columns of 6x6 nodes cover 19% of the 24x24 plane.
    static constexpr int         kColumns = 3;
    static constexpr int32_t     kColumnSide = 6;
    using Grid = egrid::EGrid;
    using Field = egrid::EField<double>;
    using Flags = egrid::EField<uint8_t>;

    index_3d              dim{24, 24, 12};
    std::vector<uint8_t>  columns;  ///< xy mask of the solid columns
    fem::ElasticProblem   problem{fem::Material{1.0, 0.3}, 1.0, 1.0};
    fem::ElementStiffness ke = fem::hex8Stiffness(problem.material, problem.h);
    Grid                  grid;
    Flags                 act;
    Field                 x, b;
    std::vector<double>   rhs;

    Fem(uint64_t seed, const set::BackendSpec& spec, Result& result)
    {
        // Rejection-sample kColumns squares that neither overlap nor touch
        // (a gap of one node keeps them from sharing elements), so every
        // seed solves the same set of independent columns, placed
        // differently: the iteration count barely depends on the seed.
        std::mt19937_64                        rng(seed);
        std::uniform_int_distribution<int32_t> pos(0, dim.x - kColumnSide);
        columns.assign(static_cast<size_t>(dim.x) * static_cast<size_t>(dim.y), 0);
        const auto at = [&](int32_t xx, int32_t yy) -> uint8_t& {
            return columns[static_cast<size_t>(xx + dim.x * yy)];
        };
        for (int placed = 0; placed < kColumns;) {
            const int32_t x0 = pos(rng);
            const int32_t y0 = pos(rng);
            bool          free = true;
            const int32_t x1 = std::min(x0 + kColumnSide, dim.x - 1);
            const int32_t y1 = std::min(y0 + kColumnSide, dim.y - 1);
            for (int32_t yy = std::max(y0 - 1, 0); yy <= y1; ++yy) {
                for (int32_t xx = std::max(x0 - 1, 0); xx <= x1; ++xx) {
                    free = free && at(xx, yy) == 0;
                }
            }
            if (!free) {
                continue;
            }
            for (int32_t yy = y0; yy < y0 + kColumnSide; ++yy) {
                for (int32_t xx = x0; xx < x0 + kColumnSide; ++xx) {
                    at(xx, yy) = 1;
                }
            }
            ++placed;
        }
        grid = Grid(makeBackend(spec, result), dim, [this](const index_3d& g) { return solid(g); },
                    Stencil::box27());
        act = grid.newField<uint8_t>("act", 1, 0);
        act.forEachActiveHost([](const index_3d&, int, uint8_t& v) { v = 1; });
        act.updateDev();
        x = grid.newField<double>("x", 3, 0.0);
        b = grid.newField<double>("b", 3, 0.0);
        fem::fillPressureRhs(grid, problem, b);
        rhs = gatherHost(b, dim);
        resetX();
    }

    [[nodiscard]] bool solid(const index_3d& g) const
    {
        return dim.contains(g) && columns[static_cast<size_t>(g.x + dim.x * g.y)] != 0;
    }

    void resetX() const
    {
        x.fillHost(0.0);
        x.updateDev();
    }

    [[nodiscard]] std::function<set::Container(Field, Field)> makeApply() const
    {
        return [g = grid, pr = problem, a = act](Field in, Field out) {
            return fem::makeElasticApply(g, pr, a, in, out);
        };
    }

    [[nodiscard]] double cells() const { return static_cast<double>(grid.activeCount()); }
    /// x, b, r, p, Ap (3 doubles each), act, plus the 27-entry int32
    /// connectivity and the coordinates of every active node.
    [[nodiscard]] double workingSetMiB() const
    {
        return cells() * (5 * 24 + 1 + 27 * 4 + 12) / (1 << 20);
    }

    /// ||b - A x|| / ||b|| with A assembled element by element from the
    /// hex8 stiffness (independent of the kernel's node-stencil table):
    /// rows and columns of fixed (z = 0) and absent nodes are projected
    /// out, and their rows are the identity.
    [[nodiscard]] double trueResidual() const
    {
        const auto          u = gatherHost(x, dim);
        std::vector<double> y(u.size(), 0.0);
        const auto          fixed = [&](const index_3d& g) { return !solid(g) || g.z == 0; };
        for (int32_t z = 0; z + 1 < dim.z; ++z) {
            for (int32_t yy = 0; yy + 1 < dim.y; ++yy) {
                for (int32_t xx = 0; xx + 1 < dim.x; ++xx) {
                    index_3d node[8];
                    bool     all = true;
                    for (int a = 0; a < 8 && all; ++a) {
                        const auto k = fem::hex8Corner(a);
                        node[a] = {xx + k[0], yy + k[1], z + k[2]};
                        all = solid(node[a]);
                    }
                    if (!all) {
                        continue;
                    }
                    for (int a = 0; a < 8; ++a) {
                        if (fixed(node[a])) {
                            continue;
                        }
                        const size_t ia = dim.pitch(node[a]) * 3;
                        for (int c = 0; c < 8; ++c) {
                            if (fixed(node[c])) {
                                continue;
                            }
                            const size_t ic = dim.pitch(node[c]) * 3;
                            for (int r = 0; r < 3; ++r) {
                                const auto& row = ke[static_cast<size_t>(3 * a + r)];
                                for (int s = 0; s < 3; ++s) {
                                    y[ia + static_cast<size_t>(r)] +=
                                        row[static_cast<size_t>(3 * c + s)] *
                                        u[ic + static_cast<size_t>(s)];
                                }
                            }
                        }
                    }
                }
            }
        }
        dim.forEach([&](const index_3d& g) {
            if (fixed(g)) {
                const size_t i = dim.pitch(g) * 3;
                for (size_t r = 0; r < 3; ++r) {
                    y[i + r] = u[i + r];
                }
            }
        });
        return relativeResidual(rhs, y);
    }
};

template <typename Problem>
set::BackendSpec specFor(int threads, int devices = Problem::kDevices)
{
    return set::BackendSpec::cpu(devices).withHostThreads(threads);
}

template <typename Problem>
solver::CgResult solveOnce(Problem& pb, int maxIterations, bool fixedIterations,
                           Occ occ = Problem::kOcc)
{
    solver::CgOptions options;
    options.maxIterations = maxIterations;
    options.tolerance = Problem::kTol;
    options.occ = occ;
    options.fixedIterations = fixedIterations;
    return solver::cgSolve<typename Problem::Grid, typename Problem::Field, double>(
        pb.grid, pb.makeApply(), pb.x, pb.b, options);
}

/// Median wall seconds per iteration of a fixed-iteration cgSolve.
template <typename Problem>
double fixedIterationSeconds(Problem& pb, Occ occ)
{
    std::vector<double> t;
    for (int rep = 0; rep < kRefReps; ++rep) {
        pb.resetX();
        t.push_back(traced("solver", "cgSolve.fixed",
                           [&] { solveOnce(pb, kRefIterations, true, occ); }) /
                    kRefIterations);
    }
    return median(t);
}

double medianOf(const PartTimes& times, const std::string& key)
{
    const auto it = times.find(key);
    return it == times.end() ? 0.0 : median(it->second);
}

/// Neon against the hand-written flat-loop CG, one device and one thread
/// each, same problem, same fixed iteration count.
double nativeCgRatio(const Context& ctx, Result& result)
{
    Poisson neon1(ctx.seed, set::BackendSpec::cpu(1).withHostThreads(1), result);
    fixedIterationSeconds(neon1, Occ::NONE);  // warm-up
    const double tNeon = fixedIterationSeconds(neon1, Occ::NONE);

    poisson::native::NativeCg native(neon1.dim);
    native.rhs() = neon1.rhs;
    std::vector<double> t;
    for (int rep = 0; rep < kRefReps + 1; ++rep) {
        t.push_back(traced("ref", "NativeCg", [&] { native.solve(kRefIterations, 0.0); }) /
                    kRefIterations);
    }
    t.erase(t.begin());  // warm-up
    return tNeon / median(t);
}

/// sys.pool_* and sys.enqueue_ns_per_op from a few profiled iterations of
/// the CG iteration skeleton on `pb`.
template <typename Problem>
void probeProfiledIterations(Problem& pb, Result& result)
{
    using Parts = CgParts<typename Problem::Grid, typename Problem::Field>;
    pb.resetX();
    auto               backend = pb.grid.backend();
    Parts              parts(pb.grid, pb.makeApply(), pb.x, pb.b);
    skeleton::Skeleton init(backend);
    skeleton::Skeleton iter(backend);
    init.sequence(parts.initList(), cgOptions("cg.init", Problem::kOcc));
    iter.sequence(parts.iterList(), cgOptions("cg.iter", Problem::kOcc));
    init.run();
    init.sync();
    probeHostPool(backend, kProfiledIterations, [&] {
        iter.run();
        iter.sync();
    }, result);
}

/// The traced breakdown of one workload (everything after the closed loop).
template <typename Problem>
void tracedBreakdown(const Context& ctx, Problem& pb, const std::vector<double>& loopSolution,
                     int loopIterations, Result& result)
{
    auto&       m = result.metrics;
    auto        backend = pb.grid.backend();
    const char* gm = Problem::kGridModule;
    const auto  apply = pb.makeApply();

    // The skeleton path of cgSolve and the Set-level path, one iteration
    // of each in turn so both are timed under the same host load. The
    // skeleton path must reproduce the closed loop's solve exactly; its
    // iterations alternate spans on and off to measure the tracing cost.
    using Parts = CgParts<typename Problem::Grid, typename Problem::Field>;
    pb.resetX();
    Parts sklParts(pb.grid, apply, pb.x, pb.b);
    auto  xManual = pb.grid.template newField<double>("x.manual", pb.x.cardinality(), 0.0);
    xManual.fillHost(0.0);
    xManual.updateDev();
    Parts               manualParts(pb.grid, apply, xManual, pb.b);
    PartTimes           parts;
    SkeletonCg<Parts>   skl(sklParts, Problem::kOcc, Problem::kTol);
    ManualCg<Parts>     manual(manualParts, Problem::kTol, gm, Problem::kApply, parts);
    std::vector<double> plainRun, tracedRun, isolatedShare;
    auto&               tr = tracer();
    for (int it = 0; it < kMaxIterations && !(skl.done() && manual.done()); ++it) {
        const bool on = it % 2 == 1;
        double     run = 0.0;
        if (!skl.done()) {
            tr.enable(on);
            run = skl.step();
            tr.enable(true);
        }
        const double isolated = manual.done() ? 0.0 : manual.step();
        if (run > 0.0) {
            (on ? tracedRun : plainRun).push_back(run);
            if (!on && isolated > 0.0) {
                isolatedShare.push_back(isolated / run);
            }
        }
    }
    result.require(skl.iterations() == loopIterations &&
                       gatherHost(pb.x, pb.dim) == loopSolution,
                   "skeleton decomposition differs from solver::cgSolve");
    result.require(manual.done(), "Set-level CG did not converge");
    const double runSeconds = median(plainRun);
    m["skeleton.run_us"] = runSeconds * 1e6;
    m["trace.overhead_frac"] = median(tracedRun) / runSeconds - 1.0;
    m["solver.iters"] = skl.iterations();
    // Each plain skeleton iteration is paired with the Set-level iteration
    // run right after it, so host-load swings cancel within a pair.
    const double selfFrac = 1.0 - median(isolatedShare);
    m["skeleton.self_frac"] = selfFrac;
    result.require(selfFrac >= -kReconcileTol,
                   "reconciliation: isolated containers exceed the skeleton run by " +
                       std::to_string(-selfFrac));
    const std::string g = gm;
    const std::vector<std::pair<std::string, set::Container>> kernels = {
        {Problem::kApply, sklParts.applyP}, {"axpy", sklParts.xUpdate},
        {"axmy", sklParts.rUpdate},         {"xpby", sklParts.updateP},
        {"dot", sklParts.dotPAp},           {"norm2Sq", sklParts.dotRR}};
    for (const auto& [name, c] : kernels) {
        m[g + "." + name + ".ns_per_cell"] = medianOf(parts, g + "/" + name) / pb.cells() * 1e9;
        m[g + "." + name + ".bytes_per_cell"] = c.costHint().bytesPerItem;
    }
    m[g + ".halo_us"] = medianOf(parts, g + "/halo") * 1e6;
    if constexpr (std::is_same_v<typename Problem::Grid, egrid::EGrid>) {
        m["egrid.active_cells"] = pb.cells();
    }
    m["patterns.dot.combine_us"] = medianOf(parts, "patterns/dot.combine") * 1e6;
    m["set.scalar_op_us"] = medianOf(parts, "set/scalar_op") * 1e6;

    probeSchedule(backend, sklParts.iterList(), cgOptions("cg.iter", Problem::kOcc), result);
    probeIdleSync(backend, result);

    if constexpr (std::is_same_v<Problem, Poisson>) {
        // The closed loop runs on one host thread. The host-pool probes
        // and the thread speed-up use kPoolN^3 instances, on a pool of
        // Context::width threads and on one thread.
        Poisson pooled(ctx.seed, specFor<Problem>(ctx.width), result, Poisson::kPoolN);
        Poisson one(ctx.seed, specFor<Problem>(1), result, Poisson::kPoolN);
        probeProfiledIterations(pooled, result);
        probePoolForkJoin(ctx.width, pooled.grid.span(0, DataView::STANDARD).chunkCount(),
                          result);
        fixedIterationSeconds(pooled, Problem::kOcc);  // warm-up
        fixedIterationSeconds(one, Problem::kOcc);     // warm-up
        const double tn = fixedIterationSeconds(pooled, Problem::kOcc);
        const double t1 = fixedIterationSeconds(one, Problem::kOcc);
        m["ref.cg_thread_speedup"] = t1 / tn;
        m["ref.native_cg_ratio_1t"] = nativeCgRatio(ctx, result);
    } else {
        probeProfiledIterations(pb, result);
        probePoolForkJoin(1, pb.grid.span(0, DataView::STANDARD).chunkCount(), result);
    }
}

template <typename Problem>
void runCg(const Context& ctx, Result& result)
{
    const auto build = [&] {
        auto pb = std::make_unique<Problem>(ctx.seed, specFor<Problem>(1), result);
        solveOnce(*pb, kMaxIterations, false);  // warm-up
        pb->resetX();
        return pb;
    };
    std::vector<double> setupTimes;
    const auto          pb = coldSetup(build, setupTimes);
    std::cout << "# fingerprint "
              << fingerprint(ctx, pb->grid.backend().toString(), pb->workingSetMiB()) << "\n";
    result.require(norm2(pb->rhs) > 0.0, "rejected input: b = 0");

    std::vector<double> iterSeconds;
    int                 iterations = 0;
    double              worstResidual = 0.0;
    const auto          loop = closedLoop(
        ctx.trace ? ctx.seconds / 3 : ctx.seconds,
        [&] {
            pb->resetX();
            solver::CgResult res;
            const double     dt = traced("solver", "cgSolve", [&] {
                res = solveOnce(*pb, kMaxIterations, false);
            });
            const double rel = pb->trueResidual();
            worstResidual = std::max(worstResidual, rel);
            result.unit(res.converged && res.iterations > 1 && rel <= Problem::kTol,
                        "solve " + std::to_string(result.attempted) + ": " +
                            std::to_string(res.iterations) + " iterations, true residual " +
                            std::to_string(rel));
            iterations = res.iterations;
            iterSeconds.push_back(dt / std::max(res.iterations, 1));
            return dt;
        },
        build, setupTimes);
    const auto solution = gatherHost(pb->x, pb->dim);
    std::cerr << "perfbench: " << loop.units.size() << " solves, " << iterations
              << " iterations each, " << setupTimes.size() << " set-ups, worst true residual "
              << worstResidual << "\n";

    auto& m = result.metrics;
    if (!ctx.trace) {
        const double solve = fastest(loop.units);
        m["setup_s"] = fastest(setupTimes);
        m["solve_s"] = solve;
        m["host_us_per_iter"] = fastest(iterSeconds) * 1e6;
        m["mlups"] = pb->cells() * iterations / solve / 1e6;
        m["peak_rss_mib"] = loop.rssMiB;
        return;
    }
    addTail(result, "setup_s", setupTimes);
    addTail(result, "solve_s", loop.units);
    addTail(result, "host_us_per_iter", iterSeconds, 1e6);
    m["solver.us_per_iter"] = median(iterSeconds) * 1e6;
    tracedBreakdown(ctx, *pb, solution, iterations, result);
}

}  // namespace

void runPoissonCg(const Context& ctx, Result& result)
{
    runCg<Poisson>(ctx, result);
}

void runFemSparse(const Context& ctx, Result& result)
{
    runCg<Fem>(ctx, result);
}

}  // namespace perfbench
