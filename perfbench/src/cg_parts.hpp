#pragma once
// The CG solve of solver::cgSolve, rebuilt from the same public containers
// (patterns::xpby/dot/axpy/axmy/norm2Sq, Container::scalarOp and the
// caller's operator) in the same order, so that the traced mode can time
// its parts from outside:
//   - SkeletonCg: the two Skeletons cgSolve builds, with a span around
//     every sequence/run/sync call;
//   - ManualCg: the same iteration at the Set level, one
//     Container::run(StreamSet) per container, plus the halo update and
//     the reduce combine step the Skeleton would insert, each timed alone.
// Both advance one iteration per step(), so a caller can interleave them
// and compare times taken under the same host load.

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "patterns/blas.hpp"
#include "set/container.hpp"
#include "set/scalar.hpp"
#include "skeleton/skeleton.hpp"

namespace perfbench {

template <typename Grid, typename Field>
struct CgParts
{
    using Scalar = neon::set::GlobalScalar<double>;
    using Container = neon::set::Container;

    Grid   grid;
    Field  x, b, r, p, Ap;
    Scalar rsold, rsnew, pAp, alpha, beta, bNorm;

    Container applyX, initR, rsInit, bbInit;
    Container updateP, applyP, dotPAp, alphaOp, xUpdate, rUpdate, dotRR, betaOp;

    /// `makeApply(in, out)` returns the operator container out = A*in.
    template <typename MakeApply>
    CgParts(const Grid& g, MakeApply makeApply, Field xIn, Field bIn) : grid(g), x(xIn), b(bIn)
    {
        namespace patterns = neon::patterns;
        auto      backend = grid.backend();
        const int card = x.cardinality();
        r = grid.template newField<double>("cg.r", card, 0.0);
        p = grid.template newField<double>("cg.p", card, 0.0);
        Ap = grid.template newField<double>("cg.Ap", card, 0.0);
        rsold = Scalar(backend, "cg.rsold", 0.0);
        rsnew = Scalar(backend, "cg.rsnew", 0.0);
        pAp = Scalar(backend, "cg.pAp", 0.0);
        alpha = Scalar(backend, "cg.alpha", 0.0);
        beta = Scalar(backend, "cg.beta", 0.0);
        bNorm = Scalar(backend, "cg.bNorm", 0.0);

        applyX = makeApply(x, Ap);
        initR = grid.newContainer("cg.initR", [bb = b, ap = Ap, rr = r, card](auto& l) mutable {
            auto bp = l.load(bb, neon::Access::READ);
            auto app = l.load(ap, neon::Access::READ);
            auto rp = l.load(rr, neon::Access::WRITE);
            return [=](const auto& cell) mutable {
                for (int c = 0; c < card; ++c) {
                    rp(cell, c) = bp(cell, c) - app(cell, c);
                }
            };
        });
        rsInit = patterns::norm2Sq(grid, r, rsold, "cg.rs0");
        bbInit = patterns::norm2Sq(grid, b, bNorm, "cg.bb");

        updateP = patterns::xpby(grid, r, beta, p, "cg.updateP");
        applyP = makeApply(p, Ap);
        dotPAp = patterns::dot(grid, p, Ap, pAp, "cg.pAp");
        alphaOp = Container::scalarOp<double>(
            "cg.alpha", backend, {rsold, pAp}, {alpha},
            [rs = rsold, pa = pAp, al = alpha]() mutable {
                al.set(rs.hostValue() / pa.hostValue());
            });
        xUpdate = patterns::axpy(grid, alpha, p, x, "cg.x+=ap");
        rUpdate = patterns::axmy(grid, alpha, Ap, r, "cg.r-=aAp");
        dotRR = patterns::norm2Sq(grid, r, rsnew, "cg.rsnew");
        betaOp = Container::scalarOp<double>(
            "cg.beta", backend, {rsnew, rsold}, {beta, rsold},
            [rn = rsnew, rs = rsold, be = beta]() mutable {
                be.set(rn.hostValue() / rs.hostValue());
                rs.set(rn.hostValue());
            });
    }

    [[nodiscard]] std::vector<Container> initList() const
    {
        return {applyX, initR, rsInit, bbInit};
    }
    [[nodiscard]] std::vector<Container> iterList() const
    {
        return {updateP, applyP, dotPAp, alphaOp, xUpdate, rUpdate, dotRR, betaOp};
    }
};

inline neon::skeleton::SequenceOptions cgOptions(const char* name, neon::Occ occ, bool cache = true)
{
    return neon::skeleton::SequenceOptions().withName(name).withOcc(occ).withCache(cache);
}

/// cgSolve's control flow over CgParts, one iteration per step(): the two
/// Skeletons cgSolve builds, with a span around every sequence/run/sync.
template <typename Parts>
class SkeletonCg
{
   public:
    SkeletonCg(Parts& cg, neon::Occ occ, double tol)
        : mCg(cg), mTol(tol), mInit(cg.grid.backend()), mIter(cg.grid.backend())
    {
        traced("skeleton", "sequence",
               [&] { mInit.sequence(cg.initList(), cgOptions("cg.init", occ)); });
        traced("skeleton", "run", [&] { mInit.run(); });
        traced("set", "sync", [&] { mInit.sync(); });
        cg.beta.set(0.0);
        const double bb = cg.bNorm.hostValue();
        mBScale = bb > 0 ? std::sqrt(bb) : 1.0;
        mDone = std::sqrt(cg.rsold.hostValue()) / mBScale <= tol;
        traced("skeleton", "sequence",
               [&] { mIter.sequence(cg.iterList(), cgOptions("cg.iter", occ)); });
    }

    [[nodiscard]] bool done() const { return mDone; }
    [[nodiscard]] int  iterations() const { return mIterations; }

    /// Run one iteration; returns its wall seconds.
    double step()
    {
        const double t0 = wallNow();
        {
            auto span = tracer().span("solver", "cg.iteration");
            traced("skeleton", "run", [&] { mIter.run(); });
            traced("set", "sync", [&] { mIter.sync(); });
            mDone = std::sqrt(mCg.rsnew.hostValue()) / mBScale <= mTol;
        }
        ++mIterations;
        return wallNow() - t0;
    }

   private:
    Parts&                   mCg;
    double                   mTol;
    double                   mBScale = 1.0;
    bool                     mDone = false;
    int                      mIterations = 0;
    neon::skeleton::Skeleton mInit, mIter;
};

/// Per-iteration wall seconds of each part of a Set-level CG iteration,
/// keyed "<module>/<name>".
using PartTimes = std::map<std::string, std::vector<double>>;

/// The CG iteration at the Set level, one iteration per step(): every
/// container of the iteration runs alone through Container::run(StreamSet)
/// followed by a backend sync, so each time is an isolated container run.
/// The halo update of p and the reduce combine step, which the Skeleton
/// inserts itself, are timed separately (the combine re-runs on the
/// partials its reduction left). `gridModule` names the module the kernels
/// are attributed to and `applyName` the operator kernel.
template <typename Parts>
class ManualCg
{
   public:
    using Container = neon::set::Container;

    ManualCg(Parts& cg, double tol, const char* gridModule, const char* applyName,
             PartTimes& times)
        : mCg(cg),
          mTol(tol),
          mBackend(cg.grid.backend()),
          mStreams(mBackend, 0),
          mHaloP(Container::haloUpdate(cg.p.haloOps())),
          mGridModule(gridModule),
          mApplyName(applyName),
          mTimes(times)
    {
        for (const Container& c :
             {Container::haloUpdate(cg.x.haloOps()), cg.applyX, cg.initR, cg.rsInit, cg.bbInit}) {
            c.run(mStreams);
        }
        mBackend.sync();
        cg.beta.set(0.0);
        const double bb = cg.bNorm.hostValue();
        mBScale = bb > 0 ? std::sqrt(bb) : 1.0;
        mDone = std::sqrt(cg.rsold.hostValue()) / mBScale <= tol;
    }

    [[nodiscard]] bool done() const { return mDone; }
    [[nodiscard]] int  iterations() const { return mIterations; }

    /// Run one iteration; returns the summed wall seconds of the
    /// iteration's eight containers (halo and combine excluded).
    double step()
    {
        auto span = tracer().span("solver", "cg.iteration.manual");
        mSum = 0.0;
        run(mGridModule, "xpby", mCg.updateP, true);
        run(mGridModule, "halo", mHaloP, false);
        run(mGridModule, mApplyName, mCg.applyP, true);
        run(mGridModule, "dot", mCg.dotPAp, true);
        const double combine = traced("patterns", "dot.combine", [&] {
            mCg.dotPAp.combineStep().run(mStreams);
            mBackend.sync();
        });
        mTimes["patterns/dot.combine"].push_back(combine);
        run("set", "scalar_op", mCg.alphaOp, true);
        run(mGridModule, "axpy", mCg.xUpdate, true);
        run(mGridModule, "axmy", mCg.rUpdate, true);
        run(mGridModule, "norm2Sq", mCg.dotRR, true);
        run("set", "scalar_op", mCg.betaOp, true);
        ++mIterations;
        mDone = std::sqrt(mCg.rsnew.hostValue()) / mBScale <= mTol;
        return mSum;
    }

   private:
    void run(const char* module, const char* name, const Container& c, bool inSum)
    {
        const double dt = traced(module, name, [&] {
            c.run(mStreams);
            mBackend.sync();
        });
        mTimes[std::string(module) + "/" + name].push_back(dt);
        if (inSum) {
            mSum += dt;
        }
    }

    Parts&                     mCg;
    double                     mTol;
    neon::set::Backend         mBackend;
    const neon::set::StreamSet mStreams;
    const Container            mHaloP;
    const char*                mGridModule;
    const char*                mApplyName;
    PartTimes&                 mTimes;
    double                     mBScale = 1.0;
    double                     mSum = 0.0;
    bool                       mDone = false;
    int                        mIterations = 0;
};

}  // namespace perfbench
