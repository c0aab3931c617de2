#pragma once
// The fused D3Q19 collide+stream container of lbm::CavityD3Q19, built from
// the public Container API so that lbm_cavity's traced run can time it
// alone. lbm::CavityD3Q19 keeps its container private; this is the same
// loading lambda, and lbm_cavity checks in traced mode that one run of it
// reproduces one cavity step bit for bit.

#include "lbm/lattice.hpp"
#include "skeleton/skeleton.hpp"

namespace perfbench {

template <typename Grid, typename Field>
neon::set::Container makeCollideStream(const Grid& grid, Field fin, Field fout, float omega,
                                       float lidU)
{
    using neon::lbm::D3Q19;
    using Real = float;
    const int32_t topZ = grid.dim().z - 1;
    return grid.newContainer("collideStream", [fin, fout, omega, lidU, topZ](auto& l) mutable {
        auto in = l.load(fin, neon::Access::READ, neon::Compute::STENCIL);
        auto out = l.load(fout, neon::Access::WRITE);
        return [=](const auto& cell) mutable {
            Real                 f[D3Q19::Q];
            const neon::index_3d g = in.globalIdx(cell);
            for (int i = 0; i < D3Q19::Q; ++i) {
                const neon::index_3d pullOff{-D3Q19::c[static_cast<size_t>(i)][0],
                                             -D3Q19::c[static_cast<size_t>(i)][1],
                                             -D3Q19::c[static_cast<size_t>(i)][2]};
                const auto           ngh = in.nghData(cell, pullOff, i);
                if (i != 0 && !ngh.isValid) {
                    f[i] = in(cell, D3Q19::opp[static_cast<size_t>(i)]);
                    if (g.z == topZ && D3Q19::c[static_cast<size_t>(i)][2] < 0) {
                        f[i] += Real(6) * static_cast<Real>(D3Q19::weight(i)) * lidU *
                                static_cast<Real>(D3Q19::c[static_cast<size_t>(i)][0]);
                    }
                } else {
                    f[i] = i == 0 ? in(cell, 0) : ngh.value;
                }
            }
            Real rho = 0;
            Real ux = 0;
            Real uy = 0;
            Real uz = 0;
            for (int i = 0; i < D3Q19::Q; ++i) {
                rho += f[i];
                ux += f[i] * static_cast<Real>(D3Q19::c[static_cast<size_t>(i)][0]);
                uy += f[i] * static_cast<Real>(D3Q19::c[static_cast<size_t>(i)][1]);
                uz += f[i] * static_cast<Real>(D3Q19::c[static_cast<size_t>(i)][2]);
            }
            ux /= rho;
            uy /= rho;
            uz /= rho;
            for (int i = 0; i < D3Q19::Q; ++i) {
                const Real feq = neon::lbm::equilibrium<D3Q19, Real>(i, rho, ux, uy, uz);
                out(cell, i) = f[i] + omega * (feq - f[i]);
            }
        };
    });
}

}  // namespace perfbench
