#pragma once
// Matrix-free linear-elastic solver (paper §VI-C): a voxel FEM where grid
// cells are element-mesh *nodes* and each node gathers from its 27-point
// neighbourhood using precomputed 3x3 stiffness blocks.
//
// Per-neighbour blocks depend on which of the node's 8 incident elements
// exist; we precompute a table over all 256 activity masks so the kernel
// reduces to: resolve the 26 neighbours once -> build mask (27 activity
// reads) -> 27 block-times-vector accumulations. Node activity is carried by a cardinality-1 field, so the
// same kernel runs on a dense grid with a masked (sparse-in-dense) domain
// and on an element-sparse EGrid — the exact comparison of Fig. 9.
//
// Boundary conditions of the paper's benchmark: displacements fixed to 0 at
// the z = 0 plane (Dirichlet, applied by constraint projection so the
// operator stays SPD) and an outward pressure on the z = N-1 plane
// (Neumann, entering through the right-hand side).

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/index3d.hpp"
#include "domain/ngh_cell.hpp"
#include "fem/hex8.hpp"
#include "solver/cg.hpp"

namespace neon::fem {

/// 27 neighbour offsets in (z, y, x)-major order; index via nghSlot().
constexpr int nghSlot(int dx, int dy, int dz)
{
    return (dz + 1) * 9 + (dy + 1) * 3 + (dx + 1);
}

/// Precomputed node-stencil stiffness blocks for every incident-element
/// activity mask. K(mask, slot) is the 3x3 block coupling a node to its
/// neighbour at offset slot, summed over the active incident elements.
class NodeStencilTable
{
   public:
    NodeStencilTable(const Material& material, double h);

    /// Raw block pointer: 9 doubles, row-major.
    [[nodiscard]] const double* block(int mask, int slot) const
    {
        return mBlocks.data() + ((static_cast<size_t>(mask) * 27 + static_cast<size_t>(slot)) * 9);
    }

    /// Incident element corner offsets: element c (0..7) has its origin at
    /// node + cornerOrigin(c), components in {-1, 0}.
    static constexpr std::array<int, 3> cornerOrigin(int c)
    {
        const auto k = hex8Corner(c);
        return {k[0] - 1, k[1] - 1, k[2] - 1};
    }

   private:
    std::vector<double> mBlocks;  ///< [mask][slot][3x3]
};

/// Problem definition shared by the Neon container and the reference code.
struct ElasticProblem
{
    Material material;
    double   h = 1.0;         ///< element size
    double   pressure = 1.0;  ///< outward pressure on the top (z max) face
    std::shared_ptr<const NodeStencilTable> table;

    explicit ElasticProblem(Material m = {}, double hh = 1.0, double p = 1.0)
        : material(m), h(hh), pressure(p),
          table(std::make_shared<NodeStencilTable>(m, hh))
    {
    }
};

/// Bits of the 8 nodes of incident element c in the kernel's 27-bit
/// node-activity word (bit = nghSlot): the element exists iff all are set.
constexpr uint32_t elementNodeBits(int c)
{
    const auto o = NodeStencilTable::cornerOrigin(c);
    uint32_t   bits = 0;
    for (int n = 0; n < 8; ++n) {
        const auto k = hex8Corner(n);
        bits |= 1u << nghSlot(o[0] + k[0], o[1] + k[1], o[2] + k[2]);
    }
    return bits;
}

/// Container factory: out = A*in where A is the constrained stiffness
/// P K P + (I - P). `act` flags active nodes (1) and is stencil-read.
/// Each of the 26 neighbours is resolved once into a handle; activity and
/// displacements are both read through it.
template <typename Grid, typename FieldT, typename FlagFieldT>
set::Container makeElasticApply(const Grid& grid, const ElasticProblem& problem, FlagFieldT act,
                                FieldT in, FieldT out, std::string name = "elasticApply")
{
    auto table = problem.table;
    return grid.newContainer(std::move(name), [table, act, in, out](auto& l) mutable {
        auto ap = l.load(act, Access::READ, Compute::STENCIL);
        auto up = l.load(in, Access::READ, Compute::STENCIL);
        auto op = l.load(out, Access::WRITE);
        return [=](const auto& cell) mutable {
            const index_3d g = up.globalIdx(cell);
            if (ap(cell) == 0 || g.z == 0) {
                // Inactive (masked) node or Dirichlet row (z = 0): out = u,
                // an identity row that keeps A SPD.
                for (int d = 0; d < 3; ++d) {
                    op(cell, d) = up(cell, d);
                }
                return;
            }
            // The neighbourhood in slot order; the centre is the cell itself.
            using Ngh = domain::NghCell<std::remove_cvref_t<decltype(cell)>>;
            const auto ngh = [&]<int... S>(std::integer_sequence<int, S...>) {
                return std::array<Ngh, 27>{
                    (S == nghSlot(0, 0, 0)
                         ? Ngh{cell, {0, 0, 0}, true}
                         : ap.nghCell(cell, {S % 3 - 1, S / 3 % 3 - 1, S / 9 - 1}))...};
            }(std::make_integer_sequence<int, 27>{});
            uint32_t active = 0;
            for (int s = 0; s < 27; ++s) {
                if (ngh[s].isValid && ap(ngh[s]) != 0) {
                    active |= 1u << s;
                }
            }
            // Incident-element mask: element c exists iff its 8 nodes are
            // active.
            int mask = 0;
            for (int c = 0; c < 8; ++c) {
                const uint32_t nodes = elementNodeBits(c);
                if ((active & nodes) == nodes) {
                    mask |= 1 << c;
                }
            }
            // Sources on the fixed z = 0 plane carry u = 0: drop the
            // dz = -1 slots of the first free plane.
            const uint32_t sources = g.z == 1 ? active & ~0x1FFu : active;
            double         acc[3] = {0.0, 0.0, 0.0};
            for (uint32_t m = sources; m != 0; m &= m - 1) {
                const int     slot = std::countr_zero(m);
                const double* K = table->block(mask, slot);
                const double  u[3] = {up(ngh[slot], 0), up(ngh[slot], 1), up(ngh[slot], 2)};
                for (int r = 0; r < 3; ++r) {
                    acc[r] += K[r * 3 + 0] * u[0] + K[r * 3 + 1] * u[1] + K[r * 3 + 2] * u[2];
                }
            }
            for (int d = 0; d < 3; ++d) {
                op(cell, d) = acc[d];
            }
        };
    });
}

/// Fill the right-hand side: outward (+z) pressure integrated over the top
/// active surface, lumped per node; zero at fixed nodes.
template <typename FieldT, typename Grid>
void fillPressureRhs(const Grid& grid, const ElasticProblem& problem, FieldT b)
{
    if (grid.backend().isDryRun()) {
        return;
    }
    const double nodeForce = problem.pressure * problem.h * problem.h;
    const int32_t zTop = grid.dim().z - 1;
    b.forEachActiveHost([&](const index_3d& g, int c, double& v) {
        v = (c == 2 && g.z == zTop) ? nodeForce : 0.0;
    });
    b.updateDev();
}

/// Solve the paper's benchmark on any grid. `act` must already mark the
/// solid region; returns the CG result (x holds displacements).
template <typename Grid, typename FieldT, typename FlagFieldT>
solver::CgResult solveElastic(const Grid& grid, const ElasticProblem& problem, FlagFieldT act,
                              FieldT x, FieldT b, const solver::CgOptions& options)
{
    fillPressureRhs(grid, problem, b);
    if (!grid.backend().isDryRun()) {
        x.fillHost(0.0);
        x.updateDev();
    }
    std::function<set::Container(FieldT, FieldT)> apply = [&grid, &problem,
                                                           act](FieldT in, FieldT out) {
        return makeElasticApply(grid, problem, act, in, out);
    };
    return solver::cgSolve<Grid, FieldT, double>(grid, apply, x, b, options);
}

}  // namespace neon::fem
