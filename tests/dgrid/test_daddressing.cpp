// DPartition addressing equivalence: the flat-offset cells and pitch-delta
// neighbours address exactly the buffer slot of the plain 3-D formula, on
// every DataView span, for both layouts, several cardinalities, device
// counts and halo radii.

#include <gtest/gtest.h>

#include <type_traits>

#include "dgrid/dfield.hpp"

namespace neon::dgrid {

using set::Backend;

// Only the span decoder and DPartition::cellAt build cells: a cell without
// its flat offset (or with a hand-computed one) does not compile.
static_assert(!std::is_constructible_v<DCell, int32_t, int32_t, int32_t>);
static_assert(!std::is_constructible_v<DCell, int32_t, int32_t, int32_t, int64_t>);

namespace {

struct AddrCase
{
    int       nDev;
    int       card;
    MemLayout layout;
    int       zRadius;
};

/// Reference buffer index of (x, y, local z, c): z counts from the first
/// owned plane, the allocation holds r halo planes on each side.
size_t refIdx(const AddrCase& k, index_3d dim, int32_t zCount, int32_t x, int32_t y, int32_t z,
              int32_t c)
{
    const auto   zAlloc = static_cast<size_t>(zCount + 2 * k.zRadius);
    const auto   zb = static_cast<size_t>(z + k.zRadius);
    const auto   dx = static_cast<size_t>(dim.x);
    const auto   dy = static_cast<size_t>(dim.y);
    const size_t cell = (zb * dy + static_cast<size_t>(y)) * dx + static_cast<size_t>(x);
    if (k.layout == MemLayout::structOfArrays) {
        return static_cast<size_t>(c) * zAlloc * dy * dx + cell;
    }
    return cell * static_cast<size_t>(k.card) + static_cast<size_t>(c);
}

Stencil zRadiusStencil(int r)
{
    std::vector<index_3d> offsets{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}};
    for (int z = 1; z <= r; ++z) {
        offsets.push_back({0, 0, z});
        offsets.push_back({0, 0, -z});
    }
    return Stencil(offsets, "zr" + std::to_string(r));
}

}  // namespace

class DAddressing : public ::testing::TestWithParam<AddrCase>
{
};

TEST_P(DAddressing, CellsAndNeighboursMatchReferenceFormula)
{
    const AddrCase k = GetParam();
    const index_3d dim{5, 4, 15};
    DGrid          grid(Backend::cpu(k.nDev), dim, zRadiusStencil(k.zRadius));
    ASSERT_EQ(grid.haloRadius(), k.zRadius);
    const double outside = -1.0;
    auto         f = grid.newField<double>("f", k.card, outside, k.layout);
    const int    r = k.zRadius;

    for (int d = 0; d < k.nDev; ++d) {
        const auto&   p = grid.part(d);
        auto          part = f.getPartition(d);
        const auto    count = static_cast<size_t>(k.card) * static_cast<size_t>(dim.x) *
                             static_cast<size_t>(dim.y) * static_cast<size_t>(p.zCount + 2 * r);
        // Every slot of the buffer (halo planes included) holds its own
        // index, so a value identifies the address it came from.
        for (size_t i = 0; i < count; ++i) {
            part.mem[i] = static_cast<double>(i);
        }
        for (const DataView view : {DataView::STANDARD, DataView::INTERNAL, DataView::BOUNDARY}) {
            size_t visited = 0;
            grid.span(d, view).forEach([&](const DCell& cell) {
                ++visited;
                EXPECT_EQ(part.cellAt(cell.x, cell.y, cell.z).idx, cell.idx);
                for (int32_t c = 0; c < k.card; ++c) {
                    const size_t own = refIdx(k, dim, p.zCount, cell.x, cell.y, cell.z, c);
                    ASSERT_EQ(&part(cell, c), part.mem + own);
                    ASSERT_EQ(part.flatIdx(cell, c), own);
                    for (int32_t oz = -r; oz <= r; ++oz) {
                        for (int32_t oy = -r; oy <= r; ++oy) {
                            for (int32_t ox = -r; ox <= r; ++ox) {
                                const int32_t nx = cell.x + ox;
                                const int32_t ny = cell.y + oy;
                                const int32_t nz = cell.z + oz;
                                const int32_t gz = p.zOrigin + nz;
                                const bool inside = nx >= 0 && nx < dim.x && ny >= 0 &&
                                                    ny < dim.y && gz >= 0 && gz < dim.z;
                                const auto ngh = part.nghData(cell, {ox, oy, oz}, c);
                                ASSERT_EQ(ngh.isValid, inside);
                                const double expected =
                                    inside ? static_cast<double>(
                                                 refIdx(k, dim, p.zCount, nx, ny, nz, c))
                                           : outside;
                                ASSERT_EQ(ngh.value, expected)
                                    << "dev " << d << " cell (" << cell.x << "," << cell.y
                                    << "," << cell.z << ") off (" << ox << "," << oy << ","
                                    << oz << ") c " << c;
                                if (inside) {
                                    ASSERT_EQ(part.nghValUnchecked(cell, {ox, oy, oz}, c),
                                              expected);
                                }
                            }
                        }
                    }
                }
            });
            EXPECT_EQ(visited, grid.span(d, view).count());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DAddressing,
    ::testing::Values(AddrCase{1, 1, MemLayout::structOfArrays, 1},
                      AddrCase{1, 3, MemLayout::structOfArrays, 2},
                      AddrCase{1, 3, MemLayout::arrayOfStructs, 1},
                      AddrCase{3, 1, MemLayout::arrayOfStructs, 2},
                      AddrCase{3, 3, MemLayout::structOfArrays, 1},
                      AddrCase{3, 3, MemLayout::structOfArrays, 2},
                      AddrCase{3, 3, MemLayout::arrayOfStructs, 1},
                      AddrCase{3, 3, MemLayout::arrayOfStructs, 2}),
    [](const auto& info) {
        return "dev" + std::to_string(info.param.nDev) + "_card" +
               std::to_string(info.param.card) + "_" +
               (info.param.layout == MemLayout::structOfArrays ? "SoA" : "AoS") + "_zr" +
               std::to_string(info.param.zRadius);
    });

}  // namespace neon::dgrid
