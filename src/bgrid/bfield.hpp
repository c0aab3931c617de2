#pragma once
// BField<T>: metadata over a BGrid. Storage, mirrors and halo registration
// live in domain::FieldBase; this header adds block-dense addressing.
// Within a block, voxels address directly (dense); across blocks the grid's
// 27-direction block-neighbour table resolves the jump and the activity
// mask is the validity test. Per stencil access the amortized structural
// cost is (27*4 + 8)/blockVolume bytes — between DField (0) and EField
// (4 per stencil point), which is the design point of a block-sparse grid.

#include <cassert>
#include <string>

#include "bgrid/bgrid.hpp"
#include "domain/field_base.hpp"
#include "domain/ngh_cell.hpp"

namespace neon::bgrid {

template <typename T>
struct BPartition
{
    using NghCell = domain::NghCell<BCell>;

    T*                    mem = nullptr;
    int32_t               card = 1;
    int32_t               blockDim = 2;
    int32_t               blockVol = 8;
    domain::LayoutStrides strides;  ///< over local blocks * blockVol cells
    T                     outside = T{};
    const uint64_t*       masks = nullptr;     ///< activity mask per local block
    const int32_t*        blockNgh = nullptr;  ///< [ownedBlock][27] -> local block
    const index_3d*       origins = nullptr;   ///< global origin cell per local block

    [[nodiscard]] int32_t voxelOf(int32_t vx, int32_t vy, int32_t vz) const
    {
        return (vz * blockDim + vy) * blockDim + vx;
    }

    [[nodiscard]] int64_t cellIdx(const BCell& cell) const
    {
        return static_cast<int64_t>(cell.block) * blockVol + voxelOf(cell.x, cell.y, cell.z);
    }

    [[nodiscard]] T& operator()(const BCell& cell, int32_t c = 0)
    {
        return mem[strides(cellIdx(cell), c)];
    }
    [[nodiscard]] const T& operator()(const BCell& cell, int32_t c = 0) const
    {
        return mem[strides(cellIdx(cell), c)];
    }

    struct NghData
    {
        T    value{};
        bool isValid = false;
    };

    /// Resolve a neighbour once (docs/domain.md, "Neighbour handles").
    /// Same-block neighbours test the activity mask directly; block-crossing
    /// ones resolve the target block through the 27-direction table, then
    /// test its mask. Inactive / outside-domain neighbours give an invalid
    /// handle holding the centre cell.
    [[nodiscard, gnu::always_inline]] NghCell nghCell(const BCell& cell,
                                                      const index_3d& offset) const
    {
        int32_t nx = cell.x + offset.x;
        int32_t ny = cell.y + offset.y;
        int32_t nz = cell.z + offset.z;
        // stencil radius <= blockDim: each axis crosses at most one block.
        const int32_t sx = nx < 0 ? -1 : (nx >= blockDim ? 1 : 0);
        const int32_t sy = ny < 0 ? -1 : (ny >= blockDim ? 1 : 0);
        const int32_t sz = nz < 0 ? -1 : (nz >= blockDim ? 1 : 0);
        nx -= sx * blockDim;
        ny -= sy * blockDim;
        nz -= sz * blockDim;
        int32_t block = cell.block;
        if (sx != 0 || sy != 0 || sz != 0) {
            const int32_t dir = ((sz + 1) * 3 + (sy + 1)) * 3 + (sx + 1);
            block = blockNgh[static_cast<size_t>(cell.block) * 27 + static_cast<size_t>(dir)];
            if (block < 0) [[unlikely]] {
                return {cell, offset, false};
            }
        }
        if (((masks[block] >> voxelOf(nx, ny, nz)) & 1) == 0) [[unlikely]] {
            return {cell, offset, false};
        }
        return {BCell{block, static_cast<int8_t>(nx), static_cast<int8_t>(ny),
                      static_cast<int8_t>(nz)},
                offset, true};
    }

    /// Read through a handle resolved on any field of this grid and device.
    [[nodiscard]] T operator()(const NghCell& ngh, int32_t c = 0) const
    {
        return mem[strides(cellIdx(ngh.cell), c)];
    }

    /// Neighbour read; inactive / outside-domain neighbours return the
    /// field's outsideValue (isValid == false).
    [[nodiscard]] NghData nghData(const BCell& cell, const index_3d& offset, int32_t c = 0) const
    {
        const NghCell ngh = nghCell(cell, offset);
        return {ngh.isValid ? (*this)(ngh, c) : outside, ngh.isValid};
    }

    [[nodiscard]] T nghVal(const BCell& cell, const index_3d& offset, int32_t c = 0) const
    {
        return nghData(cell, offset, c).value;
    }

    /// Interface parity with DPartition::nghValUnchecked. On the
    /// block-sparse grid the mask/table lookup *is* the validity test, so
    /// nothing can be skipped.
    [[nodiscard]] T nghValUnchecked(const BCell& cell, const index_3d& offset,
                                    int32_t c = 0) const
    {
        return nghData(cell, offset, c).value;
    }

    [[nodiscard]] index_3d globalIdx(const BCell& cell) const
    {
        const index_3d& o = origins[cell.block];
        return {o.x + cell.x, o.y + cell.y, o.z + cell.z};
    }

    /// Flat buffer index of an owned cell — what FieldBase::forEachActiveHost
    /// adds to rawHost() (domain contract, shared by every grid's partition).
    [[nodiscard]] size_t flatIdx(const BCell& cell, int32_t c) const
    {
        return static_cast<size_t>(strides(cellIdx(cell), c));
    }

    [[nodiscard]] int32_t cardinality() const { return card; }

    // Access-sanitizer contracts (set/sanitize.hpp): BSpan slots are block
    // ordinals; the 27-direction neighbour table bounds offsets to radius 1
    // on every axis.
    [[nodiscard]] static int32_t spanSlotOf(const BCell& cell) { return cell.block; }
    [[nodiscard]] static int32_t stencilExtent(const index_3d& offset)
    {
        const int32_t ax = offset.x < 0 ? -offset.x : offset.x;
        const int32_t ay = offset.y < 0 ? -offset.y : offset.y;
        const int32_t az = offset.z < 0 ? -offset.z : offset.z;
        return ax > ay ? (ax > az ? ax : az) : (ay > az ? ay : az);
    }
};

template <typename T>
class BField : public domain::FieldBase<BGrid, T>
{
    using Base = domain::FieldBase<BGrid, T>;

   public:
    using Partition = BPartition<T>;
    using Base::cardinality;
    using Base::grid;
    using Base::layout;
    using Base::outsideValue;

    BField() = default;

    BField(const BGrid& grid, std::string name, int cardinality, T outsideValue, MemLayout layout)
    {
        // Whole blocks are allocated (inactive voxels included): the price
        // of dense in-block addressing, bounded by the block sparsity.
        std::vector<size_t> cells;
        for (int d = 0; d < grid.devCount(); ++d) {
            cells.push_back(static_cast<size_t>(grid.part(d).nLocal()) *
                            static_cast<size_t>(grid.blockVolume()));
        }
        this->initCore(grid, std::move(name), cardinality, outsideValue, layout, cells);
    }

    /// Shadowed (not virtual): block-structure reads amortized over the
    /// block's cells — the block-sparse representation's price.
    [[nodiscard]] double bytesPerItem(Compute compute = Compute::MAP) const
    {
        double bytes = Base::bytesPerItem(compute);
        if (compute == Compute::STENCIL) {
            // 27-entry neighbour row (int32) + activity mask (uint64),
            // fetched once per block.
            bytes += (27.0 * 4.0 + 8.0) / grid().blockVolume();
        }
        return bytes;
    }

    /// Contract (domain::Loadable): the partition is *view-agnostic* — the
    /// span passed at launch decides which cells are visited; the partition
    /// only addresses memory. Every DataView must yield the same partition.
    [[nodiscard]] Partition getPartition(int dev, [[maybe_unused]] DataView view =
                                                      DataView::STANDARD) const
    {
        assert(dev >= 0 && dev < grid().devCount());
        const auto& g = grid();
        Partition   part;
        part.mem = this->mCore->data.rawDev(dev);
        part.card = cardinality();
        part.blockDim = g.blockSize();
        part.blockVol = g.blockVolume();
        part.strides = this->strides(dev);
        part.outside = outsideValue();
        part.masks = g.masks().rawDev(dev);
        part.blockNgh = g.blockNgh().rawDev(dev);
        part.origins = g.origins().rawDev(dev);
        return part;
    }

    // --- host-side access ---------------------------------------------------
    [[nodiscard]] T& hRef(const index_3d& g, int32_t c = 0) const
    {
        auto [dev, idx] = grid().localOf(g);
        NEON_CHECK(dev >= 0, "hRef on an inactive cell");
        return this->rawHost(dev)[this->strides(dev)(idx, c)];
    }

    [[nodiscard]] T hVal(const index_3d& g, int32_t c = 0) const { return hRef(g, c); }

    /// Partition descriptor pointing at the host mirror: structure tables
    /// retargeted to their host copies so globalIdx/flatIdx work host-side
    /// (FieldBase::forEachActiveHost pairs it with rawHost()).
    [[nodiscard]] Partition hostPartition(int dev) const
    {
        const BGrid& g = grid();
        Partition    part = getPartition(dev);
        part.mem = nullptr;  // callers index via flatIdx against rawHost
        part.masks = g.masks().rawHost(dev);
        part.blockNgh = g.blockNgh().rawHost(dev);
        part.origins = g.origins().rawHost(dev);
        return part;
    }
};

}  // namespace neon::bgrid
