#pragma once
// DField<T>: scalar or vector metadata over a DGrid (paper §IV-C2).
// Storage, mirrors and halo registration live in domain::FieldBase; this
// header adds only the dense addressing (DPartition) and plane-based host
// access. Boundary planes are contiguous per component, so one haloUpdate
// issues 2 transfers per device for AoS/scalar fields and 2*cardinality
// transfers for SoA fields — exactly the paper's accounting.

#include <cassert>
#include <string>

#include "dgrid/dgrid.hpp"
#include "domain/field_base.hpp"
#include "domain/ngh_cell.hpp"

namespace neon::dgrid {

/// Partition local view captured by compute lambdas (valid on one device).
/// Every access is a multiply-add on the cell's flat offset (DCell::idx):
/// component c at `idx*cellMul + c*compStride`, a neighbour at
/// `idx + off.x + off.y*dimX + off.z*planeSize` (upstream Neon's dPartition
/// pitch deltas). No accessor branches on the layout.
template <typename T>
struct DPartition
{
    using NghCell = domain::NghCell<DCell>;

    T*                    mem = nullptr;
    int32_t               dimX = 0;
    int32_t               dimY = 0;
    int32_t               haloR = 0;
    int32_t               card = 1;
    int32_t               zOrigin = 0;
    int32_t               globalZ = 0;
    int64_t               planeSize = 0;  ///< dimX*dimY: the z pitch
    domain::LayoutStrides strides;
    T                     outside = T{};

    /// The cell at local (x, y, z), z in [-haloR, zCount + haloR).
    [[nodiscard]] DCell cellAt(int32_t x, int32_t y, int32_t z) const
    {
        return DCell(x, y, z, (static_cast<int64_t>(z) + haloR) * planeSize +
                                  static_cast<int64_t>(y) * dimX + x);
    }

    [[nodiscard]] T& operator()(const DCell& cell, int32_t c = 0)
    {
        return mem[strides(cell.idx, c)];
    }

    [[nodiscard]] const T& operator()(const DCell& cell, int32_t c = 0) const
    {
        return mem[strides(cell.idx, c)];
    }

    struct NghData
    {
        T    value{};
        bool isValid = false;
    };

    /// Resolve a neighbour once (docs/domain.md, "Neighbour handles"): the
    /// bounds tests plus the pitch delta. Cells outside the global domain
    /// give an invalid handle holding the centre cell. Neighbours in
    /// another partition resolve into the halo planes.
    [[nodiscard, gnu::always_inline]] NghCell nghCell(const DCell& cell,
                                                      const index_3d& offset) const
    {
        const int32_t nx = cell.x + offset.x;
        const int32_t ny = cell.y + offset.y;
        if (nx < 0 || nx >= dimX || ny < 0 || ny >= dimY) [[unlikely]] {
            return {cell, offset, false};
        }
        const int32_t gz = zOrigin + cell.z + offset.z;
        if (gz < 0 || gz >= globalZ) [[unlikely]] {
            return {cell, offset, false};
        }
        return {DCell(nx, ny, cell.z + offset.z, nghIdx(cell, offset)), offset, true};
    }

    /// Read through a handle resolved on any field of this grid and device.
    [[nodiscard]] T operator()(const NghCell& ngh, int32_t c = 0) const
    {
        return mem[strides(ngh.cell.idx, c)];
    }

    /// Read a neighbour's value; cells outside the global domain return the
    /// field's outsideValue (isValid == false).
    [[nodiscard]] NghData nghData(const DCell& cell, const index_3d& offset, int32_t c = 0) const
    {
        const NghCell ngh = nghCell(cell, offset);
        return {ngh.isValid ? (*this)(ngh, c) : outside, ngh.isValid};
    }

    [[nodiscard]] T nghVal(const DCell& cell, const index_3d& offset, int32_t c = 0) const
    {
        return nghData(cell, offset, c).value;
    }

    /// Unchecked neighbour read: the caller guarantees the neighbour is
    /// inside the global domain (e.g. it already inspected a flag field
    /// whose outsideValue marks walls). Skips the bounds tests of
    /// nghData() — the overhead the paper attributes Neon's remaining
    /// gap to hand-written kernels to (§VI-B).
    [[nodiscard]] T nghValUnchecked(const DCell& cell, const index_3d& offset,
                                    int32_t c = 0) const
    {
        return mem[strides(nghIdx(cell, offset), c)];
    }

    [[nodiscard]] index_3d globalIdx(const DCell& cell) const
    {
        return {cell.x, cell.y, zOrigin + cell.z};
    }

    /// Flat buffer index of an owned cell — what FieldBase::forEachActiveHost
    /// adds to rawHost() (domain contract, shared by every grid's partition).
    [[nodiscard]] size_t flatIdx(const DCell& cell, int32_t c) const
    {
        return static_cast<size_t>(strides(cell.idx, c));
    }

    [[nodiscard]] index_3d globalDim() const { return {dimX, dimY, globalZ}; }

    [[nodiscard]] int32_t cardinality() const { return card; }

    // Access-sanitizer contracts (set/sanitize.hpp, docs/analysis.md): the
    // span slot a cell iterates under (DSpan slots are z-planes) and how
    // far a neighbour offset reaches toward another partition (only z
    // crosses device boundaries on DGrid; x/y stay inside the slab).
    [[nodiscard]] static int32_t spanSlotOf(const DCell& cell) { return cell.z; }
    [[nodiscard]] static int32_t stencilExtent(const index_3d& offset)
    {
        return offset.z < 0 ? -offset.z : offset.z;
    }

   private:
    [[nodiscard]] int64_t nghIdx(const DCell& cell, const index_3d& offset) const
    {
        return cell.idx + offset.x + static_cast<int64_t>(offset.y) * dimX +
               offset.z * planeSize;
    }
};

template <typename T>
class DField : public domain::FieldBase<DGrid, T>
{
    using Base = domain::FieldBase<DGrid, T>;

   public:
    using Partition = DPartition<T>;
    using Base::cardinality;
    using Base::grid;
    using Base::layout;
    using Base::outsideValue;

    DField() = default;

    DField(const DGrid& grid, std::string name, int cardinality, T outsideValue, MemLayout layout)
    {
        // Each partition stores its owned planes plus the 2r halo planes.
        std::vector<size_t> cells;
        const int           r = grid.haloRadius();
        for (int d = 0; d < grid.devCount(); ++d) {
            const auto& p = grid.part(d);
            cells.push_back(static_cast<size_t>(grid.dim().x) * static_cast<size_t>(grid.dim().y) *
                            static_cast<size_t>(p.zCount + 2 * r));
        }
        this->initCore(grid, std::move(name), cardinality, outsideValue, layout, cells);
    }

    /// Contract (domain::Loadable): the partition is *view-agnostic* — the
    /// span passed at launch decides which cells are visited; the partition
    /// only addresses memory. Every DataView must yield the same partition.
    [[nodiscard]] Partition getPartition(int dev, [[maybe_unused]] DataView view =
                                                      DataView::STANDARD) const
    {
        assert(dev >= 0 && dev < grid().devCount());
        const auto& p = grid().part(dev);
        Partition   part;
        part.mem = this->mCore->data.rawDev(dev);
        part.dimX = grid().dim().x;
        part.dimY = grid().dim().y;
        part.haloR = grid().haloRadius();
        part.card = cardinality();
        part.zOrigin = p.zOrigin;
        part.globalZ = grid().dim().z;
        part.planeSize = static_cast<int64_t>(part.dimX) * part.dimY;
        part.strides = this->strides(dev);
        part.outside = outsideValue();
        return part;
    }

    // --- host-side access ---------------------------------------------------
    /// Reference into the host mirror at a global coordinate (constant-time
    /// z -> device lookup through the grid's LUT).
    [[nodiscard]] T& hRef(const index_3d& g, int32_t c = 0) const
    {
        const int  dev = grid().devOfZ(g.z);
        const auto part = hostPartition(dev);
        return this->rawHost(dev)[part.flatIdx(part.cellAt(g.x, g.y, g.z - part.zOrigin), c)];
    }

    [[nodiscard]] T hVal(const index_3d& g, int32_t c = 0) const { return hRef(g, c); }

    /// Dense-grid alias for the shared host visit (global z-major order,
    /// lowered onto the grid's hostSpan by domain::FieldBase).
    template <typename Fn>  // fn(const index_3d&, int card, T&)
    void forEachHost(Fn&& fn) const
    {
        Base::forEachActiveHost(std::forward<Fn>(fn));
    }

    /// Partition descriptor pointing at the host mirror (indexing only;
    /// FieldBase::forEachActiveHost pairs it with rawHost()).
    [[nodiscard]] Partition hostPartition(int dev) const
    {
        Partition part = getPartition(dev);
        part.mem = nullptr;  // callers index via flatIdx against rawHost
        return part;
    }
};

}  // namespace neon::dgrid
