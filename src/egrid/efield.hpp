#pragma once
// EField<T>: metadata over an EGrid. Storage, mirrors and halo registration
// live in domain::FieldBase; this header adds only the sparse addressing.
// Neighbour access goes through the grid's connectivity table; the extra
// index bytes are charged to the cost model, which is exactly the
// dense/sparse trade-off the paper's Fig. 9 explores.

#include <cassert>
#include <string>

#include "domain/field_base.hpp"
#include "domain/ngh_cell.hpp"
#include "egrid/egrid.hpp"

namespace neon::egrid {

template <typename T>
struct EPartition
{
    using NghCell = domain::NghCell<ECell>;

    T*                    mem = nullptr;
    int32_t               nOwned = 0;
    int32_t               card = 1;
    domain::LayoutStrides strides;  ///< over owned + ghost cells
    T                     outside = T{};
    const int32_t*        conn = nullptr;  ///< [point][ownedCell]
    int32_t               nPoints = 0;
    const int16_t*        lut = nullptr;  ///< offset -> point slot
    int32_t               lutR = 1;
    const index_3d*       coords = nullptr;

    [[nodiscard]] T& operator()(const ECell& cell, int32_t c = 0)
    {
        return mem[strides(cell.idx, c)];
    }
    [[nodiscard]] const T& operator()(const ECell& cell, int32_t c = 0) const
    {
        return mem[strides(cell.idx, c)];
    }

    struct NghData
    {
        T    value{};
        bool isValid = false;
    };

    /// Neighbour by stencil-point slot (fast path: one table lookup).
    [[nodiscard]] NghData nghDataSlot(const ECell& cell, int32_t slot, int32_t c = 0) const
    {
        const int32_t j = connAt(cell, slot);
        if (j < 0) {
            return {outside, false};
        }
        return {mem[strides(j, c)], true};
    }

    /// Resolve a neighbour once (docs/domain.md, "Neighbour handles"): the
    /// offset goes through the grid's LUT to a stencil-point slot, the slot
    /// through the connectivity row to the neighbour's local index. Offsets
    /// outside the stencil and inactive neighbours give an invalid handle
    /// holding the centre cell.
    [[nodiscard, gnu::always_inline]] NghCell nghCell(const ECell& cell,
                                                      const index_3d& offset) const
    {
        if (offset.x < -lutR || offset.x > lutR || offset.y < -lutR || offset.y > lutR ||
            offset.z < -lutR || offset.z > lutR) [[unlikely]] {
            return {cell, offset, false};
        }
        const size_t w = 2 * static_cast<size_t>(lutR) + 1;
        const size_t li =
            (static_cast<size_t>(offset.z + lutR) * w + static_cast<size_t>(offset.y + lutR)) * w +
            static_cast<size_t>(offset.x + lutR);
        const int16_t slot = lut[li];
        if (slot < 0) [[unlikely]] {
            return {cell, offset, false};
        }
        const int32_t j = connAt(cell, slot);
        if (j < 0) [[unlikely]] {
            return {cell, offset, false};
        }
        return {ECell{j}, offset, true};
    }

    /// Read through a handle resolved on any field of this grid and device.
    [[nodiscard]] T operator()(const NghCell& ngh, int32_t c = 0) const
    {
        return mem[strides(ngh.cell.idx, c)];
    }

    /// Neighbour by 3-D offset, so the same user code runs on DGrid and
    /// EGrid (paper §IV: "the same user code to operate on a variety of
    /// data structures").
    [[nodiscard]] NghData nghData(const ECell& cell, const index_3d& offset, int32_t c = 0) const
    {
        const NghCell ngh = nghCell(cell, offset);
        return {ngh.isValid ? (*this)(ngh, c) : outside, ngh.isValid};
    }

    [[nodiscard]] T nghVal(const ECell& cell, const index_3d& offset, int32_t c = 0) const
    {
        return nghData(cell, offset, c).value;
    }

    /// Interface parity with DPartition::nghValUnchecked. On the sparse
    /// grid the connectivity lookup *is* the validity test, so nothing can
    /// be skipped; still resolves through the table.
    [[nodiscard]] T nghValUnchecked(const ECell& cell, const index_3d& offset,
                                    int32_t c = 0) const
    {
        return nghData(cell, offset, c).value;
    }

    [[nodiscard]] index_3d globalIdx(const ECell& cell) const { return coords[cell.idx]; }

    /// Flat buffer index of an owned cell — what FieldBase::forEachActiveHost
    /// adds to rawHost() (domain contract, shared by every grid's partition).
    [[nodiscard]] size_t flatIdx(const ECell& cell, int32_t c) const
    {
        return static_cast<size_t>(strides(cell.idx, c));
    }

    [[nodiscard]] int32_t cardinality() const { return card; }

    // Access-sanitizer contracts (set/sanitize.hpp): ESpan slots are single
    // cells; neighbour offsets go through the LUT, which is bounded by the
    // stencil radius on every axis.
    [[nodiscard]] static int32_t spanSlotOf(const ECell& cell) { return cell.idx; }
    [[nodiscard]] static int32_t stencilExtent(const index_3d& offset)
    {
        const int32_t ax = offset.x < 0 ? -offset.x : offset.x;
        const int32_t ay = offset.y < 0 ? -offset.y : offset.y;
        const int32_t az = offset.z < 0 ? -offset.z : offset.z;
        return ax > ay ? (ax > az ? ax : az) : (ay > az ? ay : az);
    }

   private:
    /// Local index of the neighbour at a stencil-point slot (-1: inactive).
    [[nodiscard]] int32_t connAt(const ECell& cell, int32_t slot) const
    {
        return conn[static_cast<size_t>(slot) * static_cast<size_t>(nOwned) +
                    static_cast<size_t>(cell.idx)];
    }
};

template <typename T>
class EField : public domain::FieldBase<EGrid, T>
{
    using Base = domain::FieldBase<EGrid, T>;

   public:
    using Partition = EPartition<T>;
    using Base::cardinality;
    using Base::grid;
    using Base::layout;
    using Base::outsideValue;

    EField() = default;

    EField(const EGrid& grid, std::string name, int cardinality, T outsideValue, MemLayout layout)
    {
        std::vector<size_t> cells;
        for (int d = 0; d < grid.devCount(); ++d) {
            cells.push_back(static_cast<size_t>(grid.part(d).nLocal()));
        }
        this->initCore(grid, std::move(name), cardinality, outsideValue, layout, cells);
    }

    /// Shadowed (not virtual): connectivity-table reads are the sparse
    /// representation's price, charged per stencil access.
    [[nodiscard]] double bytesPerItem(Compute compute = Compute::MAP) const
    {
        double bytes = Base::bytesPerItem(compute);
        if (compute == Compute::STENCIL) {
            bytes += 4.0 * grid().stencilPointCount();
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
        const auto& p = g.part(dev);
        Partition   part;
        part.mem = this->mCore->data.rawDev(dev);
        part.nOwned = p.nOwned;
        part.card = cardinality();
        part.strides = this->strides(dev);
        part.outside = outsideValue();
        part.conn = g.connectivity().rawDev(dev);
        part.nPoints = g.stencilPointCount();
        part.lut = g.offsetLut().rawDev(dev);
        part.lutR = g.lutRadius();
        part.coords = g.coords().rawDev(dev);
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
        const EGrid& g = grid();
        Partition    part = getPartition(dev);
        part.mem = nullptr;  // callers index via flatIdx against rawHost
        part.conn = g.connectivity().rawHost(dev);
        part.lut = g.offsetLut().rawHost(dev);
        part.coords = g.coords().rawHost(dev);
        return part;
    }
};

}  // namespace neon::egrid
