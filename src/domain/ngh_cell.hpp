#pragma once
// NghCell<Cell>: a resolved neighbour handle (docs/domain.md, "Neighbour
// handles"). A partition's nghCell(cell, offset) runs the grid's neighbour
// resolution once — dGrid's bounds tests plus the pitch delta, eGrid's
// LUT plus connectivity row, bGrid's block table — and every field of the
// same grid on the same device then reads the neighbour through the
// handle with `part(handle, c)`: cell indices do not depend on the field's
// layout or cardinality (LayoutStrides maps them to memory).
//
// Handles are read-only: partitions offer no write accessor for them. An
// invalid handle (neighbour outside the domain or inactive) still holds
// the centre cell, so a read through it stays in bounds without a branch;
// the value read is meaningless and the access sanitizer reports it.
//
// Partitions mark nghCell always_inline: a kernel that resolves a whole
// 27-point neighbourhood has 26 call sites, past GCC's inline-growth
// budget, and an out-of-line call (returning the handle through memory)
// costs more than the resolution it performs. The invalid paths are
// [[unlikely]], so the valid read stays the fall-through path where
// nghData is built on nghCell (the dGrid 7-point Laplacian ran 24% slower
// with the opposite layout).

#include "core/index3d.hpp"

namespace neon::domain {

template <typename CellT>
struct NghCell
{
    CellT    cell;     ///< the neighbour, or the centre cell when !isValid
    index_3d offset;   ///< the offset it was resolved from
    bool     isValid;  ///< neighbour exists (inside the domain and active)
};

template <typename T>
inline constexpr bool kIsNghCell = false;
template <typename CellT>
inline constexpr bool kIsNghCell<NghCell<CellT>> = true;

}  // namespace neon::domain
