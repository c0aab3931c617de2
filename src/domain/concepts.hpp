#pragma once
// The Domain-level grid/field contract (paper §IV-C), stated as C++20
// concepts instead of convention. Everything `patterns/`, `solver/` and the
// Skeleton template over a "Grid" or a "Field" is spelled out here, and the
// Set layer enforces it: `Container::factory` static_asserts GridConcept,
// `Loader::load` static_asserts Loadable, and `GridOps::newField`
// static_asserts FieldConcept on the freshly built field type. A new grid
// that compiles against these checks plugs into Skeleton, patterns and
// solvers without touching them (see docs/domain.md: "how to add a grid";
// bGrid is the worked example).
//
// This header sits logically in the Domain layer but depends only on core/
// and set/access.hpp, so the Set layer may include it without a cycle.

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>

#include "core/index3d.hpp"
#include "core/stencil.hpp"
#include "core/types.hpp"
#include "domain/ngh_cell.hpp"
#include "set/access.hpp"

namespace neon::domain {

/// Anything `Loader::load` accepts: fields, global scalars, future
/// multi-GPU data. `getPartition(dev, view)` must be *view-agnostic*: the
/// span decides which cells a launch visits, the partition merely addresses
/// them, so the same partition object must be returned for every DataView
/// (docs/domain.md §DataView semantics).
template <typename D>
concept Loadable = requires(const D d, int dev, DataView view, Compute compute) {
    { d.uid() } -> std::convertible_to<uint64_t>;
    { d.name() } -> std::convertible_to<std::string>;
    { d.bytesPerItem(compute) } -> std::convertible_to<double>;
    { d.haloOps() } -> std::convertible_to<std::shared_ptr<const set::HaloOps>>;
    { d.getPartition(dev, view) };
};

/// The iteration space of one (device, DataView) pair. `forEach` must visit
/// cells in a deterministic order (the engine-equivalence guarantees build
/// on it) and `count()` must equal the number of visits. The chunk API
/// (domain::Span) partitions the same order into `chunkCount()` fixed
/// pieces — a pure function of the span, never of the thread count — so
/// `forEachChunk(c, n)` for c in [0, n) is exactly forEach.
template <typename S>
concept SpanConcept = requires(const S s, int32_t chunk, int32_t nChunks) {
    { s.count() } -> std::convertible_to<size_t>;
    { s.chunkCount() } -> std::convertible_to<int32_t>;
    s.forEach([](const auto& /*cell*/) {});
    s.forEachChunk(chunk, nChunks, [](const auto& /*cell*/) {});
};

/// The grid contract the Skeleton, patterns and solvers build on.
/// Beyond this signature set, a conforming grid guarantees:
///  - span(dev, STANDARD) is the disjoint union of INTERNAL and BOUNDARY;
///  - cells whose stencil (the union registered at construction) reads
///    another device's data appear only in BOUNDARY;
///  - `newField<T>(name, card, outside, layout)` (templated, hence not
///    expressible in the requires-clause) returns a FieldConcept type, and
///    `newContainer(name, fn)` wraps a loading lambda into a Container;
///  - after a field's HaloOps ran on every device, neighbour reads crossing
///    a partition boundary observe the owning partition's values.
/// The conformance battery in tests/domain/ checks the behavioural half for
/// every registered grid.
template <typename G>
concept GridConcept = requires(const G g, int dev, DataView view, const index_3d p) {
    typename G::Cell;
    typename G::Span;
    requires SpanConcept<typename G::Span>;
    { g.valid() } -> std::convertible_to<bool>;
    { g.devCount() } -> std::convertible_to<int>;
    { g.dim() } -> std::convertible_to<index_3d>;
    { g.stencil() } -> std::convertible_to<Stencil>;
    { g.haloRadius() } -> std::convertible_to<int>;
    { g.backend() };
    { g.span(dev, view) } -> std::convertible_to<typename G::Span>;
    /// STANDARD span backed by host-side structure pointers (identical cell
    /// order to span(dev, STANDARD)); FieldBase::forEachActiveHost walks it.
    { g.hostSpan(dev) } -> std::convertible_to<typename G::Span>;
    { g.isActive(p) } -> std::convertible_to<bool>;
};

/// The field contract: a Loadable with host-mirror access bound to a grid.
/// `forEachActiveHost` visits every (active cell, component) of the host
/// mirror; `hVal`/`hRef` address it by global coordinate (active cells
/// only on sparse grids). Dense grids additionally offer `forEachHost`.
template <typename F>
concept FieldConcept =
    Loadable<F> &&
    requires(const F f, const index_3d g, int c, typename F::Type v) {
        typename F::Type;
        typename F::Partition;
        { f.grid() };
        { f.cardinality() } -> std::convertible_to<int>;
        { f.layout() } -> std::convertible_to<MemLayout>;
        { f.outsideValue() } -> std::convertible_to<typename F::Type>;
        { f.allocatedBytes() } -> std::convertible_to<size_t>;
        { f.hVal(g, c) } -> std::convertible_to<typename F::Type>;
        f.fillHost(v);
        f.updateDev();
        f.updateHost();
        f.forEachActiveHost([](const index_3d&, int, typename F::Type&) {});
    };

/// The neighbour-handle surface of a partition over cells `Cell`
/// (docs/domain.md, "Neighbour handles"): `nghCell` resolves a neighbour
/// once; the read accessor takes the handle and returns the value `T` by
/// copy, so there is no way to write through a handle. Checked on every
/// shipped partition and on the sanitizer's View over it.
template <typename P, typename Cell, typename T>
concept NghCellReadable = requires(const P p, const Cell cell, const index_3d off, int32_t c,
                                   const NghCell<Cell> ngh) {
    { p.nghCell(cell, off) } -> std::same_as<NghCell<Cell>>;
    { p(ngh, c) } -> std::same_as<T>;
};

}  // namespace neon::domain
