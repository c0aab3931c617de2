#pragma once
// GridBase / GridOps: the shared core every grid builds on (paper §IV-C:
// "the Domain level hides data partitioning behind interchangeable grids").
//
//   - GridBase owns the state all grids share — name, backend, bounding
//     dim, stencil union, halo radius and the precomputed HaloSegment
//     lists — behind one shared_ptr. A concrete grid derives its Impl from
//     GridBase::BaseImpl (single allocation, accessed via impl<Derived>())
//     and adds only its partition-specific tables.
//   - GridBase also owns the one repartition / rebind routine
//     (repartitionWith / rebindWith): plan checks, migration geometry and
//     field re-homing are shared, and a grid supplies only how to rebuild
//     its tables for given unit cuts and what its per-device buffers are.
//   - GridOps<Derived> is a CRTP mixin providing the factory surface
//     (newField / newContainer) so every grid exposes the identical API
//     and every freshly built field type is checked against FieldConcept
//     at compile time.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/index3d.hpp"
#include "core/stencil.hpp"
#include "core/types.hpp"
#include "domain/concepts.hpp"
#include "domain/halo.hpp"
#include "domain/partition_plan.hpp"
#include "set/backend.hpp"
#include "set/container.hpp"

namespace neon::domain {

class GridBase
{
   public:
    [[nodiscard]] bool valid() const { return mBase != nullptr; }

    [[nodiscard]] int                devCount() const { return mBase->backend.devCount(); }
    [[nodiscard]] const index_3d&    dim() const { return mBase->dim; }
    [[nodiscard]] const Stencil&     stencil() const { return mBase->stencil; }
    [[nodiscard]] int                haloRadius() const { return mBase->haloRadius; }
    [[nodiscard]] set::Backend&      backend() const { return mBase->backend; }
    [[nodiscard]] const std::string& gridName() const { return mBase->name; }

    /// Per-device halo segments (cell units); fields hand these to
    /// SegmentHalo verbatim.
    [[nodiscard]] const std::vector<std::vector<HaloSegment>>& haloSegments() const
    {
        return mBase->haloSegments;
    }

    /// Register a field's migration hook (called by FieldBase::initCore).
    /// Weak: fields own the grid, never the reverse.
    void registerRegridClient(const std::weak_ptr<RegridClient>& client) const
    {
        std::lock_guard<std::mutex> lock(mBase->fieldsMutex);
        mBase->fields.push_back(client);
    }

    /// Hand a repartition's RegridInfo to every live registered field
    /// (expired registrations are pruned). Called by Grid::repartition
    /// after its tables are re-sliced, so fields see the new geometry.
    void applyRegridToFields(const RegridInfo& info) const
    {
        std::vector<std::shared_ptr<RegridClient>> live;
        {
            std::lock_guard<std::mutex> lock(mBase->fieldsMutex);
            auto& fields = mBase->fields;
            for (size_t i = 0; i < fields.size();) {
                if (auto client = fields[i].lock()) {
                    live.push_back(std::move(client));
                    ++i;
                } else {
                    fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(i));
                }
            }
        }
        for (const auto& client : live) {
            client->applyRegrid(info);
        }
    }

   protected:
    /// One device's partition in cell units, as repartition sees it.
    struct PartCells
    {
        int64_t owned = 0;       ///< owned cells, in the grid's global cell ordering
        size_t  local = 0;       ///< buffer size: owned + halo/ghost cells
        int64_t ownedStart = 0;  ///< offset of the owned window in the buffer
    };

    /// Body of Grid::repartition(plan). `Grid` provides two hooks:
    ///   void rebuildForCuts(const std::vector<int32_t>& unitsPerDev);
    ///   std::vector<PartCells> partCells() const;
    /// plus the public partitionUnits() / minUnitsPerDev(). The plan is
    /// checked before anything changes; then the tables are re-sliced and
    /// every registered field migrates its owned cells.
    template <typename Grid>
    void repartitionWith(Grid& grid, const PartitionPlan& plan)
    {
        const std::string where = gridName() + "::repartition: ";
        NEON_CHECK(plan.devCount() == devCount(),
                   where + "plan device count != grid device count");
        NEON_CHECK(plan.total() == grid.partitionUnits(),
                   where + "plan must cover every partition unit");
        const int64_t minUnits = grid.minUnitsPerDev();
        for (const int64_t u : plan.unitsPerDev) {
            NEON_CHECK(u >= minUnits, where + "every device needs at least " +
                                          std::to_string(minUnits) + " partition units");
        }
        const std::vector<PartCells> before = grid.partCells();
        std::vector<int32_t>         cuts;
        for (const int64_t u : plan.unitsPerDev) {
            cuts.push_back(static_cast<int32_t>(u));
        }
        grid.rebuildForCuts(cuts);
        regridFields(grid.partCells(), &before);
    }

    /// Body of Grid::rebindBackend(survivor): move onto `survivor`, rebuild
    /// for `cuts` (the grid's own default split for the survivor's device
    /// count) and re-allocate every field without migrating data.
    template <typename Grid>
    void rebindWith(Grid& grid, set::Backend survivor, const std::vector<int32_t>& cuts)
    {
        mBase->backend = std::move(survivor);
        grid.rebuildForCuts(cuts);
        regridFields(grid.partCells(), nullptr);
    }

    /// Shared slice of a grid's Impl; concrete grids derive from it.
    struct BaseImpl
    {
        std::string  name;
        set::Backend backend;
        index_3d     dim;
        Stencil      stencil;
        int          haloRadius = 1;
        /// haloSegments[dev]: segments device `dev` sends (built by the
        /// concrete grid's constructor).
        std::vector<std::vector<HaloSegment>> haloSegments;

        /// Migration hooks of the fields built on this grid (weak — see
        /// registerRegridClient) and their guard.
        std::mutex                               fieldsMutex;
        std::vector<std::weak_ptr<RegridClient>> fields;

        virtual ~BaseImpl() = default;
    };

    GridBase() = default;
    explicit GridBase(std::shared_ptr<BaseImpl> base) : mBase(std::move(base)) {}

    /// Typed access to the derived Impl (the grid knows its concrete type).
    template <typename ImplT>
    [[nodiscard]] ImplT& impl() const
    {
        return static_cast<ImplT&>(*mBase);
    }

    std::shared_ptr<BaseImpl> mBase;

   private:
    /// Hand the new geometry to every field and bump the geometry epoch.
    /// `before` is the old geometry to migrate from; null re-allocates
    /// without migration (recovery: the old buffers are gone).
    void regridFields(const std::vector<PartCells>& after,
                      const std::vector<PartCells>* before) const
    {
        RegridInfo           info;
        std::vector<int64_t> newOwned;
        for (const PartCells& p : after) {
            newOwned.push_back(p.owned);
            info.newCellCounts.push_back(p.local);
            info.newOwnedStart.push_back(p.ownedStart);
        }
        info.migrateData = before != nullptr;
        if (before != nullptr) {
            std::vector<int64_t> oldOwned;
            for (const PartCells& p : *before) {
                oldOwned.push_back(p.owned);
                info.oldOwnedStart.push_back(p.ownedStart);
            }
            info.migrate = migrationSegments(oldOwned, newOwned);
        } else {
            info.oldOwnedStart = info.newOwnedStart;
        }
        applyRegridToFields(info);
        backend().noteGeometryChange();
    }
};

/// CRTP factory surface. `Derived` must expose `template FieldType<T>`
/// constructible as FieldType<T>(derived, name, card, outside, layout).
template <typename Derived>
class GridOps
{
   public:
    // Deduced return type (Derived::FieldType<T>): Derived is incomplete
    // while this mixin is being instantiated inside its own definition.
    template <typename T>
    [[nodiscard]] auto newField(std::string name, int cardinality, T outsideValue,
                                MemLayout layout = MemLayout::structOfArrays) const
    {
        using Field = typename Derived::template FieldType<T>;
        static_assert(FieldConcept<Field>,
                      "Grid::FieldType<T> must satisfy neon::domain::FieldConcept "
                      "(see docs/domain.md)");
        return Field(self(), std::move(name), cardinality, outsideValue, layout);
    }

    /// Wrap a loading lambda into a Container bound to this grid.
    template <typename LoadingLambda>
    [[nodiscard]] set::Container newContainer(std::string name, LoadingLambda&& fn) const
    {
        return set::Container::factory(std::move(name), self(),
                                       std::forward<LoadingLambda>(fn));
    }

   private:
    [[nodiscard]] const Derived& self() const { return static_cast<const Derived&>(*this); }
};

}  // namespace neon::domain
