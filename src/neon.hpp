#pragma once
// Umbrella header: the whole public API in one include.
//
//   #include "neon.hpp"
//
// Layers (paper §IV): System (sys) -> Set -> Domain (shared contract in
// domain/, grids in dgrid/egrid/bgrid) -> Skeleton, plus
// patterns/solvers/apps built on top.

#include "core/error.hpp"
#include "core/index3d.hpp"
#include "core/log.hpp"
#include "core/stencil.hpp"
#include "core/types.hpp"

#include "sys/cost_model.hpp"
#include "sys/device.hpp"
#include "sys/event.hpp"
#include "sys/execution_report.hpp"
#include "sys/fault.hpp"
#include "sys/stream.hpp"
#include "sys/trace.hpp"

#include "set/analyzer.hpp"
#include "set/backend.hpp"
#include "set/container.hpp"
#include "set/loader.hpp"
#include "set/memset.hpp"
#include "set/profiler.hpp"
#include "set/scalar.hpp"

#include "domain/concepts.hpp"
#include "domain/field_base.hpp"
#include "domain/grid_base.hpp"
#include "domain/halo.hpp"
#include "domain/partition_plan.hpp"

#include "bgrid/bfield.hpp"
#include "bgrid/bgrid.hpp"
#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "egrid/efield.hpp"
#include "egrid/egrid.hpp"

#include "skeleton/graph.hpp"
#include "skeleton/skeleton.hpp"

#include "repartition/repartitioner.hpp"
#include "repartition/self_healing.hpp"

#include "analysis/analysis.hpp"

#include "patterns/blas.hpp"
#include "patterns/io_vtk.hpp"

#include "solver/cg.hpp"
#include "solver/jacobi.hpp"
