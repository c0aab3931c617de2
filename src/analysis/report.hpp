#pragma once
// AnalysisReport: structured verdicts of the dependency-graph lint and the
// happens-before race detector (neon::analysis, docs/analysis.md). A
// violation carries container/run/device attribution so it can be rendered
// next to the ExecutionReport and chrome trace of the offending run.

#include <cstdint>
#include <string>
#include <vector>

namespace neon::analysis {

enum class ViolationKind : uint8_t
{
    MissingDependency,  ///< conflicting accesses with no dependency path
    SpuriousEdge,       ///< data edge between nodes sharing no written data
    StaleHaloRead,      ///< stencil halo read with no halo-update provider
    GraphCycle,         ///< dependency graph is not a DAG
    LevelOrder,         ///< level/stream/task order contradicts an edge
    DeadNodeScheduled,  ///< alive == false node leaked into scheduling state
    MissingWait,        ///< cross-stream dependency without an event wait
    Race,               ///< conflicting ops not ordered by happens-before
    WaitBeforeRecord,   ///< wait enqueued before its event's record
    // Access-contract sanitizer verdicts (analysis/sanitizer.hpp): the
    // kernel's observed behaviour vs its declared Loader accesses.
    UndeclaredRead,         ///< read a uid the container never declared
    UndeclaredWrite,        ///< wrote a uid the container never declared
    WriteViaReadAccess,     ///< declared READ only, but wrote
    UndeclaredStencil,      ///< declared MAP, but read a neighbour
    StencilRadiusExceeded,  ///< neighbour offset beyond the halo radius
    OutOfSpanWrite,         ///< wrote a cell outside the launched span
    OverdeclaredAccess,     ///< declared, but never touched on any device
    InvalidNghRead,         ///< read through an invalid neighbour handle
};

std::string to_string(ViolationKind k);

struct Violation
{
    ViolationKind kind = ViolationKind::Race;
    std::string   message;
    // Attribution. A/B are the two parties of a pairwise violation (the
    // earlier party first); single-party violations fill A only. Values are
    // -1 / empty when unknown or not applicable.
    int         nodeA = -1;  ///< skeleton graph-node id
    int         nodeB = -1;
    std::string containerA;  ///< node label, e.g. "sten3.bdr"
    std::string containerB;
    int         runA = -1;  ///< run() window id (race detector only)
    int         runB = -1;
    int         device = -1;  ///< device of the later op (race detector only)
};

struct AnalysisReport
{
    std::vector<Violation> violations;
    size_t                 opsAnalyzed = 0;   ///< schedule records consumed
    size_t                 edgesChecked = 0;  ///< graph edges examined
    size_t                 pairsChecked = 0;  ///< node pairs examined

    [[nodiscard]] bool   clean() const { return violations.empty(); }
    [[nodiscard]] size_t count(ViolationKind k) const;

    /// Fold `other` into this report (violations append, counters add).
    void merge(const AnalysisReport& other);

    /// One line per violation plus a counter summary.
    [[nodiscard]] std::string toString() const;
    /// e.g. "3 violation(s): 2 race, 1 missingWait" or "clean".
    [[nodiscard]] std::string summary() const;
    /// JSON object (tooling; same spirit as ExecutionReport::toJson).
    [[nodiscard]] std::string toJson() const;
};

}  // namespace neon::analysis
