#pragma once
// AccessSanitizer: diff what sanitized kernels actually did (the merged
// set::sanitize::Session observations, see set/sanitize.hpp) against what
// their Loaders declared, reporting typed violations through
// AnalysisReport (docs/analysis.md, "Access sanitizer"):
//
//   UndeclaredRead / UndeclaredWrite — touched a uid with no declaration
//       (reachable through Loader::loadUnchecked),
//   WriteViaReadAccess   — declared READ only, but wrote,
//   UndeclaredStencil    — declared MAP, but read a neighbour (the
//                          stale-halo bug class: no halo node is derived),
//   StencilRadiusExceeded — neighbour offset beyond the grid halo radius,
//   OutOfSpanWrite       — wrote a cell outside the launched view's span,
//   OverdeclaredAccess   — declared but never touched on any device
//                          (inflates edges, serializes independent runs),
//   InvalidNghRead       — read through an invalid neighbour handle (the
//                          value is the centre cell's, not a neighbour's).
//
// Enabled per run via Container::launch(..., sanitized), per skeleton via
// SequenceOptions::withSanitize / Skeleton::validate(Deep), or process-wide
// via NEON_SANITIZE=1 (exit code 4 on findings — distinct from the graph
// lint / race detector's exit 3).

#include <cstdint>
#include <vector>

#include "analysis/report.hpp"

namespace neon::analysis {

class AccessSanitizer
{
   public:
    /// Diff every committed (container, device) entry. Deterministic order:
    /// entries by (container name, device, creation ordinal), uids in load
    /// order within an entry.
    [[nodiscard]] static AnalysisReport diff();

    /// Same, restricted to containers whose creation ordinal
    /// (Container::sanitizeSeq) is in `onlySeqs` — Skeleton::validate(Deep)
    /// uses this to scope the verdict to its own graph.
    [[nodiscard]] static AnalysisReport diff(const std::vector<uint64_t>& onlySeqs);

    /// Drop all recorded observations (test isolation between cases).
    static void reset();
};

/// True iff NEON_SANITIZE is enabled (forwards set::sanitize::envEnabled,
/// which prints the "[neon-sanitize] enabled" marker on first hit).
[[nodiscard]] bool sanitizeEnvEnabled();

/// Print the report's violations to stderr with the [neon-sanitize] prefix
/// and latch process exit code 4. No-op on a clean report.
void reportSanitizeViolations(const AnalysisReport& report);

/// Register an atexit hook that runs diff() when the process ends and
/// fails it (exit 4) on violations — the NEON_SANITIZE=1 path used by
/// tools/neon-lint --sanitize. Idempotent.
void installSanitizeExitHook();

}  // namespace neon::analysis
