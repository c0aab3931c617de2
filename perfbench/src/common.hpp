#pragma once
// Shared plumbing of the benchmark: wall clock, sample statistics, the
// span tracer, the result record printed as the last stdout line, and the
// host fingerprint.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "set/backend.hpp"

namespace perfbench {

/// Seconds on the steady clock.
inline double wallNow()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Median of a sample set (0 for an empty set).
double median(std::vector<double> v);

/// The fastest sample (0 for an empty set): the statistic of every
/// end-to-end timing. On the shared hosts this benchmark was tuned on,
/// other tenants slow the same code by up to 2x, in phases of a fraction
/// of a second to tens of seconds. Such noise only ever adds time, and the
/// fastest of many short units reads the uncontended speed as long as a
/// run holds any quiet moment; a median or a 10th percentile reads
/// whichever phase held most of the run.
double fastest(const std::vector<double>& v);

/// The highest percentile with at least ten samples beyond it: with n > 10
/// sorted samples that is sample n-11, at percentile 100*(n-10)/n. With
/// fewer samples no such percentile exists and the median is reported
/// (pct = 50).
struct Tail
{
    double value = 0.0;
    double pct = 0.0;
    double samples = 0.0;
};
Tail tailOf(std::vector<double> v);

/// Records spans (module, name, start, end, parent) around the
/// benchmark's calls into the library. Spans stay in memory; the trace is
/// written once, at exit. Disabled, a Scope costs one branch.
class Tracer
{
   public:
    struct Span
    {
        std::string module;
        std::string name;
        double      t0 = 0.0;
        double      t1 = 0.0;
        int         parent = -1;
    };

    class Scope
    {
       public:
        Scope(Tracer* tracer, int idx) : mTracer(tracer), mIdx(idx) {}
        Scope(Scope&& o) noexcept : mTracer(std::exchange(o.mTracer, nullptr)), mIdx(o.mIdx) {}
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        Scope& operator=(Scope&&) = delete;
        ~Scope();

       private:
        Tracer* mTracer;
        int     mIdx;
    };

    void enable(bool on) { mOn = on; }
    [[nodiscard]] bool enabled() const { return mOn; }

    [[nodiscard]] Scope span(const char* module, std::string name);

    /// Self time per module: each span's duration minus the part of it
    /// covered by its child spans, summed per module [s].
    [[nodiscard]] std::map<std::string, double> selfSecondsByModule() const;

    /// Chrome trace-event JSON of every recorded span.
    [[nodiscard]] std::string toJson() const;

   private:
    bool              mOn = false;
    int               mOpen = -1;
    std::vector<Span> mSpans;
};

/// The process-wide tracer.
Tracer& tracer();

/// Run `fn` under a span of (module, name) and return its wall seconds.
template <typename Fn>
double traced(const char* module, std::string name, Fn&& fn)
{
    auto         scope = tracer().span(module, std::move(name));
    const double t0 = wallNow();
    fn();
    return wallNow() - t0;
}

/// What one workload run reports. `attempted` counts closed-loop units
/// (solves, step blocks, rounds); `failed` counts those whose output check
/// failed. Any other failed check clears `correct`.
struct Result
{
    bool     correct = true;
    long     attempted = 0;
    long     failed = 0;
    std::map<std::string, double> metrics;

    /// Count one attempted unit and whether its output check held.
    void unit(bool ok, const std::string& what);
    /// A check outside the closed loop (reconciliation, config, refs).
    void require(bool ok, const std::string& what);
};

/// Run configuration from the command line.
struct Context
{
    std::string workload;
    uint64_t    seed = 1;
    double      seconds = 10.0;
    bool        trace = false;
    /// Host pool width of the traced host-pool probes on poisson_cg: half
    /// the online cores, between 1 and 4. The closed loops all run on one
    /// host thread.
    int width = 1;
};

/// Build a backend from `spec` and check that the resolved pool width is
/// the one asked for (NEON_THREADS silently overrides it otherwise).
neon::set::Backend makeBackend(const neon::set::BackendSpec& spec, Result& result);

/// Peak resident set size of this process [MiB] (0 if unknown).
double peakRssMiB();

/// One-line JSON fingerprint: nproc, compiler, flags, caches, backend
/// spec and the computed working set of the workload.
std::string fingerprint(const Context& ctx, const std::string& backendSpec,
                        double workingSetMiB);

}  // namespace perfbench
