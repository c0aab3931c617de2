#pragma once
// Workload entry points and the closed-loop helpers they share.

#include <string>
#include <vector>

#include "common.hpp"
#include "skeleton/schedule_cache.hpp"

namespace perfbench {

void runPoissonCg(const Context& ctx, Result& result);
void runFemSparse(const Context& ctx, Result& result);
void runLbmCavity(const Context& ctx, Result& result);
void runSimDgx8(const Context& ctx, Result& result);

/// Reconciliation tolerance of the traced mode: the isolated container
/// runs may exceed the measured skeleton run by at most this share
/// (skeleton.self_frac >= -kReconcileTol), and on lbm_cavity, where the
/// step is one container, |skeleton.self_frac| <= kReconcileTol.
inline constexpr double kReconcileTol = 0.15;

/// Seconds of closed-loop time between two set-up samples. The set-ups
/// are spread over the run rather than made back to back, so that they
/// meet the host's quiet moments as often as the units do.
inline constexpr double kSetupPeriod = 0.5;

/// peak_rss_mib is read after this many units, so that it does not depend
/// on how many units the host's speed allowed in a run.
inline constexpr size_t kRssUnits = 64;

/// One set-up: empty the process-wide schedule cache, so that the set-up
/// compiles its schedules as a program start does, time `build()` under
/// a bench/setup span and append its seconds to `samples`. Returns what
/// `build` built; destroying it is not timed.
template <typename Build>
auto coldSetup(Build&& build, std::vector<double>& samples)
{
    neon::skeleton::ScheduleCache::instance().clear();
    auto         scope = tracer().span("bench", "setup");
    const double t0 = wallNow();
    auto         built = build();
    samples.push_back(wallNow() - t0);
    return built;
}

/// What a closed loop measured.
struct Loop
{
    std::vector<double> units;         ///< seconds of each unit, in call order
    double              rssMiB = 0.0;  ///< peak resident set after kRssUnits units
};

/// Call `unit` back to back (a closed loop: one caller, the next call
/// after the previous returned) until `seconds` of wall time have passed
/// since the loop started, and at least kRssUnits times. `unit` returns
/// the seconds it timed. After the first kRssUnits units, every
/// kSetupPeriod seconds one more set-up of a throw-away instance runs
/// between two units (coldSetup(build, setups)).
template <typename Unit, typename Build>
Loop closedLoop(double seconds, Unit&& unit, Build&& build, std::vector<double>& setups)
{
    Loop         loop;
    const double t0 = wallNow();
    double       nextSetup = 0.0;
    while (loop.units.size() < kRssUnits || wallNow() - t0 < seconds) {
        loop.units.push_back(unit());
        if (loop.units.size() == kRssUnits) {
            loop.rssMiB = peakRssMiB();
        }
        const double now = wallNow() - t0;
        if (loop.units.size() >= kRssUnits && now >= nextSetup) {
            coldSetup(build, setups);
            nextSetup = now + kSetupPeriod;
        }
    }
    return loop;
}

/// Record `<name>.tail`, `<name>.tail_pct` and `<name>.samples` of
/// `samples` (values multiplied by `scale`).
inline void addTail(Result& result, const std::string& name, const std::vector<double>& samples,
                    double scale = 1.0)
{
    std::vector<double> scaled;
    scaled.reserve(samples.size());
    for (const double s : samples) {
        scaled.push_back(s * scale);
    }
    const Tail t = tailOf(scaled);
    result.metrics[name + ".tail"] = t.value;
    result.metrics[name + ".tail_pct"] = t.pct;
    result.metrics[name + ".samples"] = t.samples;
}

/// Record self time per module (ms) from the tracer.
inline void addSelfTimes(Result& result)
{
    for (const auto& [module, seconds] : tracer().selfSecondsByModule()) {
        result.metrics["self." + module + "_ms"] = seconds * 1e3;
    }
}

}  // namespace perfbench
