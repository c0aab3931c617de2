#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

double median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

Tail tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = static_cast<double>(v.size());
    if (v.empty()) {
        return t;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n > 10) {
        t.value = v[n - 11];
        t.pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    } else {
        t.value = median(v);
        t.pct = 50.0;
    }
    return t;
}

// --- tracer -----------------------------------------------------------------

Tracer::Scope::~Scope()
{
    if (mTracer == nullptr || mIdx < 0) {
        return;
    }
    auto& s = mTracer->mSpans[static_cast<size_t>(mIdx)];
    s.t1 = wallNow();
    mTracer->mOpen = s.parent;
}

Tracer::Scope Tracer::span(const char* module, std::string name)
{
    if (!mOn) {
        return {nullptr, -1};
    }
    const int idx = static_cast<int>(mSpans.size());
    mSpans.push_back({module, std::move(name), wallNow(), 0.0, mOpen});
    mOpen = idx;
    return {this, idx};
}

std::map<std::string, double> Tracer::selfSecondsByModule() const
{
    std::vector<double> childTime(mSpans.size(), 0.0);
    for (const Span& s : mSpans) {
        if (s.parent >= 0) {
            childTime[static_cast<size_t>(s.parent)] += s.t1 - s.t0;
        }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < mSpans.size(); ++i) {
        self[mSpans[i].module] += (mSpans[i].t1 - mSpans[i].t0) - childTime[i];
    }
    return self;
}

std::string Tracer::toJson() const
{
    std::ostringstream os;
    os.precision(12);
    const double origin = mSpans.empty() ? 0.0 : mSpans.front().t0;
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < mSpans.size(); ++i) {
        const Span& s = mSpans[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.module
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << (s.t0 - origin) * 1e6
           << ",\"dur\":" << (s.t1 - s.t0) * 1e6 << ",\"args\":{\"id\":" << i
           << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

Tracer& tracer()
{
    static Tracer t;
    return t;
}

// --- result -----------------------------------------------------------------

void Result::unit(bool ok, const std::string& what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        correct = false;
        std::cerr << "perfbench: output check failed: " << what << "\n";
    }
}

void Result::require(bool ok, const std::string& what)
{
    if (!ok) {
        correct = false;
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
}

neon::set::Backend makeBackend(const neon::set::BackendSpec& spec, Result& result)
{
    auto backend = neon::set::Backend::make(spec);
    result.require(backend.hostThreads() == spec.hostThreads,
                   "host pool width " + std::to_string(backend.hostThreads()) +
                       " differs from the workload's " + std::to_string(spec.hostThreads) +
                       " (is NEON_THREADS set?)");
    return backend;
}

double peakRssMiB()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // exec, so under run.py it would report the Python parent's peak.
    std::ifstream status("/proc/self/status");
    std::string   key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

std::string fingerprint(const Context& ctx, const std::string& backendSpec, double workingSetMiB)
{
    std::ostringstream os;
    os.precision(6);
    os << "{\"workload\":\"" << ctx.workload << "\",\"seed\":" << ctx.seed
       << ",\"trace\":" << (ctx.trace ? 1 : 0) << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"width\":" << ctx.width << ",\"compiler\":\"" << PERFBENCH_COMPILER
       << "\",\"flags\":\"" << PERFBENCH_FLAGS
       << "\",\"l2_kib\":" << sysconf(_SC_LEVEL2_CACHE_SIZE) / 1024
       << ",\"l3_kib\":" << sysconf(_SC_LEVEL3_CACHE_SIZE) / 1024 << ",\"backend\":\"" << backendSpec
       << "\",\"working_set_mib\":" << workingSetMiB << "}";
    return os.str();
}

}  // namespace perfbench
