// perfbench: the repository benchmark (see perfbench/README.md).
//
//   neon_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload as a closed loop for the given wall seconds, checks
// every output, and prints as its last stdout line one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1 (which also writes
// the recorded spans to .bench_out/).

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "metrics.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage(const std::string& why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: neon_perfbench --workload poisson_cg|lbm_cavity|sim_dgx8|fem_sparse"
                 " --seed N --seconds S --trace 0|1\n";
    return 2;
}

std::string resultJson(const Result& result, const std::vector<MetricSpec>& catalogue,
                       bool fillMissing, bool& complete)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"metrics\": {";
    complete = true;
    bool first = true;
    for (const auto& [name, unit] : catalogue) {
        const auto it = result.metrics.find(name);
        double     value = 0.0;
        if (it != result.metrics.end() && std::isfinite(it->second)) {
            value = it->second;
        } else if (!fillMissing) {
            complete = false;
            std::cerr << "perfbench: end-to-end metric " << name << " was not measured\n";
        }
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
           << ", \"unit\": \"" << unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

}  // namespace

int main(int argc, char** argv)
{
    Context                            ctx;
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        args[argv[i]] = argv[i + 1];
    }
    if (argc % 2 == 0) {
        return usage("arguments come in --key value pairs");
    }
    try {
        ctx.workload = args.at("--workload");
        ctx.seed = std::stoull(args.at("--seed"));
        ctx.seconds = std::stod(args.at("--seconds"));
        ctx.trace = std::stoi(args.at("--trace")) != 0;
    } catch (const std::exception&) {
        return usage("missing or malformed argument");
    }
    ctx.width = static_cast<int>(std::clamp<long>(sysconf(_SC_NPROCESSORS_ONLN) / 2, 1, 4));

    const std::map<std::string, void (*)(const Context&, Result&)> workloads = {
        {"poisson_cg", &runPoissonCg},
        {"lbm_cavity", &runLbmCavity},
        {"sim_dgx8", &runSimDgx8},
        {"fem_sparse", &runFemSparse},
    };
    const auto wl = workloads.find(ctx.workload);
    if (wl == workloads.end()) {
        return usage("unknown workload '" + ctx.workload + "'");
    }

    Result result;
    tracer().enable(ctx.trace);
    try {
        wl->second(ctx, result);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << ctx.workload << " aborted: " << e.what() << "\n";
        return 1;
    }
    tracer().enable(false);

    if (ctx.trace) {
        addSelfTimes(result);
        std::filesystem::create_directories(".bench_out");
        const std::string path =
            ".bench_out/" + ctx.workload + "_seed" + std::to_string(ctx.seed) + "_trace.json";
        std::ofstream(path) << tracer().toJson();
        std::cout << "# spans written to " << path << "\n";
    }
    bool complete = true;
    const std::string json = resultJson(
        result, ctx.trace ? perLayerMetrics() : endToEndMetrics(), ctx.trace, complete);
    if (!complete) {
        return 1;
    }
    std::cout << json << std::endl;
    return 0;
}
