/**
 * @file
 * perfbench: the end-to-end benchmark driver.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--reference perfbench/reference.txt]
 *   perfbench --record-reference perfbench/reference.txt
 *
 * Prints the host box, one line per metric, and as its last line one
 * JSON object {"correct", "attempted", "failed", "metrics"}: with
 * --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
 * See perfbench/README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "layers.hh"
#include "sim/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "plant_10k_night|plant_1k_day|campaign_paper "
                 "--seed N --seconds S --trace 0|1 [--reference FILE]\n"
                 "       perfbench --record-reference FILE\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char **argv, std::string &record)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value");
            return argv[++i];
        };
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--workload")) {
            a.workload = value();
            haveWorkload = true;
        } else if (!std::strcmp(arg, "--seed")) {
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (!std::strcmp(arg, "--seconds")) {
            a.seconds = std::atof(value().c_str());
        } else if (!std::strcmp(arg, "--trace")) {
            a.trace = value() != "0";
        } else if (!std::strcmp(arg, "--reference")) {
            a.reference = value();
        } else if (!std::strcmp(arg, "--record-reference")) {
            record = value();
        } else {
            usage(("unknown argument " + std::string(arg)).c_str());
        }
    }
    if (record.empty() && !haveWorkload)
        usage("--workload is required");
    if (a.seconds <= 0.0)
        usage("--seconds must be positive");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string record;
    const Args args = parse(argc, argv, record);
    // The simulator's own warnings go to stderr; keep stdout for results.
    insure::Logger::setLevel(insure::LogLevel::Error);
    try {
        if (!record.empty()) {
            recordReference(record);
            return 0;
        }
        const double cpu0 = cpuSeconds();
        Outcome o;
        if (isPlantWorkload(args.workload))
            o = runPlant(args);
        else if (args.workload == "campaign_paper")
            o = runCampaign(args);
        else
            usage(("unknown workload " + args.workload).c_str());

        const double errorRate =
            o.attempted ? static_cast<double>(o.failed) / o.attempted : 1.0;
        if (o.attempted == 0)
            o.fail("no operation attempted");
        if (args.trace) {
            o.set("host.cpu_s", cpuSeconds() - cpu0, "s");
            o.set("error_rate", errorRate, "ratio");
        } else {
            o.set("peak_rss_mb", peakRssMb(), "MB");
        }
        const auto &want = args.trace ? perLayerMetrics() : endToEndMetrics();
        for (const auto &[name, unit] : want) {
            const auto it = o.metrics.find(name);
            if (it == o.metrics.end() || it->second.unit != unit)
                throw std::logic_error("metric " + name +
                                       " missing or mis-united");
        }
        if (o.metrics.size() != want.size())
            throw std::logic_error("workload reported extra metrics");

        std::printf("%s\n", boxJson(box()).c_str());
        std::printf("workload %s seed %llu trace %d: attempted %llu, "
                    "failed %llu, error_rate %.6g\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    args.trace ? 1 : 0,
                    static_cast<unsigned long long>(o.attempted),
                    static_cast<unsigned long long>(o.failed), errorRate);
        for (const std::string &p : o.problems)
            std::printf("  check failed: %s\n", p.c_str());
        for (const auto &[name, unit] : want)
            std::printf("  %-32s %14.6g %s\n", name.c_str(),
                        o.metrics[name].value, unit.c_str());
        std::printf("%s\n", resultJson(o).c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
