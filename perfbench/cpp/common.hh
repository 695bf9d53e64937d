/**
 * @file
 * Shared pieces of the perfbench driver: wall clocks, percentile and
 * quartile helpers, the metric set every workload fills, the output
 * digest used by the correctness checks, and the host description
 * printed with every result.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed from @p t0 to @p t1. */
inline double
seconds(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Seconds elapsed since @p t0. */
inline double
since(Clock::time_point t0)
{
    return seconds(t0, Clock::now());
}

/** Wall seconds taken by @p fn. */
template <typename Fn>
double
timed(Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    return since(t0);
}

/**
 * The @p q quantile (0..1) of @p v by linear interpolation between
 * closest ranks (numpy's default). Throws on an empty sample.
 */
double percentile(std::vector<double> v, double q);

/** Median of @p v (percentile 0.5). */
inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** Arithmetic mean of @p v (0 for an empty sample). */
double mean(const std::vector<double> &v);

/**
 * The three cut points that split @p v into quarters, computed exactly
 * as Python's statistics.quantiles(v, n=4) (the "exclusive" method).
 * Needs at least two values.
 */
std::array<double, 3> quartiles(std::vector<double> v);

/**
 * Print the count and quartiles of @p v to stderr, labelled @p what: the
 * within-window spread behind a reported median. Silent below two values.
 */
void printQuartiles(const std::string &what, const std::vector<double> &v);

/** One reported metric. */
struct Metric {
    double value = 0.0;
    std::string unit;
};

/** Named metrics of one run, printed as the result's "metrics" object. */
using MetricSet = std::map<std::string, Metric>;

/** Outcome of one benchmark invocation. */
struct Outcome {
    /** Every output check passed. */
    bool correct = true;
    /** Operations attempted (runs, campaign runs or requests). */
    std::uint64_t attempted = 0;
    /** Attempted operations that failed a check or were refused. */
    std::uint64_t failed = 0;
    MetricSet metrics;
    /** Human-readable reasons for each failed check (bounded). */
    std::vector<std::string> problems;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    /** Record a failed check: counts @p n failed operations. */
    void
    fail(const std::string &why, std::uint64_t n = 1)
    {
        correct = false;
        failed += n;
        if (problems.size() < 20)
            problems.push_back(why);
    }
};

/** Render the final result line (the driver parses only this line). */
std::string resultJson(const Outcome &o);

/**
 * FNV-1a digest of a run's simulated outputs: the Metrics block, the
 * daily-log summary and the run's resilience/SLO blocks, as encoded by
 * the repository's own RunResult codec (wall time excluded).
 */
std::uint64_t outputDigest(const insure::core::ExperimentResult &res,
                           std::uint64_t seed, double simulatedSeconds);

/** 16-digit lower-case hex rendering of a digest. */
std::string hex(std::uint64_t v);

/** Host description recorded with every result. */
struct Box {
    unsigned nproc = 0;
    std::string cpuModel;
    std::string compiler;
    std::string flags;
    std::string buildType;
};

/** Describe this host and build. */
Box box();

/** The box as a one-line JSON object. */
std::string boxJson(const Box &b);

/** Peak resident set of this process, megabytes. */
double peakRssMb();

/** User + system CPU seconds consumed by this process so far. */
double cpuSeconds();

/**
 * CPU seconds consumed by the calling thread so far. On a shared host
 * this excludes the time the thread waited for a processor, whether in
 * this kernel's run queue or, on a guest that accounts steal time, on
 * the hypervisor's.
 */
double threadCpuSeconds();

/** CPU seconds the calling thread spends in @p fn. */
template <typename Fn>
double
cpuTimed(Fn &&fn)
{
    const double t0 = threadCpuSeconds();
    fn();
    return threadCpuSeconds() - t0;
}

/**
 * Host-speed calibration. The benchmark's own fixed piece of ordinary
 * C++ work (a branchy floating-point sweep over an array of structs,
 * ordered-map lookups, a sort and number formatting; none of it
 * simulator code, so no change to the program moves it) is run on the
 * calling thread between timed chunks. On a shared host the CPU time of
 * the same work swings by ±25% over tens of seconds, as neighbours load
 * the physical core and its caches; the calibration swings with it.
 * Dividing each chunk's CPU time by the calibration taken beside it and
 * multiplying by kReferenceCalibrationS gives that chunk's CPU time on
 * the reference box at its usual speed: "reference CPU seconds".
 */
double calibrationSeconds();

/**
 * Median CPU seconds of one calibrationSeconds() call on the reference
 * box (4-vCPU Intel Xeon VM, GCC 12 -O3). A fixed constant: it only sets
 * the scale of the reference CPU seconds.
 */
inline constexpr double kReferenceCalibrationS = 1.5e-3;

/**
 * @p cpuSeconds of work timed beside a calibration that took
 * @p calibrationS, in reference CPU seconds.
 */
inline double
referenceSeconds(double cpuSeconds, double calibrationS)
{
    return cpuSeconds * kReferenceCalibrationS / calibrationS;
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
