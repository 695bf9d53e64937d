/**
 * @file
 * The three benchmark workloads. Each takes the run arguments, sets up,
 * measures for the requested wall time, checks its outputs and returns
 * the end-to-end metrics (untraced run) or the per-layer metrics
 * (traced run).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "common.hh"
#include "core/experiment.hh"

namespace perfbench {

/** Command-line arguments of one invocation. */
struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    /** Recorded plant output digests (perfbench/reference.txt). */
    std::string reference = "perfbench/reference.txt";
};

/** Plant seeds cycle through this many recorded references. */
inline constexpr std::uint64_t kReferenceSeeds = 16;

/** The simulation seed a plant workload uses for benchmark seed @p seed. */
inline std::uint64_t
plantSeed(std::uint64_t seed)
{
    return insure::kDefaultSeed + seed % kReferenceSeeds;
}

/** True for the workloads that run one plant on one thread. */
bool isPlantWorkload(const std::string &name);

/**
 * The plant of workload @p name ("plant_10k_night" or "plant_1k_day")
 * for benchmark seed @p seed.
 */
insure::core::ExperimentConfig plantConfig(const std::string &name,
                                           std::uint64_t seed);

/**
 * The recorded output digest for @p workload at reference index @p index
 * from the reference file at @p path; throws when absent.
 */
std::uint64_t referenceDigest(const std::string &path,
                              const std::string &workload,
                              std::uint64_t index);

/** Record every plant reference digest to @p path (one run per entry). */
void recordReference(const std::string &path);

Outcome runPlant(const Args &args);
Outcome runCampaign(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
