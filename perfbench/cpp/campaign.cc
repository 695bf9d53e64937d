#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "dispatch/fleet.hh"
#include "dispatch/sweep_spec.hh"
#include "fault/campaign.hh"
#include "harness/batch_runner.hh"
#include "layers.hh"
#include "service/twin_server.hh"
#include "snapshot/archive.hh"
#include "workloads.hh"

namespace perfbench {

namespace core = insure::core;
namespace dispatch = insure::dispatch;
namespace fault = insure::fault;

namespace {

/** Runs per campaign and workers in the thread fleet. */
constexpr std::size_t kRuns = 24;
constexpr unsigned kWorkers = 3;
/**
 * Campaigns (master seeds seed, seed + 1, ...) every window measures:
 * which runs draw faults, and so what a campaign costs, depends on its
 * master seed, and the window averages over a fixed set of them.
 */
constexpr std::uint64_t kWindowCampaigns = 3;

/**
 * The campaign of benchmark seed @p seed: paper-scale seismic plants
 * (3 cabinets x 2 units, the preset's shape), one sunny day per run,
 * seeded faults on every class, invariant checker logging.
 */
dispatch::SweepSpec
campaignSpec(std::uint64_t seed)
{
    dispatch::SweepSpec spec;
    spec.workload = "seismic";
    spec.day = insure::solar::DayClass::Sunny;
    spec.days = 1.0;
    spec.faultRatePerHour = 0.5;
    spec.policy = insure::validate::Policy::Log;
    spec.runs = kRuns;
    spec.masterSeed = seed;
    return spec;
}

dispatch::FleetOptions
fleetOptions()
{
    dispatch::FleetOptions f;
    f.mode = dispatch::FleetMode::Thread;
    f.workers = kWorkers;
    f.czar.chunkRuns = 1;
    return f;
}

std::uint64_t
campaignDigest(const fault::CampaignSummary &s)
{
    std::ostringstream os;
    fault::writeCampaignJson(s, os);
    const std::string json = os.str();
    return insure::snapshot::fnv1a(json.data(), json.size());
}

/** The campaign's runs, seeded exactly as the campaign runners seed them. */
std::vector<core::RunSpec>
campaignRuns(const fault::CampaignConfig &cfg)
{
    std::vector<core::RunSpec> specs;
    for (std::size_t i = 0; i < cfg.runs; ++i)
        specs.push_back(fault::buildCampaignRunSpec(cfg, i));
    insure::harness::assignChildSeeds(specs, cfg.masterSeed);
    return specs;
}

/**
 * The single-process oracle: every run in order on one thread through
 * the batch runner, summarized as runFaultCampaign summarizes it.
 */
struct Oracle {
    std::uint64_t digest = 0;
    std::vector<core::RunResult> results;
};

Oracle
runOracle(const dispatch::SweepSpec &spec)
{
    const fault::CampaignConfig cfg = dispatch::toCampaignConfig(spec);
    Oracle o;
    o.results = insure::harness::BatchRunner(1).run(campaignRuns(cfg));
    o.digest = campaignDigest(fault::summarizeCampaign(cfg, o.results));
    return o;
}

/**
 * Calibrate one thread per fleet worker plus one for the czar at once:
 * the mean calibration time of the cores a campaign's threads roam.
 */
double
fleetCalibration()
{
    std::vector<double> cal(kWorkers + 1);
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < cal.size(); ++w)
        threads.emplace_back([&cal, w] { cal[w] = calibrationSeconds(); });
    for (std::thread &t : threads)
        t.join();
    return mean(cal);
}

/** Check one fleet campaign against the oracle. */
void
checkCampaign(const dispatch::DistributedRunReport &rep,
              std::uint64_t oracleDigest, Outcome &o)
{
    o.attempted += kRuns;
    const std::uint64_t got = campaignDigest(rep.summary);
    if (got != oracleDigest)
        o.fail("campaign JSON digest " + hex(got) + " != oracle " +
                   hex(oracleDigest),
               kRuns);
    else if (rep.summary.sweep.failedRuns > 0)
        o.fail(std::to_string(rep.summary.sweep.failedRuns) +
                   " campaign runs failed",
               rep.summary.sweep.failedRuns);
}

} // namespace

Outcome
runCampaign(const Args &args)
{
    Outcome o;
    const dispatch::SweepSpec spec = campaignSpec(args.seed);
    const dispatch::FleetOptions fleet = fleetOptions();

    if (!args.trace) {
        // Work is timed on the process CPU clock: every thread of the
        // czar and the fleet, without the time they waited for a
        // processor on a shared host or sat blocked on one another
        // (dispatch.idle_frac in the traced run measures that wait).
        // It is converted to reference CPU seconds by the mean of a
        // fleet-wide calibration run right before and one right after.
        // Each campaign is costed at its quickest repetition, as the
        // plant chunks are: interference only ever adds time.
        std::vector<double> speed;
        double rawCpu = 0.0;
        auto processCpu = [&](auto &&fn) {
            const double before = fleetCalibration();
            const double t0 = cpuSeconds();
            fn();
            const double cpu = cpuSeconds() - t0;
            rawCpu += cpu;
            const double cal = (before + fleetCalibration()) / 2.0;
            speed.push_back(kReferenceCalibrationS / cal);
            return referenceSeconds(cpu, cal);
        };
        // Set-up: bring a fleet up, lease it one simulated minute and
        // shut it down again. It takes milliseconds, so take the median
        // of 60, after 5 untimed ones have warmed the allocator and the
        // thread-stack cache.
        dispatch::SweepSpec tiny = spec;
        tiny.runs = 1;
        tiny.days = 1.0 / 1440.0;
        std::vector<double> setups;
        for (int i = 0; i < 65; ++i) {
            const double cpu = processCpu(
                [&] { dispatch::runDistributedSweepReport(tiny, fleet); });
            if (i >= 5)
                setups.push_back(cpu);
        }

        rawCpu = 0.0;
        // The window's campaigns in turn, repeated as often as fits in
        // --seconds: the wall time adds repetitions, never other campaigns.
        std::vector<dispatch::SweepSpec> specs;
        for (std::uint64_t k = 0; k < kWindowCampaigns; ++k)
            specs.push_back(campaignSpec(args.seed + k));
        std::vector<std::vector<dispatch::DistributedRunReport>> reps(
            specs.size());
        std::vector<std::vector<double>> cpus(specs.size());
        const auto start = Clock::now();
        double lastRound = 0.0;
        do {
            const auto round0 = Clock::now();
            for (std::size_t k = 0; k < specs.size(); ++k)
                cpus[k].push_back(processCpu([&] {
                    reps[k].push_back(
                        dispatch::runDistributedSweepReport(specs[k], fleet));
                }));
            lastRound = since(round0);
        } while (since(start) + lastRound <= args.seconds);
        const double wall = since(start);

        double cpu = 0.0;
        std::size_t campaigns = 0;
        for (std::size_t k = 0; k < specs.size(); ++k) {
            const Oracle oracle = runOracle(specs[k]);
            for (const auto &rep : reps[k])
                checkCampaign(rep, oracle.digest, o);
            campaigns += reps[k].size();
            printQuartiles("campaign " + std::to_string(k) +
                               " reference cpu s",
                           cpus[k]);
            cpu += *std::min_element(cpus[k].begin(), cpus[k].end()) /
                   static_cast<double>(specs.size());
        }
        std::fprintf(stderr, "%zu campaigns in %.3f wall s\n", campaigns,
                     wall);
        printQuartiles("host speed vs reference", speed);
        std::fprintf(stderr,
                     "raw: %.6g simulated s per CPU s over every campaign\n",
                     kRuns * spec.days * 86400.0 *
                         static_cast<double>(campaigns) / rawCpu);
        o.set("setup_s", median(setups), "s");
        o.set("sim_s_per_ref_cpu_s", kRuns * spec.days * 86400.0 / cpu,
              "s/s");
        return o;
    }

    // Traced run: one fleet campaign for the dispatch counters, the
    // oracle for per-run wall, and a layer trace of the campaign's first
    // run with its checker and fault injector attached.
    dispatch::DistributedRunReport rep;
    const double wall =
        timed([&] { rep = dispatch::runDistributedSweepReport(spec, fleet); });
    const Oracle oracle = runOracle(spec);
    checkCampaign(rep, oracle.digest, o);
    std::vector<double> runMs;
    for (const core::RunResult &r : oracle.results)
        runMs.push_back(r.wallSeconds * 1e3);
    o.set("dispatch.idle_frac",
          std::max(0.0, 1.0 - rep.summary.sweep.runWallSeconds /
                                  (kWorkers * wall)),
          "ratio");
    o.set("dispatch.frames", static_cast<double>(rep.czar.framesDecoded),
          "count");
    o.set("dispatch.requeued_runs",
          static_cast<double>(rep.czar.requeuedRuns), "count");
    o.set("harness.run_ms", median(runMs), "ms");
    o.set("fault.injected", static_cast<double>(rep.summary.faultsInjected),
          "count");

    const core::ExperimentConfig first =
        campaignRuns(dispatch::toCampaignConfig(spec)).front().config;
    const LayerTrace lt =
        traceSegment(Segment{first, 0.0, first.duration, 12});
    o.attempted += 2;
    if (lt.tracedDigest != lt.untracedDigest)
        o.fail("traced output digest " + hex(lt.tracedDigest) +
               " != untraced " + hex(lt.untracedDigest));
    if (lt.untracedDigest !=
        outputDigest(oracle.results.front().result, first.seed,
                     first.duration))
        o.fail("untraced first run differs from the oracle's");
    reportLayerTrace(lt, o);

    std::uint64_t violations = 0;
    o.set("validate.check_us",
          checkerCostUs(first, first.duration, violations), "us");
    o.set("validate.violations", static_cast<double>(violations), "count");

    reportCodecs(probeCodecs(spec, kRuns, oracle.results.front()), o);

    insure::service::TwinServer twin(first);
    insure::service::WhatIfQuery q;
    q.horizonHours = 1.0 / 60.0;
    reportService(probeService(twin, q, 3, 60.0, args.seed), o);
    return o;
}

} // namespace perfbench
