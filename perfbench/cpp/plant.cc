#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "dispatch/sweep_spec.hh"
#include "layers.hh"
#include "service/twin_server.hh"
#include "workloads.hh"

namespace perfbench {

namespace core = insure::core;
using insure::Seconds;

namespace {

/** One control period, simulated seconds. */
constexpr Seconds kMinute = 60.0;

struct PlantShape {
    const char *name;
    unsigned cabinets;
    Seconds duration;
    bool video;
    /** Layer-probe sample ticks in the traced run. */
    unsigned samples;
    /** Simulated seconds of the checker-cost segment. */
    Seconds checkSeconds;
    /**
     * Seed classes every window simulates, and how often it repeats
     * them at least. A 1k day's CPU cost depends on its class (how long
     * the buffer discharges): from 3.8 to 6.3 s across the 16 classes on
     * the reference box. So that window averages six days, once each.
     * The 10k night discharges every unit from the first tick whatever
     * the class (within ~5%): it takes two classes and runs them three
     * times, so each minute can be costed at its quickest repetition.
     */
    std::uint64_t windowClasses;
    std::size_t minReps;
    /**
     * Simulated seconds per timed chunk, each followed by a calibration:
     * one control period of the 10k night (~0.15 s of CPU), twenty
     * minutes of the 1k day (~0.07 s).
     */
    Seconds chunk;
};

const PlantShape kShapes[] = {
    {"plant_10k_night", 5000, 1800.0, true, 6, 300.0, 2, 3, kMinute},
    {"plant_1k_day", 500, 86400.0, false, 12, 3600.0, 6, 1, 20 * kMinute},
};

const PlantShape &
shape(const std::string &name)
{
    for (const PlantShape &s : kShapes)
        if (name == s.name)
            return s;
    throw std::invalid_argument("unknown plant workload '" + name + "'");
}

} // namespace

bool
isPlantWorkload(const std::string &name)
{
    for (const PlantShape &s : kShapes)
        if (name == s.name)
            return true;
    return false;
}

core::ExperimentConfig
plantConfig(const std::string &name, std::uint64_t seed)
{
    const PlantShape &s = shape(name);
    core::ExperimentConfig cfg =
        s.video ? core::videoExperiment() : core::seismicExperiment();
    cfg.day = insure::solar::DayClass::Sunny;
    cfg.system.cabinetCount = s.cabinets;
    cfg.system.seriesCount = 2;
    cfg.duration = s.duration;
    cfg.seed = plantSeed(seed);
    return cfg;
}

std::uint64_t
referenceDigest(const std::string &path, const std::string &workload,
                std::uint64_t index)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open reference file " + path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name, digest;
        std::uint64_t idx = 0;
        if (ls >> name >> idx >> digest && name == workload && idx == index)
            return std::stoull(digest, nullptr, 16);
    }
    throw std::runtime_error("no reference for " + workload + " index " +
                             std::to_string(index) + " in " + path);
}

void
recordReference(const std::string &path)
{
    std::ostringstream os;
    os << "# Output digests of the plant workloads, one per seed class\n"
          "# (benchmark seed mod "
       << kReferenceSeeds
       << "): FNV-1a over the RunResult codec\n"
          "# bytes of a one-shot runExperiment. Regenerate with\n"
          "#   perfbench --record-reference perfbench/reference.txt\n";
    for (const PlantShape &s : kShapes) {
        for (std::uint64_t i = 0; i < kReferenceSeeds; ++i) {
            const core::ExperimentConfig cfg = plantConfig(s.name, i);
            const std::uint64_t d = outputDigest(core::runExperiment(cfg),
                                                 cfg.seed, cfg.duration);
            os << s.name << ' ' << i << ' ' << hex(d) << '\n';
            std::fprintf(stderr, "%s %llu %s\n", s.name,
                         static_cast<unsigned long long>(i), hex(d).c_str());
        }
    }
    std::ofstream out(path);
    out << os.str();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

namespace {

/** Rig builds behind setup_s, at least: one takes milliseconds. */
constexpr std::size_t kMinSetups = 60;

/**
 * Timed repetitions of the plant run: the end-to-end metrics. A window
 * simulates the fixed set of seed classes seed, seed + 1, ...,
 * seed + windowClasses - 1 (mod kReferenceSeeds), so the spread carries
 * an average of classes rather than one. The set is then repeated, at
 * least minReps times and as often as fits in --seconds; the wall time
 * only adds repetitions of the same days, never different days.
 *
 * Work is timed in chunks of simulated time on the simulating thread's
 * CPU clock, so time the thread spent waiting for a processor on a
 * shared host is not charged to the program. Each chunk is converted to
 * reference CPU seconds by the calibration run right after it (the
 * speed of the core it ran on), then costed at its quickest repetition:
 * interference only ever adds time, so the minimum drops a burst that
 * slowed one repetition.
 */
Outcome
measurePlant(const Args &args, const PlantShape &s)
{
    const std::string name = s.name;
    Outcome o;
    std::vector<double> setups;
    // chunkS[c][r][i]: reference CPU s of chunk i of class c, rep r.
    std::vector<std::vector<std::vector<double>>> chunkS(s.windowClasses);
    std::vector<double> runWall, speed;
    double rawCpu = 0.0;
    auto calibrated = [&](double cpu) {
        const double cal = calibrationSeconds();
        speed.push_back(kReferenceCalibrationS / cal);
        return referenceSeconds(cpu, cal);
    };
    Seconds duration = 0.0;
    const auto start = Clock::now();
    double lastSet = 0.0;
    for (std::size_t rep = 0;
         rep < s.minReps || since(start) + lastSet <= args.seconds; ++rep) {
        const auto set0 = Clock::now();
        for (std::uint64_t c = 0; c < s.windowClasses; ++c) {
            const std::uint64_t cls = args.seed + c;
            const core::ExperimentConfig cfg = plantConfig(name, cls);
            duration = cfg.duration;
            std::unique_ptr<core::ExperimentRig> rig;
            setups.push_back(calibrated(cpuTimed(
                [&] { rig = std::make_unique<core::ExperimentRig>(cfg); })));
            std::vector<double> &run = chunkS[c].emplace_back();
            const auto wall0 = Clock::now();
            for (Seconds t = s.chunk; t <= cfg.duration; t += s.chunk) {
                const double cpu = cpuTimed([&] { rig->runUntil(t); });
                rawCpu += cpu;
                run.push_back(calibrated(cpu));
            }
            runWall.push_back(since(wall0));
            const core::ExperimentResult res = rig->finish();
            ++o.attempted;
            const std::uint64_t want = referenceDigest(
                args.reference, name, cls % kReferenceSeeds);
            const std::uint64_t got =
                outputDigest(res, cfg.seed, cfg.duration);
            if (got != want)
                o.fail("class " + std::to_string(cls % kReferenceSeeds) +
                       " output digest " + hex(got) + " != reference " +
                       hex(want));
        }
        lastSet = since(set0);
    }
    const core::ExperimentConfig first = plantConfig(name, args.seed);
    while (setups.size() < kMinSetups)
        setups.push_back(calibrated(
            cpuTimed([&] { core::ExperimentRig rig(first); })));

    // A window's cost: its classes' days, each at its quickest chunks.
    double cpu = 0.0;
    for (std::uint64_t c = 0; c < s.windowClasses; ++c) {
        const auto &reps = chunkS[c];
        for (std::size_t i = 0; i < reps.front().size(); ++i) {
            double quickest = reps.front()[i];
            for (const auto &run : reps)
                quickest = std::min(quickest, run[i]);
            cpu += quickest;
        }
        std::vector<double> runCpu;
        for (const auto &run : reps) {
            double sum = 0.0;
            for (double m : run)
                sum += m;
            runCpu.push_back(sum);
        }
        printQuartiles("class " +
                           std::to_string((args.seed + c) % kReferenceSeeds) +
                           " run reference cpu s",
                       runCpu);
    }
    printQuartiles("run wall s", runWall);
    printQuartiles("host speed vs reference", speed);
    std::fprintf(stderr, "raw: %.6g simulated s per CPU s over every run\n",
                 duration * static_cast<double>(runWall.size()) / rawCpu);
    o.set("setup_s", median(setups), "s");
    o.set("sim_s_per_ref_cpu_s", s.windowClasses * duration / cpu, "s/s");
    return o;
}

/** The traced run: layer trace plus the generic probes. */
Outcome
tracePlant(const Args &args, const PlantShape &s,
           const core::ExperimentConfig &cfg, std::uint64_t want)
{
    Outcome o;
    const LayerTrace lt =
        traceSegment(Segment{cfg, 0.0, cfg.duration, s.samples});
    o.attempted = 2;
    if (lt.untracedDigest != want)
        o.fail("untraced output digest " + hex(lt.untracedDigest) +
               " != reference " + hex(want));
    if (lt.tracedDigest != lt.untracedDigest)
        o.fail("traced output digest " + hex(lt.tracedDigest) +
               " != untraced " + hex(lt.untracedDigest));
    reportLayerTrace(lt, o);

    std::uint64_t violations = 0;
    o.set("validate.check_us", checkerCostUs(cfg, s.checkSeconds, violations),
          "us");
    o.set("validate.violations", static_cast<double>(violations), "count");
    o.set("fault.injected", 0.0, "count");

    insure::dispatch::SweepSpec spec;
    spec.workload = s.video ? "video" : "seismic";
    spec.runs = 1;
    spec.masterSeed = cfg.seed;
    reportCodecs(probeCodecs(spec, 16, lt.untracedRun), o);
    reportNoFleet(lt.untracedSeconds * 1e3, o);

    insure::service::TwinServer twin(cfg);
    insure::service::WhatIfQuery q;
    q.horizonHours = 1.0 / 60.0;
    reportService(probeService(twin, q, 3, kMinute, args.seed), o);
    return o;
}

} // namespace

Outcome
runPlant(const Args &args)
{
    const PlantShape &s = shape(args.workload);
    if (!args.trace)
        return measurePlant(args, s);
    const core::ExperimentConfig cfg = plantConfig(s.name, args.seed);
    return tracePlant(args, s, cfg,
                      referenceDigest(args.reference, s.name,
                                      args.seed % kReferenceSeeds));
}

} // namespace perfbench
