/**
 * @file
 * Unit tests for the benchmark's own logic: the percentile and quartile
 * helpers, the CPU clock, open-loop lateness accounting, the reference
 * check and the event classification of the traced run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "classify.hh"
#include "common.hh"
#include "open_loop.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** A small plant: the paper-scale seismic station for ten minutes. */
insure::core::ExperimentConfig
smallPlant()
{
    insure::core::ExperimentConfig cfg = insure::core::seismicExperiment();
    cfg.duration = 600.0;
    return cfg;
}

} // namespace

TEST(Stats, PercentileInterpolatesBetweenRanks)
{
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 1.0), 4.0);
    std::vector<double> v;
    for (int i = 1; i <= 101; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 0.99), 100.0);
    EXPECT_DOUBLE_EQ(median({7}), 7.0);
    EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles)
{
    // Reference values from Python's statistics.quantiles(v, n=4).
    const auto a = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(a[0], 2.75);
    EXPECT_DOUBLE_EQ(a[1], 5.5);
    EXPECT_DOUBLE_EQ(a[2], 8.25);
    const auto b = quartiles({1, 2});
    EXPECT_DOUBLE_EQ(b[0], 0.75);
    EXPECT_DOUBLE_EQ(b[1], 1.5);
    EXPECT_DOUBLE_EQ(b[2], 2.25);
    const auto c = quartiles({5, 1, 3});
    EXPECT_DOUBLE_EQ(c[0], 1.0);
    EXPECT_DOUBLE_EQ(c[1], 3.0);
    EXPECT_DOUBLE_EQ(c[2], 5.0);
    EXPECT_THROW(quartiles({1}), std::invalid_argument);
}

TEST(Clock, ThreadCpuCountsWorkButNotBlockedTime)
{
    // The end-to-end times are CPU times: a thread that sleeps (or waits
    // for a processor) is not charged, one that works is, and never for
    // more than the wall time it took.
    const double slept = cpuTimed(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); });
    EXPECT_LT(slept, 0.01);
    volatile double sink = 0.0;
    const auto t0 = Clock::now();
    const double busy = cpuTimed([&] {
        for (int i = 0; i < 20000000; ++i)
            sink = sink + 1.0;
    });
    EXPECT_GT(busy, 0.0);
    EXPECT_LE(busy, since(t0) + 1e-3);
}

TEST(OpenLoop, PoissonArrivalsAreSeededIncreasingAndInWindow)
{
    auto arrivals = [](std::uint64_t seed) {
        insure::Rng rng(seed);
        return poissonArrivals(100.0, 2.0, rng);
    };
    const auto a = arrivals(7);
    EXPECT_EQ(a, arrivals(7));
    EXPECT_NE(a, arrivals(8));
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i], a[i - 1]);
    EXPECT_LT(a.back(), 2.0);
    // A 100/s process yields ~200 arrivals in 2 s (sd ~14).
    EXPECT_NEAR(static_cast<double>(a.size()), 200.0, 60.0);
}

TEST(OpenLoop, BlockedSendMakesLaterRequestsLate)
{
    // Ten requests due 2 ms apart; the send of request 2 blocks for
    // 60 ms, as a stalled server's full socket would.
    std::vector<double> due;
    for (int i = 0; i < 10; ++i)
        due.push_back(0.002 * i);
    const auto late = runOpenLoop(due, [](std::size_t i) {
        if (i == 2)
            std::this_thread::sleep_for(std::chrono::milliseconds(60));
    });
    ASSERT_EQ(late.size(), due.size());
    EXPECT_LT(late[1], 0.02);
    EXPECT_LT(late[2], 0.02);
    // Request 3 was due 2 ms after request 2 but waited out the stall.
    EXPECT_GT(late[3], 0.05);
    EXPECT_GT(late[9], 0.04);
}

TEST(Reference, DigestIsStableAndRejectsPerturbedOutput)
{
    const auto cfg = smallPlant();
    const auto res = insure::core::runExperiment(cfg);
    const std::uint64_t d = outputDigest(res, cfg.seed, cfg.duration);
    EXPECT_EQ(d, outputDigest(insure::core::runExperiment(cfg), cfg.seed,
                              cfg.duration));

    auto perturbed = res;
    perturbed.metrics.uptime =
        std::nextafter(perturbed.metrics.uptime, 2.0);
    EXPECT_NE(outputDigest(perturbed, cfg.seed, cfg.duration), d);
    auto logPerturbed = res;
    logPerturbed.log.powerCtrlTimes += 1;
    EXPECT_NE(outputDigest(logPerturbed, cfg.seed, cfg.duration), d);
}

TEST(Reference, LookupFindsRecordedEntryAndFailsLoudOtherwise)
{
    const std::string path = "perfbench_test_reference.txt";
    {
        std::ofstream out(path);
        out << "# comment\nplant_1k_day 3 00000000000000ff\n"
               "plant_10k_night 3 0000000000000abc\n";
    }
    EXPECT_EQ(referenceDigest(path, "plant_1k_day", 3), 0xffu);
    EXPECT_EQ(referenceDigest(path, "plant_10k_night", 3), 0xabcu);
    EXPECT_THROW(referenceDigest(path, "plant_1k_day", 4),
                 std::runtime_error);
    EXPECT_THROW(referenceDigest("no-such-file.txt", "plant_1k_day", 3),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(Reference, PlantSeedsCycleThroughRecordedClasses)
{
    EXPECT_EQ(plantSeed(0), plantSeed(kReferenceSeeds));
    EXPECT_NE(plantSeed(0), plantSeed(1));
    EXPECT_EQ(plantConfig("plant_1k_day", 5).system.cabinetCount, 500u);
    EXPECT_EQ(plantConfig("plant_10k_night", 5).system.cabinetCount, 5000u);
    EXPECT_THROW(plantConfig("nope", 0), std::invalid_argument);
}

TEST(Classify, HooksDecideTheKind)
{
    EXPECT_EQ(classifyStep(true, false, 0), StepKind::Physics);
    EXPECT_EQ(classifyStep(false, true, 0), StepKind::Control);
    EXPECT_EQ(classifyStep(false, false, 1), StepKind::Telemetry);
    EXPECT_EQ(classifyStep(false, false, 0), StepKind::Other);
    EXPECT_EQ(classifyStep(true, true, 1), StepKind::Physics);
}

TEST(Classify, SteppedRigSplitsIntoTheThreeTicks)
{
    // Ten simulated minutes: 600 physics (1 s), 120 telemetry (5 s) and
    // 10 control (60 s) ticks, and nothing else.
    auto cfg = smallPlant();
    StepClassifier *cls = nullptr;
    cfg.observerFactory = [&cls] {
        auto c = std::make_unique<StepClassifier>();
        cls = c.get();
        return std::unique_ptr<insure::core::SystemObserver>(std::move(c));
    };
    insure::core::ExperimentRig rig(cfg);
    rig.runUntil(0.0);
    auto &eq = rig.simulation().events();
    int counts[4] = {};
    while (eq.now() < cfg.duration) {
        cls->reset();
        const auto sweeps = rig.plant().monitor().sweeps();
        ASSERT_TRUE(eq.step());
        ++counts[static_cast<int>(classifyStep(
            cls->tickFired(), cls->controlFired(),
            rig.plant().monitor().sweeps() - sweeps))];
    }
    rig.runUntil(cfg.duration);
    // The loop stops at the physics tick that reaches the end; the
    // telemetry and control ticks due at that instant run in runUntil.
    EXPECT_EQ(counts[static_cast<int>(StepKind::Physics)], 600);
    EXPECT_EQ(counts[static_cast<int>(StepKind::Telemetry)], 119);
    EXPECT_EQ(counts[static_cast<int>(StepKind::Control)], 9);
    EXPECT_EQ(counts[static_cast<int>(StepKind::Other)], 0);
    ASSERT_TRUE(cls->lastView().has_value());

    // Stepping event by event with the classifier attached leaves the
    // outputs identical to a plain run.
    auto plain = smallPlant();
    EXPECT_EQ(outputDigest(rig.finish(), cfg.seed, cfg.duration),
              outputDigest(insure::core::runExperiment(plain), plain.seed,
                           plain.duration));
}
