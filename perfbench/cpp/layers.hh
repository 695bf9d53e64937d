/**
 * @file
 * Per-layer measurement for the traced run. Every probe here measures
 * a layer from outside, by timing calls into its public functions:
 *
 *  - traceSegment() steps a rig event by event, classifies each step
 *    (classify.hh), and at fixed sample ticks serializes the rig,
 *    restores it into a throwaway rig and times one call into each
 *    plant layer with that tick's inputs. The measured rig is only ever
 *    read, so its outputs must equal an untraced run's, which it also
 *    makes and compares.
 *  - checkerCostUs() is the invariant checker's per-tick cost: the same
 *    segment with the checker minus without it.
 *  - probeCodecs() times the dispatch protocol codecs on given messages.
 *  - probeService() times the twin service in process and over a
 *    loopback pair.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "core/experiment.hh"
#include "dispatch/sweep_spec.hh"
#include "service/query.hh"
#include "service/twin_server.hh"

namespace perfbench {

/** A span of simulated time of one configuration to trace. */
struct Segment {
    insure::core::ExperimentConfig cfg;
    /** The untraced clock runs to here before timing starts. */
    insure::Seconds start = 0.0;
    insure::Seconds end = 0.0;
    /** Layer-probe sample ticks spread over the segment. */
    unsigned samples = 8;
};

/** What traceSegment() measured. */
struct LayerTrace {
    /** Step wall times by kind, microseconds. */
    std::vector<double> physicsUs, telemetryUs, controlUs;
    std::uint64_t modeChanges = 0;
    /** Per-sample probe times in microseconds (or counts), by metric. */
    std::map<std::string, std::vector<double>> probes;
    /** Coordination-link Modbus exchanges during the traced segment. */
    std::uint64_t modbusFrames = 0;
    /** Wall seconds of the segment, untraced and traced (probes excluded). */
    double untracedSeconds = 0.0;
    double tracedSeconds = 0.0;
    /** Output digests of the untraced and traced runs at the segment end. */
    std::uint64_t untracedDigest = 0;
    std::uint64_t tracedDigest = 0;
    /** The untraced run's result (feeds the codec probe). */
    insure::core::RunResult untracedRun;
};

/** Trace @p seg (see the file comment). */
LayerTrace traceSegment(const Segment &seg);

/**
 * Write the core/battery/telemetry/solar/server/snapshot metrics and
 * host.trace_overhead_frac of @p t into @p o.
 */
void reportLayerTrace(const LayerTrace &t, Outcome &o);

/**
 * Invariant-checker cost per physics tick, microseconds: @p cfg run to
 * @p end with the checker attached minus without it. The checked run's
 * violation count lands in @p violations.
 */
double checkerCostUs(insure::core::ExperimentConfig cfg, insure::Seconds end,
                     std::uint64_t &violations);

/** Median per-call wall of the lease encoder and result decoder, us. */
struct CodecTimes {
    double leaseEncodeUs = 0.0;
    double resultDecodeUs = 0.0;
};

/**
 * Time encodeLease on a lease of @p spec carrying @p runs leased runs,
 * and decodeResult on @p result framed as a RESULT message.
 */
CodecTimes probeCodecs(const insure::dispatch::SweepSpec &spec,
                       std::size_t runs,
                       const insure::core::RunResult &result);

/** Write @p c as the dispatch.*_us codec metrics into @p o. */
void reportCodecs(const CodecTimes &c, Outcome &o);

/**
 * The dispatch counters of a workload that runs no fleet (all 0) and
 * harness.run_ms = @p runMs, into @p o.
 */
void reportNoFleet(double runMs, Outcome &o);

/** Twin-service probe results. */
struct ServiceTimes {
    double readHandleUs = 0.0;
    double loopbackRttUs = 0.0;
    double advanceMs = 0.0;
    double forkMs = 0.0;
    double cacheHitRate = 0.0;
    std::uint64_t forks = 0;
    /** Forks beyond the first for two concurrent asks of one query. */
    std::uint64_t duplicateForks = 0;
    /** p99 lateness of the probe's open-loop read burst, ms. */
    double lateP99Ms = 0.0;
};

/**
 * Probe @p server: handleFrame on register reads in process, closed-loop
 * round trips and a short open-loop burst over a loopback pair, @p
 * advances live advances of @p advanceStep simulated seconds, and the
 * what-if @p query asked by two clients at once (both miss today, so the
 * second is a duplicate fork) and then once more (a cache hit).
 */
ServiceTimes probeService(insure::service::TwinServer &server,
                          const insure::service::WhatIfQuery &query,
                          unsigned advances, insure::Seconds advanceStep,
                          std::uint64_t seed);

/** Write @p st as the service.* metrics and gen.late_p99_ms into @p o. */
void reportService(const ServiceTimes &st, Outcome &o);

/** A Modbus read of @p count holding registers at @p addr, framed. */
std::vector<std::uint8_t> readRequestFrame(std::uint16_t addr,
                                           std::uint16_t count);

/** Every per-layer metric name with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** Every end-to-end metric name with its unit. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
