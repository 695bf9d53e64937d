#include "layers.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "classify.hh"
#include "dispatch/protocol.hh"
#include "fault/campaign.hh"
#include "open_loop.hh"
#include "service/framing.hh"
#include "service/transport.hh"
#include "snapshot/snapshotter.hh"
#include "telemetry/modbus.hh"
#include "telemetry/register_map.hh"
#include "validate/invariant_checker.hh"

namespace perfbench {

using insure::Seconds;
namespace core = insure::core;
namespace service = insure::service;

StepKind
classifyStep(bool tickFired, bool controlFired, std::uint64_t sweepsDelta)
{
    if (tickFired)
        return StepKind::Physics;
    if (controlFired)
        return StepKind::Control;
    if (sweepsDelta > 0)
        return StepKind::Telemetry;
    return StepKind::Other;
}

void
StepClassifier::onTick(const core::TickSample &s)
{
    tickFired_ = true;
    if (s.chargePlan && (s.chargePlan->cabinets != plan_.cabinets ||
                         s.chargePlan->splitEvenly != plan_.splitEvenly))
        plan_ = *s.chargePlan;
    if (inner_)
        inner_->onTick(s);
}

void
StepClassifier::onControl(const core::ControlSample &s)
{
    controlFired_ = true;
    if (s.view)
        view_ = *s.view;
    if (inner_)
        inner_->onControl(s);
}

void
StepClassifier::onModeChange(unsigned cabinet, insure::battery::UnitMode from,
                             insure::battery::UnitMode to, Seconds now,
                             double soc)
{
    ++modeChanges_;
    if (inner_)
        inner_->onModeChange(cabinet, from, to, now, soc);
}

void
StepClassifier::saveState(insure::snapshot::Archive &ar) const
{
    if (inner_)
        inner_->saveState(ar);
}

void
StepClassifier::loadState(insure::snapshot::Archive &ar)
{
    if (inner_)
        inner_->loadState(ar);
}

std::uint64_t
StepClassifier::violationCount() const
{
    return inner_ ? inner_->violationCount() : 0;
}

std::vector<std::string>
StepClassifier::violationMessages() const
{
    return inner_ ? inner_->violationMessages()
                  : std::vector<std::string>{};
}

namespace {

using ObserverFactory =
    std::function<std::unique_ptr<core::SystemObserver>()>;

/** Wall microseconds of @p fn. */
template <typename Fn>
double
us(Fn &&fn)
{
    return timed(std::forward<Fn>(fn)) * 1e6;
}

/** A config whose observer is a StepClassifier around @p inner. */
core::ExperimentConfig
classifiedConfig(core::ExperimentConfig cfg, const ObserverFactory &inner,
                 StepClassifier **out)
{
    cfg.observer = nullptr;
    cfg.observerFactory = [inner, out]() {
        auto c = std::make_unique<StepClassifier>(inner ? inner()
                                                        : nullptr);
        if (out)
            *out = c.get();
        return std::unique_ptr<core::SystemObserver>(std::move(c));
    };
    return cfg;
}

/**
 * Replay the next physics tick's layer calls on a rig restored from the
 * traced run at this sample, then one telemetry sweep, one link read
 * and one control decision, timing each call.
 */
void
probeTick(core::ExperimentRig &p, const StepClassifier &cls,
          std::map<std::string, std::vector<double>> &probes)
{
    core::InSituSystem &plant = p.plant();
    insure::battery::BatteryArray &array = plant.array();
    const core::SystemConfig &sc = plant.config();
    const Seconds dt = sc.physicsTick;
    const Seconds now = p.simulation().now() + dt;
    volatile double sink = 0.0;

    probes["solar.step_us"].push_back(
        us([&] { plant.solarSource().step(now, dt); }));
    const double pg = plant.solarSource().availablePower();
    const double pl = plant.cluster().power();
    const double direct = std::min(pg, pl);
    const double deficit = pl - direct;

    array.beginTick();
    probes["battery.max_discharge_power_us"].push_back(us([&] {
        if (sc.fastSwitching && deficit > 0.0)
            sink = array.maxDischargePower(dt);
    }));
    insure::battery::ArrayDischargeResult dr;
    probes["battery.discharge_us"].push_back(
        us([&] { array.discharge(deficit, dt, dr); }));
    double discharging = 0.0;
    for (double a : dr.cabinetCurrents)
        discharging += a > 0.0 ? 1.0 : 0.0;
    probes["battery.discharging_units"].push_back(discharging *
                                                  sc.seriesCount);

    // The charge phase of the tick, as InSituSystem::physicsTick runs it.
    const core::ChargePlan &plan = cls.chargePlan();
    double surplus = std::max(0.0, pg - direct);
    double charged = 0.0;
    probes["battery.charge_us"].push_back(us([&] {
        if (surplus <= 0.0 || plan.cabinets.empty())
            return;
        if (plan.splitEvenly) {
            const double each = surplus / plan.cabinets.size();
            for (unsigned idx : plan.cabinets) {
                array.chargeCabinet(idx, each, dt, sc.busCoupledCharging);
                charged += 1.0;
            }
        } else {
            for (unsigned idx : plan.cabinets) {
                if (surplus <= 1.0)
                    break;
                const auto r = array.chargeCabinet(idx, surplus, dt,
                                                   sc.busCoupledCharging);
                surplus -= r.consumedPower;
                charged += 1.0;
            }
        }
    }));
    probes["battery.charging_cabinets"].push_back(charged);
    probes["battery.end_tick_us"].push_back(
        us([&] { array.endTick(dt); }));
    probes["server.cluster_step_us"].push_back(
        us([&] { plant.cluster().step(dt); }));
    probes["server.active_vms"].push_back(plant.cluster().activeVms());
    probes["battery.stored_energy_us"].push_back(
        us([&] { sink = array.storedEnergyWh(); }));
    // What the attached observer itself costs a physics tick (two
    // inventory sums and two exogenous sums), so the unattributed share
    // is not inflated by the tracing.
    probes["observer_us"].push_back(us([&] {
        sink = array.totalUnitAh() + array.totalUnitAh() +
               array.totalExogenousAh() + array.totalExogenousAh();
    }));

    if (dr.cabinetCurrents.size() != array.cabinetCount())
        dr.cabinetCurrents.assign(array.cabinetCount(), 0.0);
    probes["telemetry.sample_us"].push_back(
        us([&] { plant.monitor().sample(now, dr.cabinetCurrents); }));
    probes["telemetry.link_read_us"].push_back(
        us([&] { plant.link().readAll(array.cabinetCount()); }));
    if (cls.lastView())
        probes["core.decide_us"].push_back(
            us([&] { plant.manager().control(*cls.lastView()); }));
    (void)sink;
}

} // namespace

LayerTrace
traceSegment(const Segment &seg)
{
    LayerTrace t;
    const ObserverFactory inner = seg.cfg.observerFactory;

    {
        core::ExperimentRig u(seg.cfg);
        u.runUntil(seg.start);
        t.untracedSeconds = timed([&] { u.runUntil(seg.end); });
        const core::ExperimentResult res = u.finish();
        t.untracedDigest = outputDigest(res, seg.cfg.seed, seg.end);
        t.untracedRun.label = "perfbench";
        t.untracedRun.seed = seg.cfg.seed;
        t.untracedRun.simulatedSeconds = seg.end;
        t.untracedRun.wallSeconds = t.untracedSeconds;
        t.untracedRun.result = res;
    }

    StepClassifier *cls = nullptr;
    const core::ExperimentConfig tracedCfg =
        classifiedConfig(seg.cfg, inner, &cls);
    const core::ExperimentConfig probeCfg =
        classifiedConfig(seg.cfg, inner, nullptr);
    core::ExperimentRig rig(tracedCfg);
    rig.runUntil(seg.start);
    auto &eq = rig.simulation().events();
    auto &monitor = rig.plant().monitor();
    const std::uint64_t framesBefore = rig.plant().link().requests();
    const unsigned samples = std::max(1u, seg.samples);
    const Seconds interval = (seg.end - seg.start) / samples;
    Seconds nextSample = seg.start + interval / 2.0;
    double probeSeconds = 0.0;

    const auto t0 = Clock::now();
    while (eq.now() < seg.end) {
        cls->reset();
        const std::uint64_t sweeps = monitor.sweeps();
        const auto s0 = Clock::now();
        if (!eq.step())
            break;
        const double stepUs = since(s0) * 1e6;
        switch (classifyStep(cls->tickFired(), cls->controlFired(),
                             monitor.sweeps() - sweeps)) {
        case StepKind::Physics:
            t.physicsUs.push_back(stepUs);
            break;
        case StepKind::Telemetry:
            t.telemetryUs.push_back(stepUs);
            break;
        case StepKind::Control:
            t.controlUs.push_back(stepUs);
            if (eq.now() >= nextSample && eq.now() < seg.end) {
                nextSample += interval;
                const auto p0 = Clock::now();
                std::string payload;
                t.probes["snapshot.serialize_ms"].push_back(
                    timed([&] {
                        payload = insure::snapshot::serializeRigState(rig);
                    }) *
                    1e3);
                t.probes["snapshot.bytes"].push_back(
                    static_cast<double>(payload.size()));
                core::ExperimentRig probe(probeCfg);
                t.probes["snapshot.restore_ms"].push_back(
                    timed([&] {
                        insure::snapshot::restoreRigState(probe, payload);
                    }) *
                    1e3);
                // Two real ticks on the throwaway rig warm its caches and
                // scratch buffers, so the probes time steady-state calls
                // (the charge plan and sensed view are still the ones in
                // force: the next control tick is a minute away).
                probe.runUntil(probe.simulation().now() +
                               2.0 * seg.cfg.system.physicsTick);
                probeTick(probe, *cls, t.probes);
                probeSeconds += since(p0);
            }
            break;
        case StepKind::Other: // fault injections, trace sampling
            break;
        }
    }
    rig.runUntil(seg.end);
    t.tracedSeconds = since(t0) - probeSeconds;
    t.modeChanges = cls->modeChanges();
    t.modbusFrames = rig.plant().link().requests() - framesBefore;
    t.tracedDigest = outputDigest(rig.finish(), seg.cfg.seed, seg.end);
    return t;
}

void
reportLayerTrace(const LayerTrace &t, Outcome &o)
{
    auto probeMean = [&](const std::string &name) {
        const auto it = t.probes.find(name);
        return it == t.probes.end() ? 0.0 : mean(it->second);
    };
    const double physics = mean(t.physicsUs);
    o.set("core.physics_tick_us", physics, "us");
    o.set("core.physics_ticks", static_cast<double>(t.physicsUs.size()),
          "count");
    o.set("core.telemetry_tick_us", mean(t.telemetryUs), "us");
    o.set("core.telemetry_ticks", static_cast<double>(t.telemetryUs.size()),
          "count");
    o.set("core.control_tick_us", mean(t.controlUs), "us");
    o.set("core.control_ticks", static_cast<double>(t.controlUs.size()),
          "count");
    o.set("core.decide_us", probeMean("core.decide_us"), "us");
    o.set("core.mode_changes", static_cast<double>(t.modeChanges), "count");

    static const char *const kPhysicsProbes[] = {
        "solar.step_us",         "battery.max_discharge_power_us",
        "battery.discharge_us",  "battery.charge_us",
        "battery.end_tick_us",   "server.cluster_step_us",
        "battery.stored_energy_us", "observer_us"};
    double attributed = 0.0;
    for (const char *name : kPhysicsProbes)
        attributed += probeMean(name);
    // Not clamped: a negative share means the single probe calls cost
    // more than their share of an in-loop tick (colder caches).
    o.set("core.unattributed_frac",
          physics > 0.0 ? 1.0 - attributed / physics : 0.0, "ratio");

    for (const char *name :
         {"battery.discharge_us", "battery.max_discharge_power_us",
          "battery.charge_us", "battery.end_tick_us",
          "battery.stored_energy_us", "telemetry.sample_us",
          "telemetry.link_read_us", "solar.step_us",
          "server.cluster_step_us"})
        o.set(name, probeMean(name), "us");
    o.set("battery.discharging_units",
          probeMean("battery.discharging_units"), "count");
    o.set("battery.charging_cabinets",
          probeMean("battery.charging_cabinets"), "count");
    o.set("server.active_vms", probeMean("server.active_vms"), "count");
    o.set("telemetry.modbus_frames", static_cast<double>(t.modbusFrames),
          "count");
    o.set("snapshot.serialize_ms", probeMean("snapshot.serialize_ms"), "ms");
    o.set("snapshot.restore_ms", probeMean("snapshot.restore_ms"), "ms");
    o.set("snapshot.bytes", probeMean("snapshot.bytes"), "bytes");
    o.set("host.trace_overhead_frac",
          t.untracedSeconds > 0.0
              ? t.tracedSeconds / t.untracedSeconds - 1.0
              : 0.0,
          "ratio");
}

double
checkerCostUs(core::ExperimentConfig cfg, Seconds end,
              std::uint64_t &violations)
{
    cfg.duration = end;
    cfg.observer = nullptr;
    cfg.observerFactory = nullptr;
    core::ExperimentConfig checked = cfg;
    insure::validate::attachInvariantChecker(checked);

    core::ExperimentResult res;
    const double plain = timed([&] { core::runExperiment(cfg); });
    const double withChecker =
        timed([&] { res = core::runExperiment(checked); });
    violations = res.invariantViolations;
    const double ticks = end / cfg.system.physicsTick;
    return ticks > 0.0 ? (withChecker - plain) / ticks * 1e6 : 0.0;
}

CodecTimes
probeCodecs(const insure::dispatch::SweepSpec &spec, std::size_t runs,
            const core::RunResult &result)
{
    namespace dispatch = insure::dispatch;
    dispatch::LeaseMsg lease;
    lease.spec = spec;
    for (std::size_t i = 0; i < runs; ++i)
        lease.runs.push_back({i, spec.masterSeed + i});
    dispatch::ResultMsg msg;
    msg.index = 0;
    msg.leaseSeed = result.seed;
    msg.result = result;
    // RESULT frames carry the campaign's run identity, checked on decode.
    msg.result.label = insure::fault::campaignRunLabel(msg.index);
    const std::vector<std::uint8_t> framed = dispatch::encodeResult(msg);
    service::FrameDecoder dec;
    dec.feed(framed);
    const service::Frame frame = *dec.next();

    const int reps = 200;
    std::vector<double> enc, decs;
    std::size_t bytes = 0;
    for (int i = 0; i < reps; ++i) {
        enc.push_back(us([&] { bytes += dispatch::encodeLease(lease).size(); }));
        decs.push_back(us([&] {
            bytes += dispatch::decodeResult(frame).result.label.size();
        }));
    }
    return {median(enc), median(decs)};
}

void
reportCodecs(const CodecTimes &c, Outcome &o)
{
    o.set("dispatch.lease_encode_us", c.leaseEncodeUs, "us");
    o.set("dispatch.result_decode_us", c.resultDecodeUs, "us");
}

void
reportNoFleet(double runMs, Outcome &o)
{
    o.set("dispatch.idle_frac", 0.0, "ratio");
    o.set("dispatch.frames", 0.0, "count");
    o.set("dispatch.requeued_runs", 0.0, "count");
    o.set("harness.run_ms", runMs, "ms");
}

void
reportService(const ServiceTimes &st, Outcome &o)
{
    o.set("service.read_handle_us", st.readHandleUs, "us");
    o.set("service.loopback_rtt_us", st.loopbackRttUs, "us");
    o.set("service.advance_ms", st.advanceMs, "ms");
    o.set("service.cache_hit_rate", st.cacheHitRate, "ratio");
    o.set("service.forks", static_cast<double>(st.forks), "count");
    o.set("service.fork_ms", st.forkMs, "ms");
    o.set("service.duplicate_forks", static_cast<double>(st.duplicateForks),
          "count");
    o.set("gen.late_p99_ms", st.lateP99Ms, "ms");
}

std::vector<std::uint8_t>
readRequestFrame(std::uint16_t addr, std::uint16_t count)
{
    return service::encodeFrame(
        service::FrameType::ModbusAdu,
        insure::telemetry::modbus::encodeReadRequest(1, addr, count));
}

ServiceTimes
probeService(service::TwinServer &server, const service::WhatIfQuery &query,
             unsigned advances, Seconds advanceStep, std::uint64_t seed)
{
    ServiceTimes st;
    const std::uint16_t count = insure::telemetry::RegisterLayout::perCabinet;
    const std::uint16_t addr = insure::telemetry::RegisterLayout::cabinetBase;
    const std::vector<std::uint8_t> req = readRequestFrame(addr, count);
    service::FrameDecoder dec;
    dec.feed(req);
    const service::Frame reqFrame = *dec.next();

    std::vector<double> handle;
    for (int i = 0; i < 500; ++i)
        handle.push_back(us([&] { server.handleFrame(reqFrame); }));
    st.readHandleUs = median(handle);

    // Closed-loop round trips, then an open-loop burst, on one session.
    auto pair = service::makeLoopbackPair();
    service::ByteStream *client = pair.first.get();
    service::ByteStream *end = pair.second.get();
    std::thread session([&server, end] { server.serveStream(*end); });
    service::FrameDecoder replies;
    auto await = [&]() -> bool {
        std::uint8_t buf[512];
        while (true) {
            if (replies.next())
                return true;
            const std::size_t n = client->receive(buf, sizeof buf);
            if (n == 0)
                return false;
            replies.feed(buf, n);
        }
    };
    std::vector<double> rtt;
    for (int i = 0; i < 500; ++i) {
        const auto t0 = Clock::now();
        client->send(req);
        if (!await())
            break;
        rtt.push_back(since(t0) * 1e6);
    }
    st.loopbackRttUs = rtt.empty() ? 0.0 : median(rtt);

    insure::Rng rng(seed);
    const std::vector<double> due = poissonArrivals(4000.0, 0.1, rng);
    std::thread receiver([&] {
        for (std::size_t i = 0; i < due.size(); ++i)
            if (!await())
                break;
    });
    const std::vector<double> late =
        runOpenLoop(due, [&](std::size_t) { client->send(req); });
    receiver.join();
    client->close();
    session.join();
    st.lateP99Ms = percentile(late, 0.99) * 1e3;

    std::vector<double> adv;
    for (unsigned i = 0; i < advances; ++i) {
        const Seconds target = server.now() + advanceStep;
        adv.push_back(timed([&] { server.advance(target); }) * 1e3);
    }
    st.advanceMs = adv.empty() ? 0.0 : median(adv);

    const auto before = server.stats();
    const std::vector<std::uint8_t> q =
        service::encodeFrame(service::FrameType::WhatIfQuery, query.encode());
    service::FrameDecoder qd;
    qd.feed(q);
    const service::Frame qFrame = *qd.next();
    // Two clients ask the same what-if at once (one distinct key, so
    // every miss past the first is a duplicate fork), then once more.
    std::atomic<bool> go{false};
    double concurrentMs[2] = {};
    std::vector<std::thread> askers;
    for (double &ms : concurrentMs)
        askers.emplace_back([&server, &qFrame, &go, &ms] {
            while (!go.load()) {
            }
            ms = timed([&] { server.handleFrame(qFrame); }) * 1e3;
        });
    go = true;
    for (std::thread &t : askers)
        t.join();
    server.handleFrame(qFrame);
    st.forkMs = std::max(concurrentMs[0], concurrentMs[1]);
    const auto after = server.stats();
    const double asked = static_cast<double>(after.whatIfQueries -
                                             before.whatIfQueries);
    st.forks = after.cacheMisses - before.cacheMisses;
    st.duplicateForks = st.forks > 0 ? st.forks - 1 : 0;
    st.cacheHitRate =
        asked > 0.0 ? (after.cacheHits - before.cacheHits) / asked : 0.0;
    return st;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"core.physics_tick_us", "us"},
        {"core.physics_ticks", "count"},
        {"core.telemetry_tick_us", "us"},
        {"core.telemetry_ticks", "count"},
        {"core.control_tick_us", "us"},
        {"core.control_ticks", "count"},
        {"core.decide_us", "us"},
        {"core.mode_changes", "count"},
        {"core.unattributed_frac", "ratio"},
        {"battery.discharge_us", "us"},
        {"battery.max_discharge_power_us", "us"},
        {"battery.discharging_units", "count"},
        {"battery.charge_us", "us"},
        {"battery.charging_cabinets", "count"},
        {"battery.end_tick_us", "us"},
        {"battery.stored_energy_us", "us"},
        {"telemetry.sample_us", "us"},
        {"telemetry.link_read_us", "us"},
        {"telemetry.modbus_frames", "count"},
        {"solar.step_us", "us"},
        {"server.cluster_step_us", "us"},
        {"server.active_vms", "count"},
        {"validate.check_us", "us"},
        {"validate.violations", "count"},
        {"fault.injected", "count"},
        {"dispatch.lease_encode_us", "us"},
        {"dispatch.result_decode_us", "us"},
        {"dispatch.idle_frac", "ratio"},
        {"dispatch.frames", "count"},
        {"dispatch.requeued_runs", "count"},
        {"harness.run_ms", "ms"},
        {"service.read_handle_us", "us"},
        {"service.loopback_rtt_us", "us"},
        {"service.advance_ms", "ms"},
        {"service.cache_hit_rate", "ratio"},
        {"service.forks", "count"},
        {"service.fork_ms", "ms"},
        {"service.duplicate_forks", "count"},
        {"snapshot.serialize_ms", "ms"},
        {"snapshot.restore_ms", "ms"},
        {"snapshot.bytes", "bytes"},
        {"gen.late_p99_ms", "ms"},
        {"host.cpu_s", "s"},
        {"host.trace_overhead_frac", "ratio"},
        {"error_rate", "ratio"},
    };
    return k;
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> k = {
        {"setup_s", "s"},
        {"sim_s_per_ref_cpu_s", "s/s"},
        {"peak_rss_mb", "MB"},
    };
    return k;
}

} // namespace perfbench
