/**
 * @file
 * Event classification for the traced run. Each EventQueue::step() is
 * timed from outside and attributed to the plant's physics, telemetry
 * or control tick by what it did: a physics tick fires the observer's
 * onTick hook, a control tick fires onControl, and a telemetry tick
 * fires neither but advances the monitor's sweep counter. Anything else
 * (fault injections, trace sampling) is "other".
 */

#ifndef PERFBENCH_CLASSIFY_HH
#define PERFBENCH_CLASSIFY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/system_observer.hh"

namespace perfbench {

enum class StepKind { Physics, Telemetry, Control, Other };

/**
 * Classify one dispatched event from the hooks it fired and how many
 * monitor sweeps it ran. A physics tick wins over the others (one event
 * never runs two ticks; the order only matters for malformed input).
 */
StepKind classifyStep(bool tickFired, bool controlFired,
                      std::uint64_t sweepsDelta);

/**
 * Observer that records which hooks fired since the last reset(), plus
 * the tick inputs the layer probes replay (the charge plan in force and
 * the last sensed view). Wraps an optional inner observer (the
 * campaign's invariant checker) and forwards every hook and the
 * snapshot state to it unchanged, so attaching it alters no output and
 * no snapshot byte.
 */
class StepClassifier : public insure::core::SystemObserver
{
  public:
    explicit StepClassifier(
        std::unique_ptr<insure::core::SystemObserver> inner = nullptr)
        : inner_(std::move(inner))
    {
    }

    void onTick(const insure::core::TickSample &s) override;
    void onControl(const insure::core::ControlSample &s) override;
    void onModeChange(unsigned cabinet, insure::battery::UnitMode from,
                      insure::battery::UnitMode to, insure::Seconds now,
                      double soc) override;
    void saveState(insure::snapshot::Archive &ar) const override;
    void loadState(insure::snapshot::Archive &ar) override;
    std::uint64_t violationCount() const override;
    std::vector<std::string> violationMessages() const override;

    /** Clear the per-step flags before dispatching the next event. */
    void
    reset()
    {
        tickFired_ = false;
        controlFired_ = false;
    }

    bool tickFired() const { return tickFired_; }
    bool controlFired() const { return controlFired_; }
    std::uint64_t modeChanges() const { return modeChanges_; }

    /** Charge plan in force during the last physics tick. */
    const insure::core::ChargePlan &chargePlan() const { return plan_; }

    /** Sensed view of the last control tick (absent before the first). */
    const std::optional<insure::core::SystemView> &lastView() const
    {
        return view_;
    }

  private:
    std::unique_ptr<insure::core::SystemObserver> inner_;
    bool tickFired_ = false;
    bool controlFired_ = false;
    std::uint64_t modeChanges_ = 0;
    insure::core::ChargePlan plan_;
    std::optional<insure::core::SystemView> view_;
};

} // namespace perfbench

#endif // PERFBENCH_CLASSIFY_HH
