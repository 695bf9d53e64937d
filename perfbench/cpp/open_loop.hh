/**
 * @file
 * Open-loop load generation. Requests are due on a seeded Poisson
 * schedule fixed before the run; the sender sends each one when it is
 * due whether or not earlier replies have come back, and every latency
 * is measured from the request's due time, so a stall that delays the
 * sender or the server is charged to every request it delays. The
 * sender's own lateness (send time minus due time) is reported too.
 */

#ifndef PERFBENCH_OPEN_LOOP_HH
#define PERFBENCH_OPEN_LOOP_HH

#include <cstdint>
#include <thread>
#include <vector>

#include "common.hh"
#include "sim/rng.hh"

namespace perfbench {

/**
 * Due times (seconds from the start) of the requests of a Poisson
 * process of @p ratePerSecond that arrive within [0, @p window), drawn
 * from @p rng.
 */
inline std::vector<double>
poissonArrivals(double ratePerSecond, double window, insure::Rng &rng)
{
    std::vector<double> due;
    double t = rng.exponential(ratePerSecond);
    while (t < window) {
        due.push_back(t);
        t += rng.exponential(ratePerSecond);
    }
    return due;
}

/**
 * Send request i at @p start + due[i] by calling @p send(i), sleeping
 * until each is due. Returns each request's lateness in seconds (how
 * long after its due time the send began). A send that blocks delays
 * every later request, and the lateness shows it.
 */
inline constexpr auto kSpin = std::chrono::microseconds(300);

template <typename Send>
std::vector<double>
runOpenLoop(const std::vector<double> &due, Send &&send,
            Clock::time_point start = Clock::now())
{
    std::vector<double> late;
    late.reserve(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
        const auto at =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[i]));
        // Sleep to just short of the due time, then spin: a sleeping
        // thread can wake milliseconds late, which would be charged to
        // the system under test.
        std::this_thread::sleep_until(at - kSpin);
        while (Clock::now() < at) {
        }
        late.push_back(std::max(0.0, since(at)));
        send(i);
    }
    return late;
}

} // namespace perfbench

#endif // PERFBENCH_OPEN_LOOP_HH
