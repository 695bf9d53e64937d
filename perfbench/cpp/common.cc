#include "common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ctime>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness/run_result_io.hh"
#include "snapshot/archive.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        throw std::invalid_argument("percentile of an empty sample");
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * (v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

std::array<double, 3>
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        throw std::invalid_argument("quartiles need at least two values");
    std::sort(v.begin(), v.end());
    const long n = 4;
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    std::array<double, 3> out{};
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * n;
        out[i - 1] = (v[j - 1] * static_cast<double>(n - delta) +
                      v[j] * static_cast<double>(delta)) /
                     static_cast<double>(n);
    }
    return out;
}

void
printQuartiles(const std::string &what, const std::vector<double> &v)
{
    if (v.size() < 2)
        return;
    const auto q = quartiles(v);
    std::fprintf(stderr, "%s: n=%zu quartiles %.6g / %.6g / %.6g\n",
                 what.c_str(), v.size(), q[0], q[1], q[2]);
}

std::string
resultJson(const Outcome &o)
{
    std::string s = "{\"correct\": ";
    s += o.correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(o.attempted);
    s += ", \"failed\": " + std::to_string(o.failed);
    s += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto &[name, m] : o.metrics) {
        if (!first)
            s += ", ";
        first = false;
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        s += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    s += "}}";
    return s;
}

std::uint64_t
outputDigest(const insure::core::ExperimentResult &res, std::uint64_t seed,
             double simulatedSeconds)
{
    insure::core::RunResult r;
    r.label = "perfbench";
    r.seed = seed;
    r.simulatedSeconds = simulatedSeconds;
    r.result = res;
    auto ar = insure::snapshot::Archive::forSave();
    insure::harness::saveRunResult(ar, r, seed);
    return insure::snapshot::fnv1a(ar.payload().data(), ar.payload().size());
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

namespace {

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned maxLeaf = __get_cpuid_max(0x80000000u, nullptr);
    if (maxLeaf >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char name[49] = {};
        std::memcpy(name, regs, 48);
        std::string s(name);
        const auto b = s.find_first_not_of(' ');
        const auto e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            return s.substr(b, e - b + 1);
    }
#endif
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

} // namespace

Box
box()
{
    Box b;
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    b.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
    b.cpuModel = cpuModel();
    b.compiler = PERFBENCH_COMPILER;
    b.flags = PERFBENCH_FLAGS;
    b.buildType = PERFBENCH_BUILD_TYPE;
    return b;
}

std::string
boxJson(const Box &b)
{
    return "{\"box\": {\"nproc\": " + std::to_string(b.nproc) +
           ", \"cpu_model\": \"" + jsonEscape(b.cpuModel) +
           "\", \"compiler\": \"" + jsonEscape(b.compiler) +
           "\", \"flags\": \"" + jsonEscape(b.flags) +
           "\", \"build_type\": \"" + jsonEscape(b.buildType) + "\"}}";
}

double
peakRssMb()
{
    // VmHWM is this address space's own high-water mark. ru_maxrss is not:
    // Linux carries it across execve, so under run.py it would report the
    // Python parent's peak whenever that is the larger.
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kib = -1;
        while (kib < 0 && std::fgets(line, sizeof line, f))
            std::sscanf(line, "VmHWM: %ld kB", &kib);
        std::fclose(f);
        if (kib >= 0)
            return static_cast<double>(kib) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // Linux: KiB
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/** Deterministic xorshift64 stream for the calibration's inputs. */
struct XorShift {
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

struct CalUnit {
    double soc = 0.6, volts = 48.0, amps = 0.0, ohms = 0.01;
    double energy = 0.0, watts = 100.0;
    std::uint64_t flips = 0;
    double pad[9] = {};
};

/** Volatile sink so the calibration's results are never optimized out. */
volatile double gCalibrationSink = 0.0;

} // namespace

double
calibrationSeconds()
{
    // Per thread, so campaign workers can calibrate at once; built on
    // first use, outside the timed call.
    thread_local std::vector<CalUnit> units(2048);
    thread_local std::map<std::uint64_t, double> table = [] {
        std::map<std::uint64_t, double> t;
        XorShift r;
        for (int i = 0; i < 4000; ++i)
            t[r.next() % 100000] = i;
        return t;
    }();
    thread_local std::vector<double> sorted(4000);
    return cpuTimed([&] {
        XorShift r;
        double acc = 0.0;
        for (int tick = 0; tick < 8; ++tick)
            for (CalUnit &u : units) {
                u.amps = u.watts / (u.volts + 1e-3);
                u.soc -= u.amps * 1e-6;
                if (u.soc < 0.2) {
                    u.soc += 0.5;
                    ++u.flips;
                }
                u.energy += u.volts * u.amps * 1e-3;
                u.volts = 48.0 - u.ohms * u.amps + (u.soc - 0.5);
                acc += u.energy;
            }
        for (int i = 0; i < 4000; ++i) {
            const auto it = table.lower_bound(r.next() % 100000);
            if (it != table.end())
                acc += it->second;
        }
        for (double &d : sorted)
            d = static_cast<double>(r.next() % 1000000);
        std::sort(sorted.begin(), sorted.end());
        acc += sorted[sorted.size() / 2];
        char buf[64];
        for (int i = 0; i < 1000; ++i)
            acc += std::snprintf(buf, sizeof buf, "%.6g %d",
                                 static_cast<double>(r.next() % 100000) / 7.0,
                                 i);
        gCalibrationSink = gCalibrationSink + acc;
    });
}

} // namespace perfbench
