/**
 * @file
 * Execution throughput: instructions per second of the simulated
 * processor (cached operand-specialized handler pointers, chained
 * trace-tier superblocks, translation-time block IDs), with exact
 * and with sampled profile counters. Every configuration runs warm:
 * an adaptive first pass
 * promotes the hot functions to -O2+traces, then the timed runs
 * execute from the same code cache with profiling left on — the
 * whole point of making profiling cheap is never switching it off.
 * Every column reports the median and the min/max IPS over repeated
 * timed trials.
 *
 * The reference interpreter (itself computed-goto threaded) is
 * timed alongside for scale. Results land in BENCH_throughput.json
 * so CI can archive and diff them.
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"
#include "llee/llee.h"

using namespace llva;
using namespace llva::bench;

namespace {

CodeGenOptions
adaptiveOpts()
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    opts.adaptive = true;
    opts.promoteWatermark = 500;
    return opts;
}

/** Min, median and max of per-trial IPS. */
struct Spread
{
    double min = 0, median = 0, max = 0;
};

Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    double median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
    return {v.front(), median, v.back()};
}

struct Measured
{
    Spread ips;            ///< instructions / second, per trial
    uint64_t value = 0;    ///< program checksum (divergence check)
    std::string output;    ///< captured output (divergence check)
    size_t promotions = 0;
    size_t chained = 0;    ///< chained functions after the runs
};

/** Each trial times warm runs of the program until it has
 *  kTrialSeconds of them (single runs take a few ms, too short to
 *  time alone on a shared host); every column reports the spread
 *  over kTrials trials. */
constexpr double kTrialSeconds = 0.05;
constexpr int kTrials = 5;

/** IPS of kTrials trials of \p runOnce, which returns (instructions
 *  executed, seconds timed) for one run. */
template <typename Run>
Spread
timeTrials(Run runOnce)
{
    std::vector<double> ips;
    for (int trial = 0; trial < kTrials; ++trial) {
        double instrs = 0, secs = 0;
        while (secs < kTrialSeconds) {
            auto [n, s] = runOnce();
            instrs += double(n);
            secs += s;
        }
        ips.push_back(instrs / secs);
    }
    return spreadOf(std::move(ips));
}

Measured
measureSim(Module &m, Target &target, uint64_t sampleInterval = 1)
{
    CodeManager cm(target, adaptiveOpts());
    EdgeProfile profile;
    cm.setAdaptive(&profile, adaptiveOpts().promoteWatermark);

    Measured out;
    // Warm pass: profile, promote, translate — none of it timed.
    {
        ExecutionContext ctx(m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        auto r = sim.run(m.getFunction("main"));
        if (!r.ok())
            fatal("throughput warmup trapped: %s",
                  trapKindName(r.trap));
        out.value = r.value.i;
        out.output = ctx.output();
    }
    // Timed trials from the warm cache, profiling still on. Context
    // setup stays outside the timer.
    out.ips = timeTrials([&] {
        ExecutionContext ctx(m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        sim.setProfileSampleInterval(sampleInterval);
        Timer t;
        auto r = sim.run(m.getFunction("main"));
        double secs = t.seconds();
        if (!r.ok() || r.value.i != out.value)
            fatal("throughput divergence across runs");
        return std::pair{sim.instructionsExecuted(), secs};
    });
    out.promotions = cm.promotions();
    out.chained = cm.chainedFunctions();
    return out;
}

Measured
measureInterp(Module &m)
{
    Measured out;
    out.ips = timeTrials([&] {
        ExecutionContext ctx(m);
        Interpreter interp(ctx);
        Timer t;
        auto r = interp.run(m.getFunction("main"));
        double secs = t.seconds();
        if (!r.ok())
            fatal("interpreter trapped in throughput bench");
        out.value = r.value.i;
        out.output = ctx.output();
        return std::pair{r.instructionsExecuted, secs};
    });
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("Execution throughput: direct-threaded + chained "
                "superblocks (warm -O2+traces, profiling on)\n");
    hr('=');
    std::printf("%-18s %11s %11s %11s %15s %7s\n", "Program",
                "interp(M/s)", "thread(M/s)", "+smpl(M/s)",
                "+smpl min-max", "chains");
    hr();

    // The always-on profile can also be sampled (every Nth event,
    // weight N — totals stay in execution units, so the promotion
    // watermark needs no rescaling).
    constexpr uint64_t kSampleInterval = 32;

    Target &target = *getTarget("x86");
    JsonReport report("throughput");
    for (const auto &info : allWorkloads()) {
        auto m = prepared(info);

        Measured in = measureInterp(*m);
        Measured th = measureSim(*m, target);
        Measured ts = measureSim(*m, target, kSampleInterval);
        if (th.value != in.value || th.output != in.output ||
            ts.value != in.value || ts.output != in.output)
            fatal("simulator diverges from the interpreter in %s",
                  info.name.c_str());

        char range[32];
        std::snprintf(range, sizeof range, "%.1f-%.1f",
                      ts.ips.min / 1e6, ts.ips.max / 1e6);
        std::printf("%-18s %11.2f %11.2f %11.2f %15s %7zu\n",
                    info.name.c_str(), in.ips.median / 1e6,
                    th.ips.median / 1e6, ts.ips.median / 1e6, range,
                    ts.chained);
        report.beginRow().field("program", info.name);
        for (auto [col, ms] : {std::pair{"interp", &in},
                               std::pair{"threaded", &th},
                               std::pair{"threaded_sampled", &ts}}) {
            std::string key = std::string(col) + "_ips";
            report.field(key, ms->ips.median)
                .field(key + "_min", ms->ips.min)
                .field(key + "_max", ms->ips.max);
        }
        report.field("promotions", double(ts.promotions))
            .field("chained_functions", double(ts.chained));
    }
    hr();
    report.write();
    std::printf("IPS = simulated machine instructions per wall-"
                "clock second, timed warm (translations cached, "
                "hot functions already at -O2+traces), profiling "
                "on; each figure is the median of %d trials of "
                ">= %.2f s (JSON: *_ips median, *_min/*_max). "
                "interp = reference interpreter; thread = "
                "direct-threaded + chained superblocks with "
                "operand-specialized handlers, exact counts; +smpl "
                "adds 1-in-%llu sampled counters.\n",
                kTrials, kTrialSeconds,
                (unsigned long long)kSampleInterval);

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}

// Timed: one warm run of the first workload, for
// `--benchmark_filter` style comparisons.
static void
BM_ThreadedDispatch(benchmark::State &state)
{
    auto m = prepared(allWorkloads()[0]);
    CodeManager cm(*getTarget("x86"), adaptiveOpts());
    EdgeProfile profile;
    cm.setAdaptive(&profile, 500);
    for (auto _ : state) {
        ExecutionContext ctx(*m);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        benchmark::DoNotOptimize(
            sim.run(m->getFunction("main")).value.i);
    }
}
BENCHMARK(BM_ThreadedDispatch);
