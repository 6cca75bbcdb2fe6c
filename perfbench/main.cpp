/**
 * @file
 * llva_perfbench: wall-clock time from bytecode in hand to output
 * produced, per workload, plus a traced run that splits a request
 * into the src/ layers it passes through.
 *
 *   llva_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--tmp-dir DIR] [--spans FILE] [--corrupt-reference]
 *
 * Workloads (target x86, -O2, adaptive promotion on):
 *   cold_start    fresh LLEE without storage per request: read,
 *                 on-demand translation, VM setup, run.
 *   warm_restart  fresh FileStorage + LLEE per request over a cache
 *                 primed in setup: the cold path minus translation.
 *   hot_loop      one warm CodeManager per program, promoted and
 *                 chained in setup: VM setup + execute + teardown.
 *   live_update   two executors share one CodeManager while a
 *                 control thread replaces functions (and now and
 *                 then round-trips a checkpoint) on an open-loop
 *                 schedule. Not listed in BENCHMARK.json: the
 *                 executors' promotions race the mutations, so a few
 *                 refuse at random and two runs never agree on
 *                 `failed`.
 *
 * Every request is checked against the Interpreter's output and
 * return value for the same program. The last stdout line is the
 * JSON result; a "detail" JSON line precedes it.
 */

#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unistd.h>

#include "harness.h"
#include "llee/checkpoint.h"
#include "requests.h"
#include "workloads/workloads.h"

using namespace llva;
using namespace perfbench;

namespace {

/** A p90 needs at least ten samples beyond it. */
constexpr size_t kMinRequests = 100;
/** Setup is repeated and its median reported, so that work moved
 *  into setup shows in setup_s. */
constexpr int kSetupRepeats = 3;
/** Warm-cache priming stops after this many passes even if
 *  promotions still translate; the timed requests then fail the
 *  warm-cache check rather than the setup hiding it. */
constexpr int kMaxPrimingPasses = 10;

/**
 * hot_loop programs and scales: pointer chasing (ptrdist-ft,
 * 181.mcf, 255.vortex), numeric (183.equake), compression
 * (256.bzip2) and call-heavy (197.parser). Each scale gives a warm
 * run of roughly the same execute time (10-21 M simulated
 * instructions on a 4-vCPU x86 host), so the latency distribution
 * is one mode, not six, and its median does not jump between
 * programs.
 */
const std::vector<std::pair<const char *, int>> kHotPrograms = {
    {"ptrdist-ft", 24}, {"181.mcf", 11},   {"255.vortex", 36},
    {"183.equake", 10}, {"256.bzip2", 16}, {"197.parser", 400},
};

/** live_update: 197.parser (6 functions, call-heavy) at a scale
 *  where one run is ~50 ms including VM setup. */
constexpr int kLiveScale = 16;
constexpr unsigned kExecutors = 2;
constexpr size_t kQuietRunsPerExecutor = 12;
/** Open-loop mutation rate; every kCheckpointEvery-th mutation is
 *  a checkpoint round trip instead of a replacement. */
constexpr double kMutationsPerSecond = 200;
constexpr uint64_t kCheckpointEvery = 200;

const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"setup_s", "s"},           {"request_ms_p50", "ms"},
    {"request_ms_p90", "ms"},   {"requests_per_s", "1/s"},
    {"success_ratio", "ratio"}, {"peak_rss_mb", "MiB"},
};

const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"bytecode.read_ms", "ms"},
    {"bytecode.bytes", "bytes"},
    {"llee.setup_ms", "ms"},
    {"llee.profile_load_ms", "ms"},
    {"llee.cache_load_ms", "ms"},
    {"llee.storage_read_ms", "ms"},
    {"llee.storage_bytes_read", "bytes"},
    {"llee.storage_write_ms", "ms"},
    {"llee.writeback_ms", "ms"},
    {"llee.cache_hit_ratio", "ratio"},
    {"codegen.translate_ms", "ms"},
    {"codegen.functions_translated", "count"},
    {"codegen.isel_ms", "ms"},
    {"codegen.phi_elim_ms", "ms"},
    {"codegen.regalloc_ms", "ms"},
    {"codegen.frame_ms", "ms"},
    {"codegen.encode_ms", "ms"},
    {"codegen.instructions_selected", "count"},
    {"codegen.spills", "count"},
    {"codegen.bytes_emitted", "bytes"},
    {"codegen.native_bytes", "bytes"},
    {"transforms.opt_ms", "ms"},
    {"transforms.pass_applications", "count"},
    {"vm.setup_ms", "ms"},
    {"vm.execute_ms", "ms"},
    {"vm.teardown_ms", "ms"},
    {"vm.instructions", "count"},
    {"vm.instructions_interpreted", "count"},
    {"vm.mips", "Minstr/s"},
    {"trace.promotions", "count"},
    {"trace.chained_functions", "count"},
    {"bench.traced_request_ms", "ms"},
    {"bench.unattributed_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
};

/** Layers only live_update exercises, reported after kPerLayer on
 *  that workload alone. */
const std::vector<std::pair<const char *, const char *>> kLiveLayers = {
    {"llee.checkpoint_capture_ms", "ms"},
    {"llee.checkpoint_restore_ms", "ms"},
    {"llee.checkpoint_bytes", "bytes"},
    {"vm.replace_ms", "ms"},
    {"vm.replacements", "count"},
    {"vm.checkpoints", "count"},
    {"vm.retired_pending", "count"},
    {"vm.executor_quiet_ms_p50", "ms"},
    {"vm.executor_loaded_ms_p50", "ms"},
    {"vm.executor_slowdown", "ratio"},
    {"replace_ms_p50", "ms"},
    {"replace_ms_p90", "ms"},
    {"checkpoint_ms_p50", "ms"},
    {"checkpoint_ms_p90", "ms"},
    {"bench.schedule_lag_ms_p90", "ms"},
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string tmpDir = ".bench_build/tmp";
    std::string spansPath;
    bool corruptReference = false;
};

/** What one workload run measured. */
struct Run
{
    uint64_t attempted = 0;
    /** Requests that did not deliver: wrong results plus refusals. */
    uint64_t failed = 0;
    /** Wrong or missing results: output or value mismatch, trap,
     *  unwind, exception. A refusal (a cache miss on warm_restart, a
     *  restore that rejects its checkpoint, a replacement that
     *  installs nothing) fails the request but is not wrong. */
    uint64_t wrong = 0;
    /** Traced replay agreed with the untraced request, and the
     *  post-run invariants held. */
    bool consistent = true;
    std::vector<double> setupSeconds;
    std::vector<double> untracedMs;
    std::vector<double> tracedMs;
    double phaseSeconds = 0;
    std::map<std::string, double> layers;
    std::map<std::string, double> detail;
    std::vector<Tracer> tracers;

    void
    record(bool ok, bool refused = false)
    {
        ++attempted;
        failed += !ok || refused;
        wrong += !ok;
    }
};

/** Sums over traced requests, turned into per-request means. */
struct TracedTotals
{
    size_t requests = 0;
    Counters counters;
    size_t functionsTranslated = 0;
    uint64_t bytecodeBytes = 0;
    uint64_t storageBytesRead = 0;
    uint64_t instructions = 0;
    uint64_t interpreted = 0;
    size_t cacheHits = 0;
    size_t cacheLookups = 0;
    size_t chained = 0;
    uint64_t nativeBytes = 0;

    void
    add(const Outcome &o, const Counters &delta, const Program *p)
    {
        ++requests;
        counters += delta;
        functionsTranslated += o.functionsTranslated;
        bytecodeBytes += o.bytecodeBytes;
        if (p)
            nativeBytes += p->nativeBytes;
        storageBytesRead += o.storageBytesRead;
        instructions += o.instructions;
        interpreted += o.instructionsInterpreted;
        cacheHits += o.cacheHits;
        cacheLookups += o.cacheLookups;
        chained += o.chainedFunctions;
    }
};

std::vector<const Tracer *>
tracerPtrs(const std::vector<Tracer> &tracers)
{
    std::vector<const Tracer *> out;
    for (const Tracer &t : tracers)
        out.push_back(&t);
    return out;
}

/**
 * Per-layer means over the traced requests. Every *_ms layer is a
 * self time (span minus its children), so the layers on a request's
 * path plus bench.unattributed_ms add up to bench.traced_request_ms.
 * codegen.translate_ms is the CodeManager's own translate-seconds
 * delta (a child of vm.execute); the five stage timers and
 * transforms.opt_ms (translate minus stages) split it further.
 */
void
fillLayers(Run &run, const TracedTotals &t)
{
    const double n = t.requests ? double(t.requests) : 1;
    auto self = selfTimes(tracerPtrs(run.tracers));
    auto perRequest = [&](const char *span) {
        auto it = self.find(span);
        return it == self.end() ? 0.0 : it->second / n;
    };
    auto &L = run.layers;
    L["bytecode.read_ms"] = perRequest("bytecode.read");
    L["bytecode.bytes"] = double(t.bytecodeBytes) / n;
    L["llee.setup_ms"] = perRequest("llee.setup");
    L["llee.profile_load_ms"] = perRequest("llee.profile_load");
    L["llee.cache_load_ms"] = perRequest("llee.cache_load");
    L["llee.storage_read_ms"] = perRequest("llee.storage_read");
    L["llee.storage_bytes_read"] = double(t.storageBytesRead) / n;
    L["llee.storage_write_ms"] = perRequest("llee.storage_write");
    L["llee.writeback_ms"] = perRequest("llee.writeback");
    L["llee.cache_hit_ratio"] =
        t.cacheLookups ? double(t.cacheHits) / double(t.cacheLookups)
                       : 0;
    L["codegen.translate_ms"] = perRequest("codegen.translate");
    L["codegen.functions_translated"] =
        double(t.functionsTranslated) / n;
    L["codegen.isel_ms"] = t.counters.iselMs / n;
    L["codegen.phi_elim_ms"] = t.counters.phiElimMs / n;
    L["codegen.regalloc_ms"] = t.counters.regallocMs / n;
    L["codegen.frame_ms"] = t.counters.frameMs / n;
    L["codegen.encode_ms"] = t.counters.encodeMs / n;
    L["codegen.instructions_selected"] =
        double(t.counters.instructionsSelected) / n;
    L["codegen.spills"] = double(t.counters.spills) / n;
    L["codegen.bytes_emitted"] = double(t.counters.bytesEmitted) / n;
    L["codegen.native_bytes"] = double(t.nativeBytes) / n;
    L["transforms.opt_ms"] = std::max(
        0.0, L["codegen.translate_ms"] - t.counters.stageMs() / n);
    L["transforms.pass_applications"] =
        double(t.counters.passApplications) / n;
    L["vm.setup_ms"] = perRequest("vm.setup");
    L["vm.execute_ms"] = perRequest("vm.execute");
    L["vm.teardown_ms"] = perRequest("vm.teardown");
    L["vm.instructions"] = double(t.instructions) / n;
    L["vm.instructions_interpreted"] = double(t.interpreted) / n;
    L["vm.mips"] = L["vm.execute_ms"] > 0
                       ? L["vm.instructions"] /
                             (L["vm.execute_ms"] * 1e-3) / 1e6
                       : 0;
    L["trace.promotions"] = double(t.counters.promotions) / n;
    L["trace.chained_functions"] = double(t.chained) / n;
    L["bench.traced_request_ms"] = mean(run.tracedMs);
    L["bench.unattributed_ms"] = perRequest("request");
    double untraced = quantile(run.untracedMs, 0.5);
    L["bench.trace_overhead"] =
        untraced > 0 ? quantile(run.tracedMs, 0.5) / untraced : 0;
}

/** Failure diagnostics go to stderr, capped so a run that fails
 *  everything stays readable. */
std::atomic<int> complaints{0};

void
complain(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

void
complain(const char *fmt, ...)
{
    constexpr int kMaxComplaints = 20;
    if (complaints.fetch_add(1) >= kMaxComplaints)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::fputs("perfbench: ", stderr);
    std::vfprintf(stderr, fmt, ap);
    std::fputc('\n', stderr);
    va_end(ap);
}

void
reportFailure(const char *what, const Outcome &o)
{
    if (o.threw)
        complain("%s threw", what);
    else
        complain("%s failed: trap %s, unwound %d, paused %d, value %"
                 PRIu64 ", %zu output bytes, cache hits %zu, "
                 "invalid %zu, translated %zu",
                 what, trapKindName(o.exec.trap), int(o.exec.unwound),
                 int(o.exec.paused), o.exec.value.i, o.output.size(),
                 o.cacheHits, o.cacheInvalid, o.functionsTranslated);
}

/** A directory under the run's temp root, removed on destruction. */
class TempDir
{
  public:
    TempDir(const std::string &root, const std::string &tag)
        : path_(root + "/" + tag + "-" + std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * Set up kSetupRepeats times (once when tracing, which reports no
 * setup_s), recording each duration; the last state is kept.
 */
template <class State, class Setup>
std::unique_ptr<State>
timedSetup(const Args &a, Run &run, Setup setup)
{
    std::unique_ptr<State> state;
    int reps = a.trace ? 1 : kSetupRepeats;
    for (int i = 0; i < reps; ++i) {
        state.reset();
        double t0 = nowMs();
        state = setup();
        run.setupSeconds.push_back((nowMs() - t0) * 1e-3);
    }
    return state;
}

/**
 * A closed loop with one client: request after request, in a
 * seeded shuffled rotation over the programs, until the time is up,
 * at least kMinRequests were measured, and the last round is
 * complete (so every run weighs every program equally and the seed
 * changes only the order). With tracing, each untraced request is
 * followed by its traced replay, which must agree with it exactly.
 */
template <class Untraced, class Traced>
void
closedLoop(const Args &a, const std::vector<Program> &programs,
           Untraced untraced, Traced traced, Run &run)
{
    Rotation rotation(programs.size(), a.seed);
    TracedTotals totals;
    run.tracers.resize(1);
    Tracer &tracer = run.tracers[0];
    const double start = nowMs();
    const double deadline = start + a.seconds * 1e3;
    uint64_t requestId = 0;
    while (nowMs() < deadline || run.untracedMs.size() < kMinRequests ||
           !rotation.atRoundEnd()) {
        const Program &p = programs[rotation.next()];
        double t0 = nowMs();
        Outcome o = untraced(p);
        run.untracedMs.push_back(nowMs() - t0);
        run.record(o.ok, o.refused);
        if (!o.ok || o.refused)
            reportFailure(p.name.c_str(), o);
        if (!a.trace)
            continue;
        tracer.setRequest(requestId++);
        Counters c0 = Counters::now();
        t0 = nowMs();
        Outcome r = traced(p, tracer);
        run.tracedMs.push_back(nowMs() - t0);
        Counters delta = Counters::now() - c0;
        bool same = r.ok == o.ok && r.refused == o.refused &&
                    r.output == o.output &&
                    r.exec.value.i == o.exec.value.i &&
                    r.cacheHits == o.cacheHits &&
                    r.functionsTranslated == o.functionsTranslated;
        if (!same) {
            run.consistent = false;
            complain("traced replay of %s disagrees with the untraced "
                     "request",
                     p.name.c_str());
        }
        run.record(r.ok && same, r.refused);
        if (!r.ok || r.refused)
            reportFailure(p.name.c_str(), r);
        totals.add(r, delta, &p);
    }
    run.phaseSeconds = (nowMs() - start) * 1e-3;
    if (a.trace)
        fillLayers(run, totals);
}

std::vector<Program>
suitePrograms(const Args &a)
{
    std::vector<Program> programs;
    for (const WorkloadInfo &info : allWorkloads())
        programs.push_back(makeProgram(info.name, info.defaultScale,
                                       a.corruptReference));
    return programs;
}

// --- cold_start -----------------------------------------------------------

Run
coldStart(const Args &a)
{
    Run run;
    auto programs = timedSetup<std::vector<Program>>(a, run, [&] {
        return std::make_unique<std::vector<Program>>(suitePrograms(a));
    });
    if (a.trace)
        for (Program &p : *programs)
            p.nativeBytes = coldNativeBytes(p);
    closedLoop(
        a, *programs,
        [](const Program &p) { return lleeRequest(p, nullptr); },
        [](const Program &p, Tracer &t) {
            return lleeReplay(p, nullptr, t);
        },
        run);
    return run;
}

// --- warm_restart ---------------------------------------------------------

struct WarmState
{
    std::vector<Program> programs;
    std::unique_ptr<TempDir> cache;
    int primingPasses = 0;
};

/** A warm request counts only if it ran entirely from the cache. */
bool
servedFromCache(const Outcome &o, const Program &p)
{
    return o.cacheHits == p.definedFunctions &&
           o.functionsTranslated == 0 && o.cacheInvalid == 0;
}

Run
warmRestart(const Args &a)
{
    Run run;
    auto state = timedSetup<WarmState>(a, run, [&] {
        auto s = std::make_unique<WarmState>();
        s->programs = suitePrograms(a);
        s->cache = std::make_unique<TempDir>(a.tmpDir, "warm-cache");
        // Offline translation caches every function, including ones
        // a run never calls; then full passes until one translates
        // nothing online (promotions rewrite entries at the trace
        // tier on the first passes).
        {
            FileStorage fs(s->cache->path());
            for (const Program &p : s->programs)
                LLEE(*getTarget("x86"), &fs, benchOptions())
                    .offlineTranslate(p.bytecode);
        }
        for (s->primingPasses = 1;
             s->primingPasses <= kMaxPrimingPasses;
             ++s->primingPasses) {
            size_t translated = 0;
            for (const Program &p : s->programs) {
                FileStorage fs(s->cache->path());
                translated += lleeRequest(p, &fs).functionsTranslated;
            }
            if (translated == 0)
                break;
        }
        return s;
    });
    run.detail["priming_passes"] = state->primingPasses;
    const std::string dir = state->cache->path();
    closedLoop(
        a, state->programs,
        [&](const Program &p) {
            FileStorage fs(dir);
            Outcome o = lleeRequest(p, &fs);
            o.refused = !servedFromCache(o, p);
            return o;
        },
        [&](const Program &p, Tracer &t) {
            FileStorage fs(dir);
            Outcome o = lleeReplay(p, &fs, t);
            o.refused = !servedFromCache(o, p);
            return o;
        },
        run);
    return run;
}

// --- hot_loop -------------------------------------------------------------

struct HotProgram
{
    std::unique_ptr<Module> module;
    std::unique_ptr<EdgeProfile> profile;
    std::unique_ptr<CodeManager> cm;
};

struct HotState
{
    std::vector<Program> programs;
    std::vector<HotProgram> warm; ///< parallel to programs
};

Run
hotLoop(const Args &a)
{
    Run run;
    auto state = timedSetup<HotState>(a, run, [&] {
        auto s = std::make_unique<HotState>();
        for (auto [name, scale] : kHotPrograms) {
            s->programs.push_back(
                makeProgram(name, scale, a.corruptReference));
            HotProgram h;
            h.module = decode(s->programs.back());
            h.profile = std::make_unique<EdgeProfile>();
            h.cm = std::make_unique<CodeManager>(*getTarget("x86"),
                                                 benchOptions());
            h.cm->setAdaptive(h.profile.get(),
                              benchOptions().promoteWatermark);
            // Warm until a run translates nothing: every hot
            // function promoted to -O2+traces and chained.
            for (int i = 0; i < 8; ++i) {
                Outcome o = warmRun(*h.module, *h.cm, h.profile.get(),
                                    ProfileUse::Attached, false,
                                    s->programs.back().ref, nullptr);
                if (i > 0 && o.functionsTranslated == 0)
                    break;
            }
            s->warm.push_back(std::move(h));
        }
        return s;
    });
    if (a.trace)
        for (size_t i = 0; i < state->programs.size(); ++i)
            state->programs[i].nativeBytes =
                state->warm[i].cm->totalEncodedBytes();
    auto index = [&](const Program &p) {
        return size_t(&p - state->programs.data());
    };
    auto request = [&](const Program &p, Tracer *t) {
        HotProgram &h = state->warm[index(p)];
        return warmRun(*h.module, *h.cm, h.profile.get(),
                       ProfileUse::Attached, false, p.ref, t);
    };
    std::map<std::string, std::vector<double>> perProgram;
    closedLoop(
        a, state->programs,
        [&](const Program &p) {
            double t0 = nowMs();
            Outcome o = request(p, nullptr);
            perProgram[p.name].push_back(nowMs() - t0);
            return o;
        },
        [&](const Program &p, Tracer &t) { return request(p, &t); },
        run);
    for (auto &[name, ms] : perProgram)
        run.detail["p50_ms." + name] = quantile(ms, 0.5);
    return run;
}

// --- live_update ----------------------------------------------------------

struct LiveState
{
    Program program;
    std::unique_ptr<Module> module;
    /** Restores decode their own module: a checkpoint is meant to
     *  come back in a fresh process, and the shared module's bodies
     *  are being rewritten by replacements. */
    std::unique_ptr<Module> restoreModule;
    std::unique_ptr<EdgeProfile> master;
    std::unique_ptr<CodeManager> cm;
    std::vector<const Function *> functions;
    double quietP50 = 0;
    uint64_t instructions = 0;
};

/** Run \p body(e) on kExecutors threads and join them. */
template <class Body>
void
runExecutors(Body body)
{
    std::vector<std::thread> threads;
    for (unsigned e = 0; e < kExecutors; ++e)
        threads.emplace_back([&body, e] { body(e); });
    for (auto &t : threads)
        t.join();
}

std::unique_ptr<LiveState>
setupLive(const Args &a)
{
    auto s = std::make_unique<LiveState>();
    s->program = makeProgram("197.parser", kLiveScale,
                             a.corruptReference);
    s->module = decode(s->program);
    s->restoreModule = decode(s->program);
    s->master = std::make_unique<EdgeProfile>();
    s->cm = std::make_unique<CodeManager>(*getTarget("x86"),
                                          benchOptions());
    s->cm->setAdaptive(s->master.get(), benchOptions().promoteWatermark);
    for (const auto &f : s->module->functions())
        if (!f->isDeclaration())
            s->functions.push_back(f.get());
    for (int i = 0; i < 8; ++i) {
        Outcome o = warmRun(*s->module, *s->cm, nullptr,
                            ProfileUse::LocalMerged, false,
                            s->program.ref, nullptr);
        s->instructions = o.instructions;
        if (i > 0 && o.functionsTranslated == 0)
            break;
    }
    // The executors' quiet latency, as the base of the slowdown.
    std::vector<double> quiet[kExecutors];
    runExecutors([&](unsigned e) {
        for (size_t i = 0; i < kQuietRunsPerExecutor; ++i) {
            double t0 = nowMs();
            warmRun(*s->module, *s->cm, nullptr, ProfileUse::LocalMerged,
                    true, s->program.ref, nullptr);
            quiet[e].push_back(nowMs() - t0);
        }
    });
    std::vector<double> all;
    for (auto &q : quiet)
        all.insert(all.end(), q.begin(), q.end());
    s->quietP50 = quantile(all, 0.5);
    return s;
}

/** What the control thread measured. */
struct ControlLog
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t wrong = 0;
    std::vector<double> lagMs;
    std::vector<double> replaceMs; ///< from due time
    std::vector<double> replaceServiceMs;
    std::vector<double> checkpointMs; ///< lag + capture + restore
    std::vector<double> captureMs;
    std::vector<double> restoreMs;
    std::vector<double> checkpointBytes;
};

/** How a mutation ended (see Run::wrong for the distinction). */
enum class Verdict
{
    Ok,
    Refused,
    Wrong,
};

/**
 * One checkpoint round trip: pause a separate VM mid-run on the
 * shared manager, capture it, restore into a fresh context and
 * manager, resume both, and check both against the oracle.
 */
Verdict
checkpointCycle(LiveState &s, uint64_t pauseAt, double lag,
                ControlLog &log, Tracer *tracer)
{
    const Function *mainFn = s.module->getFunction("main");
    std::unique_ptr<ExecutionContext> ctx;
    {
        auto lock = s.cm->readLock();
        ctx = std::make_unique<ExecutionContext>(*s.module);
    }
    MachineSimulator sim(*ctx, *s.cm);
    sim.setPauseAt(pauseAt);
    sim.run(mainFn);
    if (!sim.paused()) {
        complain("checkpoint VM finished before pausing at %" PRIu64,
                 pauseAt);
        return Verdict::Wrong;
    }

    double t0 = nowMs();
    std::vector<uint8_t> blob;
    {
        ScopedSpan span(tracer, "llee.checkpoint_capture");
        blob = captureCheckpoint(s.program.hash, *ctx, *s.cm, nullptr,
                                 &sim);
    }
    double captured = nowMs();
    ExecutionContext rctx(*s.restoreModule);
    CodeManager rcm(*getTarget("x86"), benchOptions());
    MachineSimulator rsim(rctx, rcm);
    double r0 = nowMs();
    Expected<CheckpointRestoreStats> st = [&] {
        ScopedSpan span(tracer, "llee.checkpoint_restore");
        return restoreCheckpoint(blob, s.program.hash, rctx, rcm,
                                 nullptr, &rsim);
    }();
    double restored = nowMs();
    log.captureMs.push_back(captured - t0);
    log.restoreMs.push_back(restored - r0);
    log.checkpointMs.push_back(lag + (captured - t0) + (restored - r0));
    log.checkpointBytes.push_back(double(blob.size()));

    Verdict verdict = Verdict::Ok;
    if (!st.ok()) {
        complain("checkpoint restore refused: %s",
                 st.error().message().c_str());
        verdict = Verdict::Refused;
    } else if (!rsim.paused()) {
        complain("restored checkpoint is not paused");
        verdict = Verdict::Wrong;
    } else {
        ExecResult rr = rsim.resume();
        if (!matches(rr, rctx.output(), s.program.ref)) {
            complain("restored VM diverged (trap %s, value %" PRIu64
                     ")",
                     trapKindName(rr.trap), rr.value.i);
            verdict = Verdict::Wrong;
        }
    }
    // The original VM resumes in-process either way; its epoch pin
    // kept the bodies it was paused in alive.
    ExecResult cr = sim.resume();
    if (!matches(cr, ctx->output(), s.program.ref)) {
        complain("checkpointed VM diverged after resume (trap %s)",
                 trapKindName(cr.trap));
        verdict = Verdict::Wrong;
    }
    return verdict;
}

Run
liveUpdate(const Args &a)
{
    Run run;
    auto state = timedSetup<LiveState>(
        a, run, [&] { return setupLive(a); });
    LiveState &s = *state;

    // The seed sets the schedule's phase: where in the first period
    // the first mutation falls, which function the round robin
    // starts at, which mutation is the first checkpoint, and the
    // checkpoint VM's pause point.
    Rng rng(a.seed);
    const double period = 1e3 / kMutationsPerSecond;
    const double phase = rng.unit() * period;
    const size_t firstFunction = rng.below(s.functions.size());
    const uint64_t checkpointPhase = rng.below(kCheckpointEvery);
    const uint64_t pauseAt =
        1000 + rng.below(std::max<uint64_t>(s.instructions / 2, 1));

    run.tracers.resize(kExecutors + 1);
    struct ExecutorLog
    {
        std::vector<double> untraced, traced;
        uint64_t attempted = 0, failed = 0;
        TracedTotals totals;
    };
    ExecutorLog logs[kExecutors];
    ControlLog control;
    std::atomic<size_t> done{0};
    std::atomic<bool> executorsFinished{false};
    const double translate0 = s.cm->totalTranslateSeconds();
    const size_t translated0 = s.cm->functionsTranslated();
    const Counters counters0 = Counters::now();

    const double start = nowMs();
    const double deadline = start + a.seconds * 1e3;
    std::thread controlThread([&] {
        Tracer *tracer = a.trace ? &run.tracers[kExecutors] : nullptr;
        size_t replacements = 0;
        for (uint64_t k = 0;; ++k) {
            const double due = start + phase + double(k) * period;
            while (nowMs() < due &&
                   !executorsFinished.load(std::memory_order_relaxed))
                std::this_thread::sleep_for(
                    std::chrono::microseconds(200));
            if (executorsFinished.load(std::memory_order_relaxed))
                break;
            if (tracer)
                tracer->setRequest(k);
            Verdict verdict = Verdict::Wrong;
            const double t0 = nowMs();
            control.lagMs.push_back(t0 - due);
            try {
                if ((k + checkpointPhase) % kCheckpointEvery ==
                    kCheckpointEvery - 1) {
                    verdict = checkpointCycle(s, pauseAt, t0 - due,
                                              control, tracer);
                } else {
                    const Function *f =
                        s.functions[(firstFunction + replacements++) %
                                    s.functions.size()];
                    ScopedSpan span(tracer, "vm.replace");
                    verdict = s.cm->replaceFunctionLive(f)
                                  ? Verdict::Ok
                                  : Verdict::Refused;
                    if (verdict != Verdict::Ok)
                        complain("replacement of %s installed nothing",
                                 f->name().c_str());
                    double t1 = nowMs();
                    control.replaceMs.push_back(t1 - due);
                    control.replaceServiceMs.push_back(t1 - t0);
                }
            } catch (const std::exception &e) {
                complain("mutation %" PRIu64 " threw: %s", k, e.what());
                verdict = Verdict::Wrong;
            }
            ++control.attempted;
            control.failed += verdict != Verdict::Ok;
            control.wrong += verdict == Verdict::Wrong;
        }
    });
    runExecutors([&](unsigned e) {
        ExecutorLog &log = logs[e];
        Tracer &tracer = run.tracers[e];
        for (uint64_t n = 0;
             nowMs() < deadline ||
             done.load(std::memory_order_relaxed) < kMinRequests;
             ++n) {
            const bool traced = a.trace && (n % 2 == 1);
            tracer.setRequest((uint64_t(e) << 32) | n);
            double t0 = nowMs();
            Outcome o = warmRun(*s.module, *s.cm, nullptr,
                                ProfileUse::LocalMerged, true,
                                s.program.ref,
                                traced ? &tracer : nullptr);
            double ms = nowMs() - t0;
            (traced ? log.traced : log.untraced).push_back(ms);
            if (traced)
                log.totals.add(o, Counters{}, nullptr);
            ++log.attempted;
            if (!o.ok) {
                ++log.failed;
                reportFailure("executor run", o);
            }
            done.fetch_add(1, std::memory_order_relaxed);
        }
    });
    run.phaseSeconds = (nowMs() - start) * 1e-3;
    executorsFinished.store(true);
    controlThread.join();

    // Quiesced: nothing is pinned, so nothing retired may remain.
    const size_t retiredPending =
        s.cm->retiredBodies() + s.cm->retiredChainCount();
    if (retiredPending != 0) {
        run.consistent = false;
        complain("%zu retired bodies/chains left after quiesce",
                 retiredPending);
    }

    TracedTotals executorTotals;
    for (auto &log : logs) {
        run.untracedMs.insert(run.untracedMs.end(), log.untraced.begin(),
                              log.untraced.end());
        run.tracedMs.insert(run.tracedMs.end(), log.traced.begin(),
                            log.traced.end());
        run.attempted += log.attempted;
        run.failed += log.failed;
        run.wrong += log.failed;
        const TracedTotals &t = log.totals;
        executorTotals.requests += t.requests;
        executorTotals.instructions += t.instructions;
        executorTotals.interpreted += t.interpreted;
        executorTotals.chained += t.chained;
    }
    run.attempted += control.attempted;
    run.failed += control.failed;
    run.wrong += control.wrong;
    run.detail["control_failed"] = double(control.failed);
    run.detail["control_wrong"] = double(control.wrong);

    const size_t replacements = control.replaceMs.size();
    const size_t checkpoints = control.checkpointMs.size();
    const double executorP50 = quantile(run.untracedMs, 0.5);
    run.detail["replacements"] = double(replacements);
    run.detail["checkpoints"] = double(checkpoints);
    run.detail["replace_ms_p50"] = quantile(control.replaceMs, 0.5);
    run.detail["replace_ms_p90"] = quantile(control.replaceMs, 0.9);
    run.detail["checkpoint_ms_p50"] =
        quantile(control.checkpointMs, 0.5);
    run.detail["checkpoint_ms_p90"] =
        quantile(control.checkpointMs, 0.9);
    run.detail["schedule_lag_ms_p90"] = quantile(control.lagMs, 0.9);
    run.detail["executor_quiet_ms_p50"] = s.quietP50;
    run.detail["executor_slowdown"] =
        s.quietP50 > 0 ? executorP50 / s.quietP50 : 0;
    run.detail["retired_pending"] = double(retiredPending);

    if (!a.trace)
        return run;

    fillLayers(run, executorTotals);
    // Translation on live_update happens on the control thread
    // (replacements) and in the executors (re-promotion of each
    // replaced function), so the codegen/transforms layers are the
    // timed phase's totals per replacement.
    const double perReplacement = replacements ? double(replacements)
                                               : 1;
    const Counters c = Counters::now() - counters0;
    auto &L = run.layers;
    L["codegen.translate_ms"] =
        (s.cm->totalTranslateSeconds() - translate0) * 1e3 /
        perReplacement;
    L["codegen.functions_translated"] =
        double(s.cm->functionsTranslated() - translated0) /
        perReplacement;
    L["codegen.isel_ms"] = c.iselMs / perReplacement;
    L["codegen.phi_elim_ms"] = c.phiElimMs / perReplacement;
    L["codegen.regalloc_ms"] = c.regallocMs / perReplacement;
    L["codegen.frame_ms"] = c.frameMs / perReplacement;
    L["codegen.encode_ms"] = c.encodeMs / perReplacement;
    L["codegen.instructions_selected"] =
        double(c.instructionsSelected) / perReplacement;
    L["codegen.spills"] = double(c.spills) / perReplacement;
    L["codegen.bytes_emitted"] = double(c.bytesEmitted) / perReplacement;
    L["transforms.opt_ms"] =
        std::max(0.0, L["codegen.translate_ms"] -
                          c.stageMs() / perReplacement);
    L["transforms.pass_applications"] =
        double(c.passApplications) / perReplacement;
    L["trace.promotions"] = double(c.promotions) / perReplacement;
    L["codegen.native_bytes"] = double(s.cm->totalEncodedBytes());
    L["llee.checkpoint_capture_ms"] = mean(control.captureMs);
    L["llee.checkpoint_restore_ms"] = mean(control.restoreMs);
    L["llee.checkpoint_bytes"] = mean(control.checkpointBytes);
    L["vm.replace_ms"] = mean(control.replaceServiceMs);
    L["vm.replacements"] = double(replacements);
    L["vm.checkpoints"] = double(checkpoints);
    L["vm.retired_pending"] = double(retiredPending);
    L["vm.executor_quiet_ms_p50"] = s.quietP50;
    L["vm.executor_loaded_ms_p50"] = executorP50;
    L["vm.executor_slowdown"] = run.detail["executor_slowdown"];
    L["replace_ms_p50"] = run.detail["replace_ms_p50"];
    L["replace_ms_p90"] = run.detail["replace_ms_p90"];
    L["checkpoint_ms_p50"] = run.detail["checkpoint_ms_p50"];
    L["checkpoint_ms_p90"] = run.detail["checkpoint_ms_p90"];
    L["bench.schedule_lag_ms_p90"] = run.detail["schedule_lag_ms_p90"];
    return run;
}

// --- entry point ----------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "llva_perfbench: %s\n"
                 "usage: llva_perfbench --workload "
                 "cold_start|warm_restart|hot_loop|live_update\n"
                 "       --seed N --seconds S --trace 0|1 [--tmp-dir "
                 "DIR] [--spans FILE] [--corrupt-reference]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (k == "--trace")
            a.trace = value() == "1";
        else if (k == "--tmp-dir")
            a.tmpDir = value();
        else if (k == "--spans")
            a.spansPath = value();
        else if (k == "--corrupt-reference")
            a.corruptReference = true;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

void
printDetail(const Args &a, const Run &run)
{
    std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"trace\": %d, \"untraced_requests\": %zu, "
                "\"traced_requests\": %zu, \"phase_s\": %.6f",
                a.workload.c_str(), a.seed, a.trace ? 1 : 0,
                run.untracedMs.size(), run.tracedMs.size(),
                run.phaseSeconds);
    for (size_t i = 0; i < run.setupSeconds.size(); ++i)
        std::printf(", \"setup_s.%zu\": %.6f", i, run.setupSeconds[i]);
    for (const auto &[k, v] : run.detail)
        std::printf(", \"%s\": %.6g", k.c_str(), v);
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    Run run;
    try {
        if (a.workload == "cold_start")
            run = coldStart(a);
        else if (a.workload == "warm_restart")
            run = warmRestart(a);
        else if (a.workload == "hot_loop")
            run = hotLoop(a);
        else if (a.workload == "live_update")
            run = liveUpdate(a);
        else
            usage(("unknown workload '" + a.workload + "'").c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "llva_perfbench: %s\n", e.what());
        return 1;
    }
    if (!a.spansPath.empty() &&
        !writeSpans(a.spansPath, tracerPtrs(run.tracers)))
        std::fprintf(stderr, "llva_perfbench: cannot write %s\n",
                     a.spansPath.c_str());

    Report report;
    if (a.trace) {
        auto layers = kPerLayer;
        if (a.workload == "live_update")
            layers.insert(layers.end(), kLiveLayers.begin(),
                          kLiveLayers.end());
        for (auto [name, unit] : layers) {
            auto it = run.layers.find(name);
            report.add(name, it == run.layers.end() ? 0 : it->second,
                       unit);
        }
    } else {
        const double values[] = {
            quantile(run.setupSeconds, 0.5),
            quantile(run.untracedMs, 0.5),
            quantile(run.untracedMs, 0.9),
            double(run.untracedMs.size()) / run.phaseSeconds,
            1.0 - double(run.failed) / double(run.attempted),
            peakRssMb(),
        };
        for (size_t i = 0; i < kEndToEnd.size(); ++i)
            report.add(kEndToEnd[i].first, values[i],
                       kEndToEnd[i].second);
    }
    printDetail(a, run);
    report.print(run.wrong == 0 && run.consistent, run.attempted,
                 run.failed);
    return 0;
}
