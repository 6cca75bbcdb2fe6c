#include "transforms/pass.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>

#include "ir/clone.h"
#include "support/statistic.h"
#include "support/timer.h"
#include "verifier/verifier.h"

namespace llva {

namespace {

Statistic NumPassRuns("pass.applications",
                      "Individual pass applications (pass x unit)");
Statistic NumPassChanges("pass.changes",
                         "Pass applications that modified the IR");
Statistic NumContained("passes.contained_failures",
                       "Pass applications contained by the sandbox");
Statistic NumBudgetExceeded(
    "passes.budget_exceeded",
    "Pass applications contained for blowing their budget");

/** CI hook: LLVA_VERIFY_EACH=1 turns on verify-each everywhere. */
bool
envVerifyEach()
{
    static const bool on = [] {
        const char *e = std::getenv("LLVA_VERIFY_EACH");
        return e && *e && std::string(e) != "0";
    }();
    return on;
}

/** Process-wide -opt-bisect-limit state. */
struct BisectState
{
    std::mutex mu;
    int64_t limit = -1;
    int64_t counter = 0;
    std::vector<std::string> decisions;
};

BisectState &
bisectState()
{
    static BisectState s;
    return s;
}

/** Run one pass application under the sandbox guard; returns the
 *  failure reason, or "" if the pass returned normally. */
template <typename Run>
std::string
guarded(Run &&run)
{
    try {
        run();
    } catch (const FatalError &err) {
        return std::string("pass fault: ") + err.what();
    } catch (const std::exception &err) {
        return std::string("pass exception: ") + err.what();
    }
    return "";
}

/** The budget verdict for one application ("" if within it). */
std::string
budgetFailure(const PassBudget &budget, double secs, size_t before,
              size_t after, const char *unit)
{
    const size_t limit = std::max(
        budget.growthFloor,
        static_cast<size_t>(static_cast<double>(before) *
                            budget.maxGrowth));
    char buf[128];
    if (secs > budget.maxSeconds)
        std::snprintf(buf, sizeof(buf),
                      "budget exceeded: %.3fs > %.3fs wall clock", secs,
                      budget.maxSeconds);
    else if (after > limit)
        std::snprintf(buf, sizeof(buf),
                      "budget exceeded: %sgrew %zu -> %zu instructions "
                      "(limit %zu)",
                      unit, before, after, limit);
    else
        return "";
    return buf;
}

} // namespace

// --- OptBisect ---------------------------------------------------------

void
OptBisect::setLimit(int64_t limit)
{
    BisectState &s = bisectState();
    std::lock_guard<std::mutex> lock(s.mu);
    s.limit = limit < 0 ? -1 : limit;
    s.counter = 0;
    s.decisions.clear();
}

int64_t
OptBisect::limit()
{
    BisectState &s = bisectState();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.limit;
}

bool
OptBisect::enabled()
{
    return limit() >= 0;
}

int64_t
OptBisect::count()
{
    BisectState &s = bisectState();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.counter;
}

bool
OptBisect::shouldRun(const char *pass, const std::string &unit)
{
    BisectState &s = bisectState();
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.limit < 0)
        return true;
    const int64_t index = ++s.counter;
    const bool run = index <= s.limit;
    std::string desc =
        std::string(pass) + " on " + (unit.empty() ? "<module>" : unit);
    s.decisions.push_back(desc);
    std::fprintf(stderr, "BISECT: %srunning pass (%lld) %s\n",
                 run ? "" : "NOT ", static_cast<long long>(index),
                 desc.c_str());
    return run;
}

std::string
OptBisect::description(int64_t index)
{
    BisectState &s = bisectState();
    std::lock_guard<std::mutex> lock(s.mu);
    if (index < 1 || static_cast<size_t>(index) > s.decisions.size())
        return "";
    return s.decisions[static_cast<size_t>(index) - 1];
}

// --- PassManager -------------------------------------------------------

bool
PassManager::run(Module &m)
{
    AnalysisManager am;
    return run(m, am);
}

void
PassManager::verifyAfter(Module &m, const Entry &e)
{
    VerifyResult r = verifyModule(m);
    if (!r.ok())
        fatal("verification failed after pass '%s':\n%s", e.name(),
              r.str().c_str());
}

PassResult
PassManager::applyFunctionPass(const Entry &e, Function &f,
                               AnalysisManager &am, bool restore)
{
    ++NumPassRuns;
    if (OptBisect::enabled() && !OptBisect::shouldRun(e.name(), f.name()))
        return PassResult::unchanged();

    const bool verify = verifyEach_ || envVerifyEach();

    if (!sandbox_) {
        PassResult r = e.fp->run(f, am);
        if (r.changed) {
            ++NumPassChanges;
            am.invalidate(f, r.preserved);
        }
        if (verify) {
            VerifyResult vr = verifyFunction(f);
            if (!vr.ok())
                fatal("verification failed after pass '%s' on "
                      "function '%s':\n%s",
                      e.name(), f.name().c_str(), vr.str().c_str());
        }
        return r;
    }

    // Sandboxed: guard and enforce the budget. With \p restore, a
    // per-application snapshot puts the function back exactly as it
    // was; without, the body is left as the pass left it and the
    // caller, which holds one snapshot for the whole pipeline, is
    // responsible for restoring it.
    FunctionSnapshot snap;
    if (restore)
        snap = FunctionSnapshot::capture(f);
    const size_t before = f.instructionCount();
    Timer t;
    PassResult r = PassResult::unchanged();
    std::string failure = guarded([&] { r = e.fp->run(f, am); });
    bool budgetBlown = false;
    if (failure.empty()) {
        failure = budgetFailure(budget_, t.seconds(), before,
                                f.instructionCount(), "");
        budgetBlown = !failure.empty();
    }

    // Invalidation runs outside the guard on purpose: the analysis
    // manager's preservation audit flags a pass-declaration bug, not
    // an input-dependent fault, and must never be swallowed here.
    if (failure.empty() && r.changed)
        am.invalidate(f, r.preserved);

    if (failure.empty() && verify) {
        VerifyResult vr = verifyFunction(f);
        if (!vr.ok())
            failure = "verification failed: " + vr.str();
    }

    if (!failure.empty()) {
        if (restore)
            snap.restoreInto(f);
        // Restored or mangled, the body no longer matches anything
        // cached for this function.
        am.invalidate(f);
        contain(e, f.name(), failure, budgetBlown);
        return PassResult::unchanged();
    }
    if (r.changed)
        ++NumPassChanges;
    return r;
}

void
PassManager::contain(const Entry &e, const std::string &unit,
                     const std::string &failure, bool budgetBlown)
{
    containedFailures_.push_back({e.name(), unit, failure});
    ++NumContained;
    if (budgetBlown)
        ++NumBudgetExceeded;
    if (unit.empty())
        warn("contained module pass '%s': %s", e.name(),
             failure.c_str());
    else
        warn("contained pass '%s' on function '%s': %s", e.name(),
             unit.c_str(), failure.c_str());
}

PassResult
PassManager::applyModulePass(const Entry &e, Module &m,
                             AnalysisManager &am)
{
    ++NumPassRuns;
    if (OptBisect::enabled() && !OptBisect::shouldRun(e.name(), m.name()))
        return PassResult::unchanged();

    const bool verify = verifyEach_ || envVerifyEach();

    if (!sandbox_) {
        PassResult r = e.mp->run(m, am);
        if (r.changed) {
            ++NumPassChanges;
            // Interprocedural rewrites can touch any function;
            // drop every cached analysis.
            am.clear();
        }
        if (verify)
            verifyAfter(m, e);
        return r;
    }

    // Sandboxed module pass: snapshot every defined body plus the
    // set of functions, so a faulting interprocedural pass can be
    // unwound (bodies restored, functions it minted removed).
    std::vector<std::pair<Function *, FunctionSnapshot>> snaps;
    std::set<const Function *> preexisting;
    size_t before = 0;
    for (const auto &f : m.functions()) {
        preexisting.insert(f.get());
        if (f->isDeclaration())
            continue;
        snaps.emplace_back(f.get(), FunctionSnapshot::capture(*f));
        before += snaps.back().second.instructionCount();
    }

    Timer t;
    PassResult r = PassResult::unchanged();
    std::string failure = guarded([&] { r = e.mp->run(m, am); });
    bool budgetBlown = false;
    if (failure.empty()) {
        failure = budgetFailure(budget_, t.seconds(), before,
                                m.instructionCount(), "module ");
        budgetBlown = !failure.empty();
    }

    if (failure.empty() && r.changed)
        am.clear();

    if (failure.empty() && verify) {
        VerifyResult vr = verifyModule(m);
        if (!vr.ok())
            failure = "verification failed: " + vr.str();
    }

    if (!failure.empty()) {
        for (auto &[f, snap] : snaps)
            snap.restoreInto(*f);
        // With every pre-existing body restored, nothing can
        // reference functions the pass created; drop them.
        std::vector<Function *> minted;
        for (const auto &f : m.functions())
            if (!preexisting.count(f.get()) && !f->hasUses())
                minted.push_back(f.get());
        for (Function *f : minted)
            m.eraseFunction(f);
        am.clear();
        contain(e, "", failure, budgetBlown);
        return PassResult::unchanged();
    }
    if (r.changed)
        ++NumPassChanges;
    return r;
}

bool
PassManager::run(Module &m, AnalysisManager &am)
{
    changed_.clear();
    containedFailures_.clear();
    timings_.clear();
    timings_.resize(entries_.size());
    for (size_t i = 0; i < entries_.size(); ++i)
        timings_[i].name = entries_[i].name();

    size_t i = 0;
    while (i < entries_.size()) {
        if (entries_[i].mp) {
            Entry &e = entries_[i];
            Timer t;
            PassResult r = applyModulePass(e, m, am);
            timings_[i].seconds += t.seconds();
            timings_[i].invocations += 1;
            if (r.changed)
                timings_[i].changed = true;
            ++i;
            continue;
        }

        // A stage: the maximal run of consecutive function passes.
        // Drive it function-major so analyses computed for a
        // function stay cached across the whole stage.
        size_t stageEnd = i;
        while (stageEnd < entries_.size() && entries_[stageEnd].fp)
            ++stageEnd;

        for (auto &f : m.functions()) {
            if (f->isDeclaration())
                continue;
            for (size_t k = i; k < stageEnd; ++k) {
                Entry &e = entries_[k];
                Timer t;
                PassResult r = applyFunctionPass(e, *f, am, true);
                timings_[k].seconds += t.seconds();
                timings_[k].invocations += 1;
                if (r.changed)
                    timings_[k].changed = true;
            }
        }
        i = stageEnd;
    }

    bool any = false;
    for (const PassTiming &t : timings_) {
        if (!t.changed)
            continue;
        changed_.push_back(t.name);
        any = true;
    }
    return any;
}

bool
PassManager::runOnFunction(Function &f, AnalysisManager &am)
{
    changed_.clear();
    containedFailures_.clear();
    timings_.clear();
    timings_.resize(entries_.size());
    for (size_t i = 0; i < entries_.size(); ++i) {
        timings_[i].name = entries_[i].name();
        if (entries_[i].mp)
            panic("runOnFunction: pipeline contains module pass '%s'",
                  entries_[i].name());
    }

    // No per-application snapshot: the first contained failure ends
    // the pipeline and the caller restores its own pristine copy.
    for (size_t k = 0; k < entries_.size() && containedFailures_.empty();
         ++k) {
        Entry &e = entries_[k];
        Timer t;
        PassResult r = applyFunctionPass(e, f, am, false);
        timings_[k].seconds += t.seconds();
        timings_[k].invocations += 1;
        if (r.changed)
            timings_[k].changed = true;
    }

    bool any = false;
    for (const PassTiming &t : timings_) {
        if (!t.changed)
            continue;
        changed_.push_back(t.name);
        any = true;
    }
    return any;
}

std::string
PassManager::timingReport() const
{
    std::vector<const PassTiming *> rows;
    double total = 0;
    for (const PassTiming &t : timings_) {
        rows.push_back(&t);
        total += t.seconds;
    }
    std::sort(rows.begin(), rows.end(),
              [](const PassTiming *a, const PassTiming *b) {
                  return a->seconds > b->seconds;
              });

    std::string out = "=== Pass timings ===\n";
    for (const PassTiming *t : rows) {
        char line[256];
        std::snprintf(
            line, sizeof(line),
            "%10.3f ms  %5.1f%%  %-14s %zu applications%s\n",
            t->seconds * 1000.0,
            total > 0 ? 100.0 * t->seconds / total : 0.0,
            t->name.c_str(), t->invocations,
            t->changed ? "  (changed)" : "");
        out += line;
    }
    char line[64];
    std::snprintf(line, sizeof(line), "%10.3f ms  total\n",
                  total * 1000.0);
    out += line;
    return out;
}

void
addStandardPasses(PassManager &pm, unsigned level)
{
    if (level == 0)
        return;
    pm.add(createMem2RegPass());
    pm.add(createInstCombinePass());
    pm.add(createSCCPPass());
    pm.add(createSimplifyCFGPass());
    pm.add(createGVNPass());
    pm.add(createADCEPass());
    pm.add(createSimplifyCFGPass());
    if (level >= 2) {
        pm.add(createInlinerPass());
        pm.add(createInstCombinePass());
        pm.add(createSCCPPass());
        pm.add(createGVNPass());
        pm.add(createADCEPass());
        pm.add(createSimplifyCFGPass());
    }
}

void
addFunctionPasses(PassManager &pm, unsigned level)
{
    if (level == 0)
        return;
    pm.add(createMem2RegPass());
    pm.add(createInstCombinePass());
    pm.add(createSCCPPass());
    pm.add(createSimplifyCFGPass());
    pm.add(createGVNPass());
    pm.add(createADCEPass());
    pm.add(createSimplifyCFGPass());
    if (level >= 2) {
        pm.add(createInstCombinePass());
        pm.add(createSCCPPass());
        pm.add(createGVNPass());
        pm.add(createADCEPass());
        pm.add(createSimplifyCFGPass());
    }
}

} // namespace llva
