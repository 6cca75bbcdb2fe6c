/**
 * @file
 * Pass framework: the optimization pipeline that runs over virtual
 * object code at compile-, link-, install-, run-, or idle-time
 * (paper Section 4.2's four optimization opportunities all operate
 * on this same representation).
 *
 * The pipeline is staged and per-function: consecutive function
 * passes form a stage that is driven function-at-a-time over a
 * shared AnalysisManager, so an analysis computed by one pass
 * (e.g. the dominator tree mem2reg builds) is still hot when the
 * next pass asks for it. Every pass reports what it preserved; the
 * manager invalidates exactly the rest. Module passes are stage
 * barriers.
 */

#ifndef LLVA_TRANSFORMS_PASS_H
#define LLVA_TRANSFORMS_PASS_H

#include <memory>
#include <string>
#include <vector>

#include "analysis/analysis_manager.h"
#include "ir/module.h"

namespace llva {

/**
 * What one pass application did: whether the IR changed, and which
 * cached analyses survived. The two are independent — GVN deletes
 * instructions (changed) without touching the CFG (dominators
 * preserved), while a no-op SimplifyCFG run preserves everything.
 */
struct PassResult
{
    bool changed = false;
    PreservedAnalyses preserved = PreservedAnalyses::all();

    /** IR untouched; everything stays cached. */
    static PassResult
    unchanged()
    {
        return {false, PreservedAnalyses::all()};
    }

    /** IR changed; \p pa says what is still valid. */
    static PassResult
    modified(PreservedAnalyses pa)
    {
        return {true, pa};
    }
};

/** A transformation applied to one function at a time. */
class FunctionPass
{
  public:
    virtual ~FunctionPass() = default;

    /**
     * Transform \p f, taking analyses from \p am instead of
     * computing them locally. Implementations must not claim to
     * preserve an analysis they invalidated (the verifying pass
     * manager cross-checks this in tests).
     */
    virtual PassResult run(Function &f, AnalysisManager &am) = 0;

    virtual const char *name() const = 0;
};

/** A whole-module (interprocedural) transformation. */
class ModulePass
{
  public:
    virtual ~ModulePass() = default;

    virtual PassResult run(Module &m, AnalysisManager &am) = 0;

    virtual const char *name() const = 0;
};

/** Wall-clock cost of one pipeline entry across the last run. */
struct PassTiming
{
    std::string name;
    double seconds = 0;
    /** Individual applications (functions visited, or 1 per module
     *  pass). */
    size_t invocations = 0;
    bool changed = false;
};

/**
 * Resource ceiling for one sandboxed pass application. A pass that
 * exceeds it is treated exactly like a faulting pass (see
 * PassManager::setSandbox). Wall clock is necessarily checked after
 * the pass returns (passes are not preemptible), so the budget
 * bounds damage per application, not the absolute latency of one.
 */
struct PassBudget
{
    /** Max wall-clock seconds for a single application. */
    double maxSeconds = 5.0;
    /** Max IR instruction growth factor for a single application. */
    double maxGrowth = 8.0;
    /** Functions smaller than this may always grow up to it (a
     *  3-instruction function legitimately triples). */
    size_t growthFloor = 512;
};

/** Identity of one contained pass failure (sandbox telemetry). */
struct ContainedFailure
{
    std::string pass;
    std::string unit; ///< function name; empty for a module pass
    std::string reason;
};

/**
 * Deterministic global pass-application counter (LLVM-style
 * -opt-bisect-limit). When a limit is set, every pass application
 * process-wide draws the next index; applications whose index
 * exceeds the limit are skipped. Because pipelines run passes in a
 * deterministic serial order, an output difference can be
 * binary-searched over the limit to the exact application — and
 * description() names it.
 */
class OptBisect
{
  public:
    /** Enable with a limit (>= 0); negative disables. Resets the
     *  counter and the recorded decisions. */
    static void setLimit(int64_t limit);
    static int64_t limit();
    static bool enabled();

    /** Applications drawn since the limit was set. */
    static int64_t count();

    /** Draw the next index for (pass, unit); true = run it. Records
     *  the decision and echoes it to stderr, like LLVM. */
    static bool shouldRun(const char *pass, const std::string &unit);

    /** "pass on unit" for a 1-based application index ("" if out of
     *  range or bisect disabled). */
    static std::string description(int64_t index);
};

/**
 * Runs a sequence of passes as a staged per-function pipeline.
 * Consecutive function passes are applied function-major (all
 * stage passes to one function before moving to the next) so the
 * AnalysisManager cache stays hot; module passes act as barriers
 * and flush the cache when they change anything. Optionally
 * verifies after each pass application (used heavily in tests).
 */
class PassManager
{
  public:
    void
    add(std::unique_ptr<FunctionPass> p)
    {
        entries_.push_back({std::move(p), nullptr});
    }

    void
    add(std::unique_ptr<ModulePass> p)
    {
        entries_.push_back({nullptr, std::move(p)});
    }

    void setVerifyEach(bool v) { verifyEach_ = v; }

    /**
     * Fault containment: a pass application that throws, breaks the
     * verifier (under verify-each), or blows its budget is recorded
     * as a ContainedFailure instead of escaping. run() snapshots each
     * unit before every application, restores it on failure and
     * continues without that application; runOnFunction() takes no
     * snapshot (see there). Off by default — batch tools want a
     * faulting pass to be loud; the runtime translator wants it
     * contained.
     */
    void setSandbox(bool v) { sandbox_ = v; }
    bool sandbox() const { return sandbox_; }

    void setBudget(const PassBudget &b) { budget_ = b; }
    const PassBudget &budget() const { return budget_; }

    /** Failures contained by the sandbox in the last run. */
    const std::vector<ContainedFailure> &containedFailures() const
    {
        return containedFailures_;
    }

    /** Run all passes; returns true if anything changed. */
    bool run(Module &m);

    /** Run with an external AnalysisManager (tests, pipelining). */
    bool run(Module &m, AnalysisManager &am);

    /**
     * Run only the function passes over a single function (the tier
     * ladder retranslates one function at a time). Panics if the
     * pipeline contains a module pass. Under sandbox the whole run
     * is one transaction owned by the caller: nothing is cloned per
     * application, the first contained failure stops the pipeline,
     * and \p f is left as the failing pass left it. A caller that
     * sees containedFailures() non-empty must restore \p f from its
     * own snapshot taken before the run.
     */
    bool runOnFunction(Function &f, AnalysisManager &am);

    /** Names of passes that reported changes in the last run. */
    const std::vector<std::string> &changedPasses() const
    {
        return changed_;
    }

    /** Per-pass wall-clock timing of the last run, pipeline order. */
    const std::vector<PassTiming> &timings() const
    {
        return timings_;
    }

    /** The `-time-passes` report for the last run. */
    std::string timingReport() const;

  private:
    struct Entry
    {
        std::unique_ptr<FunctionPass> fp;
        std::unique_ptr<ModulePass> mp;

        const char *
        name() const
        {
            return fp ? fp->name() : mp->name();
        }
    };

    void verifyAfter(Module &m, const Entry &e);

    /** One sandboxed/bisected function-pass application; with
     *  \p restore a contained failure restores \p f from a
     *  per-application snapshot. */
    PassResult applyFunctionPass(const Entry &e, Function &f,
                                 AnalysisManager &am, bool restore);
    /** One sandboxed/bisected module-pass application. */
    PassResult applyModulePass(const Entry &e, Module &m,
                               AnalysisManager &am);
    /** Record one contained failure (unit "" = module pass). */
    void contain(const Entry &e, const std::string &unit,
                 const std::string &failure, bool budgetBlown);

    std::vector<Entry> entries_;
    std::vector<std::string> changed_;
    std::vector<PassTiming> timings_;
    std::vector<ContainedFailure> containedFailures_;
    PassBudget budget_;
    bool verifyEach_ = false;
    bool sandbox_ = false;
};

// Factory functions for the standard passes.
std::unique_ptr<FunctionPass> createMem2RegPass();
std::unique_ptr<FunctionPass> createSCCPPass();
std::unique_ptr<FunctionPass> createDCEPass();
std::unique_ptr<FunctionPass> createADCEPass();
std::unique_ptr<FunctionPass> createGVNPass();
std::unique_ptr<FunctionPass> createInstCombinePass();
std::unique_ptr<FunctionPass> createSimplifyCFGPass();
std::unique_ptr<ModulePass> createInlinerPass(unsigned threshold = 40);
/** Demote phis to stack slots (models naive front-end output). */
std::unique_ptr<FunctionPass> createReg2MemPass();
/**
 * Automatic Pool Allocation (Section 5.1): partition the heap into
 * one pool per disjoint data-structure instance found by the
 * points-to analysis.
 */
std::unique_ptr<ModulePass> createPoolAllocationPass();

/**
 * The standard optimization pipeline.
 *  - level 0: nothing.
 *  - level 1: mem2reg, instcombine, SCCP, GVN, ADCE, simplifycfg.
 *  - level 2: level 1 plus inlining and a second scalar round
 *    (the "link-time interprocedural" configuration of Section 4.2).
 */
void addStandardPasses(PassManager &pm, unsigned level);

/**
 * The function-pass subset of the standard pipeline (no inliner; the
 * tier ladder retranslates one function at a time, so module passes
 * cannot apply). Level 2 adds the second scalar round.
 */
void addFunctionPasses(PassManager &pm, unsigned level);

} // namespace llva

#endif // LLVA_TRANSFORMS_PASS_H
