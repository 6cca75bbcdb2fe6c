/**
 * @file
 * CodeManager: the translator's code cache. Functions are translated
 * on demand (JIT mode, paper Section 4.1: "the JIT translates
 * functions on demand, so that unused code is not translated") or
 * eagerly (offline mode). Translation wall-clock time is recorded
 * per function — this is the "Translate Time" column of Table 2.
 *
 * SMC support (Section 3.4): invalidating a function simply drops
 * its translation, "forcing it to be regenerated the next time the
 * function is invoked." replaceFunctionLive() is the push-style
 * variant: drop + retranslate in one atomic step, so other threads
 * never observe a translation gap while a function is swapped
 * under them.
 *
 * Tiered degradation: when options request an optimization level,
 * each function is optimized (under the pass sandbox) and code-
 * generated at that level; a tier whose pipeline contains a failure
 * or whose codegen faults is abandoned and the function is
 * retranslated one level lower, down to -O0 and finally the
 * interpreter (get() returns nullptr for interpreter-pinned
 * functions). A fault in one function's translation therefore never
 * takes down the program — it costs that one function performance.
 *
 * Adaptive promotion (Section 4.2): with a runtime profile attached
 * (setAdaptive), a function whose profiled block executions cross
 * the watermark is retranslated at the ladder's top rung —
 * `-O<level>+traces` — which forms hot traces from the profile and
 * applies trace-driven layout before instruction selection. The new
 * body is installed through the same install path; the replaced one
 * is retired, not destroyed, because the simulator may still be
 * executing it (raw MachineFunction pointers live in its frames).
 *
 * Epoch-based reclamation: retired bodies and chains used to
 * accumulate forever — a slow leak under repeated SMC replacement
 * or promotion. Every retirement now advances an epoch counter and
 * tags the retired object with it; every executing simulator pins
 * the epoch current at its entry (pinEpoch/unpinEpoch) for the
 * duration of its activation. A retired object is freed exactly
 * when no pin predates its retirement — i.e. no thread can still
 * hold a frame pointer into it. With no concurrent activations the
 * lists drain to empty on every retire, so single-threaded use is
 * leak-free too.
 *
 * Thread safety: all cache state is guarded by a shared_mutex
 * (readers: dispatch lookups; writers: translation, installation,
 * retirement, reclamation). Translation mutates IR bodies in place
 * (snapshot/restore), so interpreter-tier execution of a function
 * body — the only concurrent IR *reader* — must hold the shared
 * lock (readLock()) for its duration. The attached profile has its
 * own mutex: simulator threads record into thread-local profiles
 * and publish them with mergeProfile(); promotion reads the merged
 * master under the same lock.
 */

#ifndef LLVA_VM_CODE_MANAGER_H
#define LLVA_VM_CODE_MANAGER_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <vector>

#include "codegen/codegen.h"
#include "llee/envelope.h"
#include "support/thread_pool.h"
#include "trace/trace.h"
#include "transforms/pass.h"
#include "vm/chain.h"

namespace llva {

/**
 * Test seams into the per-tier translation pipeline (mirrors the
 * storage layer's FaultInjectingStorage): extendPipeline may append
 * extra (e.g. deliberately faulting) passes per tier; beforeCodegen
 * runs just before instruction selection and may throw to simulate
 * a codegen fault at a given tier.
 */
struct TranslationHooks
{
    std::function<void(PassManager &, unsigned level)> extendPipeline;
    std::function<void(const Function &, unsigned level)> beforeCodegen;

    explicit operator bool() const
    {
        return static_cast<bool>(extendPipeline) ||
               static_cast<bool>(beforeCodegen);
    }
};

class CodeManager
{
  public:
    CodeManager(Target &target, CodeGenOptions opts = {})
        : target_(target), opts_(opts)
    {}

    Target &target() { return target_; }
    const CodeGenOptions &options() const { return opts_; }

    void setHooks(TranslationHooks hooks)
    {
        std::unique_lock<std::shared_mutex> lock(mu_);
        hooks_ = std::move(hooks);
    }

    /**
     * Translation for \p f, translating now if needed — possibly at
     * a degraded tier. Returns nullptr when \p f is pinned to the
     * interpreter (every native tier failed): the caller must
     * interpret it.
     */
    const MachineFunction *get(const Function *f);

    bool
    has(const Function *f) const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return cache_.count(f) != 0;
    }

    /** The currently installed body of \p f, or nullptr — a pure
     *  lookup that never triggers translation (the chaining code
     *  uses it to tell a live body from a retired one). */
    const MachineFunction *
    cached(const Function *f) const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        auto it = cache_.find(f);
        return it == cache_.end() ? nullptr : it->second.get();
    }

    /** Drop a translation (SMC invalidation). */
    void invalidate(const Function *f);

    /**
     * Atomically replace the installed translation of \p f with a
     * freshly translated body while other threads may be executing
     * the old one (paper Section 3.4, live-update). The old body is
     * retired (epoch-tagged, reclaimed once unpinned) and the
     * ladder walks from the top again — including for a function
     * previously pinned to the interpreter, so a replacement whose
     * translation now succeeds un-pins it. Returns the new body, or
     * nullptr if every native tier failed again.
     */
    const MachineFunction *replaceFunctionLive(const Function *f);

    /**
     * Translate every not-yet-cached function in \p fns on up to
     * \p jobs threads. Declarations and cached entries are skipped.
     * Each translation is an independent, re-entrant unit; results
     * are installed serially in input order afterwards, so the
     * cache contents (and all downstream byte output) are identical
     * for any \p jobs. Returns the number translated.
     *
     * With an optimization level (or hooks) set, translation
     * optimizes function bodies in place and is forced serial —
     * passes intern constants through the shared module.
     */
    size_t translate(const std::vector<const Function *> &fns,
                     unsigned jobs = 1);

    /** Eagerly translate every defined function in \p m. */
    void translateAll(const Module &m, unsigned jobs = 1);

    /** Install an externally produced translation (LLEE cache). */
    void install(const Function *f,
                 std::unique_ptr<MachineFunction> mf);

    /** Install with an explicitly known achieved tier. */
    void install(const Function *f,
                 std::unique_ptr<MachineFunction> mf, uint8_t tier);

    // --- Tier ladder ------------------------------------------------------

    /** Pin \p f to the interpreter (tier of last resort). */
    void markInterpreted(const Function *f);

    bool
    isInterpreted(const Function *f) const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        auto it = tiers_.find(f);
        return it != tiers_.end() && it->second == kTierInterpreter;
    }

    /**
     * Tier actually achieved for \p f: the requested level, lower
     * after degradation, kTierInterpreter when pinned. Only
     * meaningful once \p f has been translated or marked.
     */
    uint8_t
    tierOf(const Function *f) const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        auto it = tiers_.find(f);
        return it != tiers_.end() ? it->second : opts_.optLevel;
    }

    /** Tier demotions taken (one per abandoned level). */
    size_t tierDowngrades() const { return tierDowngrades_; }

    // --- Epoch-based reclamation ------------------------------------------

    /**
     * Pin the current epoch: retired bodies/chains whose retirement
     * postdates the pin stay alive until unpinEpoch(). Every
     * executing simulator holds a pin for its whole activation —
     * its call frames hold raw MachineFunction pointers.
     */
    uint64_t pinEpoch();

    /** Release a pin and reclaim whatever became unreachable. */
    void unpinEpoch(uint64_t pin);

    /** Retired bodies currently awaiting reclamation. */
    size_t retiredBodies() const;

    /** Retired chains currently awaiting reclamation. */
    size_t retiredChainCount() const;

    /** Total retired objects (bodies + chains) freed so far. */
    size_t reclaimedObjects() const;

    /**
     * Shared (reader) lock over translation state. Interpreter-tier
     * execution holds this while walking a function's IR: tiered
     * translation mutates bodies in place under the exclusive lock,
     * and the interpreter is the only concurrent IR reader.
     */
    std::shared_lock<std::shared_mutex>
    readLock() const
    {
        return std::shared_lock<std::shared_mutex>(mu_);
    }

    // --- Adaptive promotion -----------------------------------------------

    /**
     * Attach a runtime profile and arm the hotness watermark. \p
     * pool, when non-null, runs promotion jobs (the caller blocks on
     * the result — passes intern constants through the shared
     * module, so translation work must never overlap other pipeline
     * activity; the pool buys a dedicated, warm worker, not
     * concurrency). \p profile must outlive this manager.
     */
    void setAdaptive(EdgeProfile *profile, uint64_t watermark,
                     ThreadPool *pool = nullptr);

    /**
     * Promote the function \p running is a body of to the trace
     * tier if its profiled sample count has crossed the watermark
     * (looked up by the body's cached name hash). Safe to call from
     * the simulator's dispatch loop on every recorded profile
     * sample: each function is attempted at most once per manager,
     * and the currently executing body stays valid (retired, not
     * destroyed). Returns true if a promotion was installed now.
     */
    bool maybePromote(const MachineFunction *running);

    /** Fold a thread-local profile delta into the attached master
     *  profile (no-op without one). Worker threads publish their
     *  samples here so promotion sees fleet-wide heat. */
    void mergeProfile(const EdgeProfile &delta);

    // --- Superblock chaining ----------------------------------------------

    /**
     * The chained (direct-threaded, superblock-linked) form of a
     * trace-tier body, built lazily on first use. Chains live here —
     * not in the simulator — so invalidate()/SMC retirement can
     * unlink them: a retired chain is severed (every patched side
     * exit cleared) and kept alive, never re-linked, while any
     * still-running activation of the old body falls back to
     * block-at-a-time resolution inside it. Returns nullptr when
     * \p mf is no longer the installed body of its source (lost a
     * race with retirement) — never chain a retired body.
     */
    ChainedFunction *chainFor(const MachineFunction *mf);

    /**
     * The live chain of \p mf, or nullptr if none was built yet (or
     * the body was retired). A non-null result proves the body is
     * still the installed trace-tier translation of its source:
     * every path that retires a body (invalidate, reinstall,
     * promotion) drops its chain in the same step, so dispatch can
     * re-derive its chaining state with this single lookup instead
     * of the tier + cache + chain triple.
     */
    ChainedFunction *
    findChain(const MachineFunction *mf) const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        auto it = chains_.find(mf);
        return it == chains_.end() ? nullptr : it->second.get();
    }

    /** Live (non-retired) chained functions. */
    size_t chainedFunctions() const
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        return chains_.size();
    }

    /** Chains unlinked by invalidation/retirement so far. */
    size_t chainsUnlinked() const { return chainsUnlinked_; }

    /** Trace-tier promotions installed. */
    size_t promotions() const { return promotions_; }
    /** Promotions attempted but failed (existing tier kept). */
    size_t promotionFailures() const { return promotionFailures_; }
    /** Coverage of the last formed trace set (0 before any). */
    double lastTraceCoverage() const { return lastCoverage_; }

    // --- Statistics -------------------------------------------------------

    double totalTranslateSeconds() const { return seconds_; }
    size_t functionsTranslated() const { return translated_; }
    const CodeGenStats &stats() const { return stats_; }

    /** Total machine instructions across all cached translations. */
    size_t totalMachineInstructions() const;

    /** Total encoded native bytes across all cached translations. */
    size_t totalEncodedBytes() const;

    /**
     * Enumerate the cache index under the shared lock — cached
     * bodies with their achieved tiers, plus interpreter-pinned
     * functions (tier kTierInterpreter, null body). Checkpointing
     * serializes entries inside the callback so no body can be
     * retired mid-walk.
     */
    void forEachCached(
        const std::function<void(const Function *, uint8_t tier,
                                 const MachineFunction *)> &fn) const;

  private:
    /** Walk the ladder from opts_.optLevel down; installs the result
     *  or pins \p f to the interpreter. Returns the translation
     *  (nullptr when pinned). Caller holds mu_ exclusively. */
    const MachineFunction *translateWithLadder(Function &f);

    /** One rung: optimize (sandboxed) + codegen at \p level; at
     *  kTierTrace (`-O<optLevel>+traces`) also form traces from the
     *  attached profile and apply trace layout before codegen.
     *  Returns nullptr if this tier failed. Leaves the function body
     *  exactly as found. */
    std::unique_ptr<MachineFunction> translateRung(Function &f,
                                                   unsigned level);

    /** The trace tier's layout step over the optimized body. */
    void layoutTraces(Function &f);

    // The following helpers assume mu_ is held exclusively.
    void invalidateLocked(const Function *f);
    void retireBodyLocked(std::unique_ptr<MachineFunction> mf);
    void retireChainLocked(const MachineFunction *mf);
    void reclaimLocked();

    Target &target_;
    CodeGenOptions opts_;
    TranslationHooks hooks_;
    mutable std::shared_mutex mu_;
    std::map<const Function *, std::unique_ptr<MachineFunction>>
        cache_;
    std::map<const Function *, uint8_t> tiers_;
    size_t tierDowngrades_ = 0;
    double seconds_ = 0;
    size_t translated_ = 0;
    CodeGenStats stats_;

    // Adaptive promotion state. Replaced translations are retired
    // here (never destroyed mid-run): the simulator's call frames
    // hold raw MachineFunction pointers into the old body. The
    // TraceCache itself is scoped inside each promotion — it indexes
    // BasicBlock pointers of the *optimized* body, which die when
    // the snapshot is restored; only stable head IDs persist here.
    mutable std::mutex profileMu_; ///< guards *profile_ contents
    EdgeProfile *profile_ = nullptr;
    uint64_t watermark_ = 0;
    ThreadPool *pool_ = nullptr;
    std::set<BlockId> traceHeads_;
    std::set<const Function *> promoteAttempted_;

    // Epoch-tagged retirement lists (see file comment).
    struct RetiredBody
    {
        std::unique_ptr<MachineFunction> mf;
        uint64_t epoch;
    };
    struct RetiredChain
    {
        std::unique_ptr<ChainedFunction> chain;
        uint64_t epoch;
    };
    uint64_t epoch_ = 0;
    std::multiset<uint64_t> pins_;
    std::vector<RetiredBody> retired_;
    std::vector<RetiredChain> retiredChains_;
    size_t reclaimed_ = 0;

    std::map<const MachineFunction *, std::unique_ptr<ChainedFunction>>
        chains_;
    size_t chainsUnlinked_ = 0;
    size_t promotions_ = 0;
    size_t promotionFailures_ = 0;
    double lastCoverage_ = 0;
};

} // namespace llva

#endif // LLVA_VM_CODE_MANAGER_H
