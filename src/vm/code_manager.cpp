#include "vm/code_manager.h"

#include <cstdio>

#include "analysis/analysis_manager.h"
#include "ir/clone.h"
#include "support/statistic.h"
#include "support/thread_pool.h"
#include "support/timer.h"

namespace llva {

namespace {

Statistic NumTierDowngrades(
    "llee.tier_downgrades",
    "Translation tiers abandoned after a contained fault");
Statistic NumInterpFallbacks(
    "llee.interp_fallbacks",
    "Functions pinned to the interpreter (all native tiers failed)");
Statistic NumPromotions(
    "llee.promotions",
    "Functions promoted to the trace tier at runtime");
Statistic NumPromotionFailures(
    "llee.promotion_failures",
    "Trace-tier promotions abandoned after a contained fault");
Statistic TraceCoveragePct(
    "trace.coverage",
    "Profiled block executions inside formed traces, in percent "
    "points accumulated per promotion");
Statistic NumTraceCacheHits(
    "trace.cache_hits",
    "Trace formations or cached-translation loads that reused an "
    "already-known hot trace head");
Statistic NumRetiredBodies(
    "vm.retired_bodies",
    "Machine-function bodies retired by SMC invalidation, "
    "reinstallation, or promotion");
Statistic NumRetiredChains(
    "vm.retired_chains",
    "Superblock chains retired alongside their bodies");
Statistic NumRetiredReclaimed(
    "vm.retired_reclaimed",
    "Retired bodies and chains freed once no epoch pin could still "
    "reference them");
Statistic NumLiveReplacements(
    "vm.live_replacements",
    "Function bodies swapped by replaceFunctionLive() while the "
    "program kept running");

} // namespace

const MachineFunction *
CodeManager::get(const Function *f)
{
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        auto it = cache_.find(f);
        if (it != cache_.end())
            return it->second.get();
        auto tit = tiers_.find(f);
        if (tit != tiers_.end() && tit->second == kTierInterpreter)
            return nullptr;
    }

    std::unique_lock<std::shared_mutex> lock(mu_);
    // Another thread may have translated (or pinned) while we
    // upgraded the lock.
    auto it = cache_.find(f);
    if (it != cache_.end())
        return it->second.get();
    auto tit = tiers_.find(f);
    if (tit != tiers_.end() && tit->second == kTierInterpreter)
        return nullptr;

    // The ladder optimizes the body in place (and restores it); the
    // cache API stays const because callers never observe a change.
    return translateWithLadder(*const_cast<Function *>(f));
}

const MachineFunction *
CodeManager::translateWithLadder(Function &f)
{
    const unsigned top = opts_.optLevel;
    for (int level = static_cast<int>(top); level >= 0; --level) {
        Timer timer;
        auto mf = translateRung(f, static_cast<unsigned>(level));
        if (mf) {
            seconds_ += timer.seconds();
            ++translated_;
            const MachineFunction *raw = mf.get();
            cache_[&f] = std::move(mf);
            tiers_[&f] = static_cast<uint8_t>(level);
            return raw;
        }
        // This rung failed; drop one level (or fall off the end).
        ++tierDowngrades_;
        ++NumTierDowngrades;
        warn("translation of '%s' failed at -O%d; %s", f.name().c_str(),
             level,
             level > 0 ? "retrying one tier lower"
                       : "falling back to the interpreter");
    }
    tiers_[&f] = kTierInterpreter;
    ++NumInterpFallbacks;
    return nullptr;
}

std::unique_ptr<MachineFunction>
CodeManager::translateRung(Function &f, unsigned level)
{
    // One rung is one transaction over the body: snapshot the
    // pristine body once, optimize in place under the sandbox (which
    // stops at its first contained failure and clones nothing per
    // pass), lay out traces at the trace tier, codegen, restore. The
    // original bytecode stays the single source of truth (lower tiers
    // and the interpreter must see the unoptimized body), and a rung
    // that faulted anywhere is abandoned whole.
    const bool trace = level == kTierTrace;
    const unsigned passes = trace ? opts_.optLevel : level;
    FunctionSnapshot pristine;
    const bool mutates = passes > 0 || trace || bool(hooks_);
    bool failed = false;
    if (mutates) {
        pristine = FunctionSnapshot::capture(f);
        PassManager pm;
        pm.setSandbox(true);
        pm.setVerifyEach(opts_.verifyEach);
        addFunctionPasses(pm, passes);
        if (hooks_.extendPipeline)
            hooks_.extendPipeline(pm, level);
        AnalysisManager am;
        try {
            pm.runOnFunction(f, am);
            failed = !pm.containedFailures().empty();
        } catch (const std::exception &) {
            failed = true;
        }
    }

    std::unique_ptr<MachineFunction> mf;
    if (!failed) {
        try {
            if (trace)
                layoutTraces(f);
            if (hooks_.beforeCodegen)
                hooks_.beforeCodegen(f, level);
            CodeGenStats stats;
            mf = translateFunction(f, target_, opts_, &stats);
            stats_.phiCopiesInserted += stats.phiCopiesInserted;
            stats_.phiCopiesCoalesced += stats.phiCopiesCoalesced;
            stats_.spillsInserted += stats.spillsInserted;
            stats_.reloadsInserted += stats.reloadsInserted;
        } catch (const std::exception &) {
            mf.reset();
        }
    }
    if (mutates)
        pristine.restoreInto(f);
    return mf;
}

void
CodeManager::retireBodyLocked(std::unique_ptr<MachineFunction> mf)
{
    retired_.push_back({std::move(mf), ++epoch_});
    ++NumRetiredBodies;
}

void
CodeManager::retireChainLocked(const MachineFunction *mf)
{
    auto it = chains_.find(mf);
    if (it == chains_.end())
        return;
    // Sever every patched link before retiring: a still-running
    // activation of the old body keeps a valid (block-at-a-time)
    // chain, but no hot path can race through stale superblock
    // links into a body the program just replaced.
    it->second->unlink();
    ++chainsUnlinked_;
    retiredChains_.push_back({std::move(it->second), ++epoch_});
    ++NumRetiredChains;
    chains_.erase(it);
}

void
CodeManager::reclaimLocked()
{
    // A pin taken at epoch P protects exactly the objects retired
    // after it (retirement epoch > P): pointers into anything
    // retired earlier were already unreachable when the pin was
    // taken. An object is freed once no pin predates its
    // retirement.
    uint64_t minPin = pins_.empty() ? UINT64_MAX : *pins_.begin();
    auto sweep = [&](auto &list) {
        size_t kept = 0;
        for (auto &entry : list) {
            if (entry.epoch <= minPin) {
                ++reclaimed_;
                ++NumRetiredReclaimed;
            } else {
                if (kept != size_t(&entry - list.data()))
                    list[kept] = std::move(entry);
                ++kept;
            }
        }
        list.resize(kept);
    };
    sweep(retired_);
    sweep(retiredChains_);
}

uint64_t
CodeManager::pinEpoch()
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    uint64_t pin = epoch_;
    pins_.insert(pin);
    return pin;
}

void
CodeManager::unpinEpoch(uint64_t pin)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = pins_.find(pin);
    LLVA_ASSERT(it != pins_.end(), "unpinning an unknown epoch");
    pins_.erase(it);
    reclaimLocked();
}

size_t
CodeManager::retiredBodies() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    return retired_.size();
}

size_t
CodeManager::retiredChainCount() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    return retiredChains_.size();
}

size_t
CodeManager::reclaimedObjects() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    return reclaimed_;
}

void
CodeManager::invalidateLocked(const Function *f)
{
    // Retire rather than destroy: the simulator may be invalidating
    // a function whose old body still sits in its call frames (SMC
    // affects only *future* invocations, Section 3.4). A fresh
    // translation may also be re-promoted later.
    auto it = cache_.find(f);
    if (it != cache_.end()) {
        retireChainLocked(it->second.get());
        retireBodyLocked(std::move(it->second));
        cache_.erase(it);
    }
    tiers_.erase(f);
    promoteAttempted_.erase(f);
    reclaimLocked();
}

void
CodeManager::invalidate(const Function *f)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    invalidateLocked(f);
}

const MachineFunction *
CodeManager::replaceFunctionLive(const Function *f)
{
    if (!f || f->isDeclaration())
        return nullptr;
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Drop the installed translation, its chain, and any
    // interpreter pin, then walk the ladder again — all under one
    // exclusive section, so no other thread ever observes the gap
    // between the retirement and the fresh installation.
    invalidateLocked(f);
    const MachineFunction *mf =
        translateWithLadder(*const_cast<Function *>(f));
    ++NumLiveReplacements;
    return mf;
}

ChainedFunction *
CodeManager::chainFor(const MachineFunction *mf)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    // Never chain a retired body: a concurrent replacement may have
    // retired mf between the caller's liveness check and this call.
    // Its chains_ entry was dropped with it, and inserting a new one
    // here would outlive the body (dangling key after reclamation).
    auto live = cache_.find(mf->source());
    if (live == cache_.end() || live->second.get() != mf)
        return nullptr;
    auto &slot = chains_[mf];
    if (!slot)
        slot = std::make_unique<ChainedFunction>(mf, target_);
    return slot.get();
}

size_t
CodeManager::translate(const std::vector<const Function *> &fns,
                       unsigned jobs)
{
    std::vector<const Function *> work;
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        for (const Function *f : fns) {
            if (!f || f->isDeclaration() || cache_.count(f))
                continue;
            auto tit = tiers_.find(f);
            if (tit != tiers_.end() &&
                tit->second == kTierInterpreter)
                continue;
            work.push_back(f);
        }
    }
    if (work.empty())
        return 0;

    // Tiered translation optimizes bodies in place and interns
    // constants through the shared module: not re-entrant. Run the
    // ladder serially instead of the parallel fast path.
    if (opts_.optLevel > 0 || hooks_) {
        for (const Function *f : work)
            get(f);
        return work.size();
    }

    // Workers fill index-addressed slots; nothing shared is
    // mutated until the serial install loop below.
    std::vector<std::unique_ptr<MachineFunction>> results(
        work.size());
    std::vector<CodeGenStats> stats(work.size());
    std::vector<double> seconds(work.size(), 0.0);
    parallelFor(work.size(), jobs, [&](size_t i) {
        Timer timer;
        results[i] =
            translateFunction(*work[i], target_, opts_, &stats[i]);
        seconds[i] = timer.seconds();
    });

    std::unique_lock<std::shared_mutex> lock(mu_);
    for (size_t i = 0; i < work.size(); ++i) {
        cache_[work[i]] = std::move(results[i]);
        tiers_[work[i]] = 0;
        ++translated_;
        // Aggregate translator time: the sum of per-function costs,
        // not elapsed wall time (matching the serial accounting).
        seconds_ += seconds[i];
        stats_.phiCopiesInserted += stats[i].phiCopiesInserted;
        stats_.phiCopiesCoalesced += stats[i].phiCopiesCoalesced;
        stats_.spillsInserted += stats[i].spillsInserted;
        stats_.reloadsInserted += stats[i].reloadsInserted;
    }
    return work.size();
}

void
CodeManager::translateAll(const Module &m, unsigned jobs)
{
    std::vector<const Function *> fns;
    for (const auto &f : m.functions())
        if (!f->isDeclaration())
            fns.push_back(f.get());
    translate(fns, jobs);
}

void
CodeManager::install(const Function *f,
                     std::unique_ptr<MachineFunction> mf)
{
    install(f, std::move(mf), opts_.optLevel);
}

void
CodeManager::install(const Function *f,
                     std::unique_ptr<MachineFunction> mf, uint8_t tier)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto old = cache_.find(f);
    if (old != cache_.end()) {
        retireChainLocked(old->second.get());
        retireBodyLocked(std::move(old->second));
        cache_.erase(old);
    }
    cache_[f] = std::move(mf);
    tiers_[f] = tier;
    reclaimLocked();
}

void
CodeManager::markInterpreted(const Function *f)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = cache_.find(f);
    if (it != cache_.end()) {
        retireChainLocked(it->second.get());
        retireBodyLocked(std::move(it->second));
        cache_.erase(it);
    }
    tiers_[f] = kTierInterpreter;
    reclaimLocked();
}

void
CodeManager::setAdaptive(EdgeProfile *profile, uint64_t watermark,
                         ThreadPool *pool)
{
    std::unique_lock<std::shared_mutex> lock(mu_);
    std::lock_guard<std::mutex> plock(profileMu_);
    profile_ = profile;
    watermark_ = watermark;
    pool_ = pool;
}

void
CodeManager::mergeProfile(const EdgeProfile &delta)
{
    std::lock_guard<std::mutex> plock(profileMu_);
    if (profile_)
        profile_->merge(delta);
}

bool
CodeManager::maybePromote(const MachineFunction *running)
{
    const Function *f = running ? running->source() : nullptr;
    if (!f || f->isDeclaration())
        return false;
    // Cheap precheck under the shared lock: this runs on every
    // sampled branch of a profiled execution, and almost always
    // rejects (already attempted, wrong tier, or still cold).
    {
        std::shared_lock<std::shared_mutex> lock(mu_);
        if (!profile_)
            return false;
        if (promoteAttempted_.count(f))
            return false;
        auto it = tiers_.find(f);
        if (it != tiers_.end() && (it->second == kTierInterpreter ||
                                   it->second == kTierTrace))
            return false;
        if (!cache_.count(f))
            return false;
        std::lock_guard<std::mutex> plock(profileMu_);
        if (profile_->functionSamples(running->nameHash()) <
            watermark_)
            return false;
    }

    std::unique_lock<std::shared_mutex> lock(mu_);
    // Re-validate under the exclusive lock: another thread may have
    // promoted, replaced, or invalidated while we upgraded.
    if (!profile_ || promoteAttempted_.count(f))
        return false;
    {
        auto it = tiers_.find(f);
        if (it != tiers_.end() && (it->second == kTierInterpreter ||
                                   it->second == kTierTrace))
            return false;
    }
    if (!cache_.count(f))
        return false;

    // One attempt per function per manager: a failed promotion must
    // not be retried on every subsequent profile event.
    promoteAttempted_.insert(f);

    Function &fn = *const_cast<Function *>(f);
    std::unique_ptr<MachineFunction> mf;
    Timer timer;
    if (pool_) {
        // The job runs on the pool's dedicated worker while this
        // thread blocks: passes intern constants through the shared
        // module, so translation must never overlap other pipeline
        // work. The pool decouples promotion from the dispatch loop
        // without introducing a data race.
        pool_->enqueue([&] { mf = translateRung(fn, kTierTrace); })
            .get();
    } else {
        mf = translateRung(fn, kTierTrace);
    }

    if (!mf) {
        ++promotionFailures_;
        ++NumPromotionFailures;
        warn("trace-tier promotion of '%s' failed; keeping tier -O%u",
             f->name().c_str(),
             static_cast<unsigned>(tiers_.count(f)
                                       ? tiers_.at(f)
                                       : opts_.optLevel));
        return false;
    }
    seconds_ += timer.seconds();
    ++translated_;

    // Atomic install with retirement: the executing activation keeps
    // its (old) body; every future dispatch gets the promoted one.
    // The old body's superblock chain (if any) is unlinked with it.
    auto old = cache_.find(f);
    if (old != cache_.end()) {
        retireChainLocked(old->second.get());
        retireBodyLocked(std::move(old->second));
        cache_.erase(old);
    }
    cache_[f] = std::move(mf);
    tiers_[f] = kTierTrace;
    ++promotions_;
    ++NumPromotions;
    reclaimLocked();
    return true;
}

void
CodeManager::layoutTraces(Function &f)
{
    // Form hot traces from the runtime profile. The profile was
    // gathered over machine code produced by this same deterministic
    // pipeline, so its stable block IDs resolve by name against the
    // freshly optimized body. The trace cache is scoped to this
    // promotion: it holds BasicBlock pointers into the optimized body,
    // which dies when the rung restores its snapshot. Only the stable
    // head IDs outlive it (re-promotion accounting). The profile is
    // read under its own mutex: worker threads may be merging deltas
    // concurrently.
    std::unique_lock<std::mutex> plock(profileMu_);
    std::vector<Trace> traces = formTraces(f, *profile_, TraceOptions{});
    TraceCache cache;
    for (Trace &t : traces) {
        BlockId head = blockId(t.head());
        if (cache.lookup(t.head()) || traceHeads_.count(head))
            ++NumTraceCacheHits;
        traceHeads_.insert(head);
        cache.insert(t);
    }
    lastCoverage_ = cache.coverage(*profile_);
    plock.unlock();
    TraceCoveragePct += static_cast<uint64_t>(lastCoverage_ * 100.0);
    if (opts_.printTraces) {
        for (const Trace &t : cache.traces()) {
            std::string line;
            for (const BasicBlock *bb : t.blocks) {
                if (!line.empty())
                    line += " -> ";
                line += bb->name();
            }
            std::fprintf(stderr, "trace: %s: %s (head count %llu)\n",
                         f.name().c_str(), line.c_str(),
                         (unsigned long long)t.headCount);
        }
        std::fprintf(stderr,
                     "trace: %s: coverage %.2f over %zu trace(s)\n",
                     f.name().c_str(), lastCoverage_, cache.size());
    }
    applyTraceLayout(f, cache.traces());
}

size_t
CodeManager::totalMachineInstructions() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    size_t n = 0;
    for (const auto &[f, mf] : cache_)
        n += mf->instructionCount();
    return n;
}

size_t
CodeManager::totalEncodedBytes() const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    size_t n = 0;
    for (const auto &[f, mf] : cache_) {
        n += encodeFunction(*mf, target_).size();
        // Functions are 16-byte aligned in a linked executable.
        n = (n + 15) / 16 * 16;
    }
    return n;
}

void
CodeManager::forEachCached(
    const std::function<void(const Function *, uint8_t,
                             const MachineFunction *)> &fn) const
{
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto &[f, mf] : cache_) {
        auto tit = tiers_.find(f);
        fn(f,
           tit != tiers_.end() ? tit->second : opts_.optLevel,
           mf.get());
    }
    for (const auto &[f, tier] : tiers_)
        if (tier == kTierInterpreter)
            fn(f, tier, nullptr);
}

} // namespace llva
