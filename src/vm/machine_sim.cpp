#include "vm/machine_sim.h"

#include "support/statistic.h"

namespace llva {

// Defined in interpreter.cpp — both engines count failed trap
// deliveries into one counter (the registry resolves names to the
// first registrant, so a second definition would be shadowed).
extern Statistic NumTrapHandlerMissing;

namespace {

constexpr size_t kMaxCallDepth = 2048;

Statistic NumProfileSamples(
    "llee.profile_samples",
    "Block executions recorded into the runtime edge profile");

Statistic NumPauses(
    "vm.pauses",
    "Cooperative pauses taken at a dispatch boundary");

/** An invoke-style call site: a call with explicit handler blocks. */
bool
isInvokeSite(const MachineInstr &mi)
{
    if (!mi.isCall)
        return false;
    unsigned blocks = 0;
    for (const MOperand &op : mi.ops)
        if (op.kind == MOperand::Block)
            ++blocks;
    return blocks >= 2;
}

MachineBasicBlock *
invokeBlockOperand(const MachineInstr &mi, unsigned which)
{
    unsigned seen = 0;
    for (const MOperand &op : mi.ops) {
        if (op.kind != MOperand::Block)
            continue;
        if (seen == which)
            return op.block;
        ++seen;
    }
    panic("invoke site lacks handler blocks");
}

/** Unpins an activation's reclamation epoch unless the pin was
 *  handed off to a paused activation. */
struct PinGuard
{
    CodeManager &cm;
    uint64_t pin;
    bool active = true;

    PinGuard(CodeManager &c, uint64_t p) : cm(c), pin(p) {}
    PinGuard(const PinGuard &) = delete;
    PinGuard &operator=(const PinGuard &) = delete;
    void release() { active = false; }
    ~PinGuard()
    {
        if (active)
            cm.unpinEpoch(pin);
    }
};

} // namespace

MachineSimulator::~MachineSimulator()
{
    if (hasPausedPin_)
        code_.unpinEpoch(pausedPin_);
}

ExecResult
MachineSimulator::run(const Function *f,
                      const std::vector<RtValue> &args)
{
    ExecResult result = runInternal(f, args);

    // Trap-handler dispatch (paper Section 3.5).
    if (result.trap != TrapKind::None) {
        unsigned trapno = static_cast<unsigned>(result.trap);
        uint64_t handler = ctx_.trapHandler(trapno);
        if (handler) {
            if (const Function *hf =
                    ctx_.memory().functionAt(handler)) {
                std::vector<RtValue> hargs = {
                    RtValue::ofInt(trapno), RtValue::ofInt(0)};
                ExecResult hr = runInternal(hf, hargs);
                result.instructionsExecuted = executed_;
                // The handler's own outcome must not be swallowed:
                // a trap raised inside the handler supersedes the
                // trap it was handling, and an unwind escaping the
                // handler surfaces as an escaped unwind.
                if (hr.trap != TrapKind::None)
                    result.trap = hr.trap;
                if (hr.unwound)
                    result.unwound = true;
            } else {
                // A registered address that no longer names a
                // function (SMC moved it, or it was bogus) means
                // the handler silently never runs — count it.
                ++NumTrapHandlerMissing;
            }
        }
    }
    return result;
}

ExecResult
MachineSimulator::resume()
{
    LLVA_ASSERT(suspended_.valid,
                "resume() without a paused activation");
    resuming_ = true;
    return run(suspended_.f, {});
}

ExecResult
MachineSimulator::interpretFallback(const Function *f,
                                    const std::vector<RtValue> &args,
                                    uint64_t stackBase)
{
    Interpreter interp(ctx_);
    if (limit_) {
        // Hand the interpreter exactly the remaining budget. A
        // drained budget (executed_ >= limit_) must not buy a free
        // instruction: any defined function executes at least one,
        // so the handoff itself exceeds the limit.
        if (executed_ >= limit_)
            fatal("simulator instruction limit exceeded");
        interp.setInstructionLimit(limit_ - executed_);
    }
    ExecResult r;
    {
        // The interpreter walks the function's IR, and tiered
        // translation mutates IR bodies in place (under the
        // exclusive lock): hold the shared lock for the duration of
        // the interpreted call so no concurrent replacement can
        // optimize the body out from under the walk.
        auto lock = code_.readLock();
        r = interp.invoke(f, args, stackBase);
    }
    executed_ += r.instructionsExecuted;
    interpreted_ += r.instructionsExecuted;
    // The interpreted code may have requested SMC invalidations;
    // apply them before native dispatch resumes.
    for (const Function *inv : ctx_.takeInvalidations())
        code_.invalidate(inv);
    return r;
}

ExecResult
MachineSimulator::runInternal(const Function *f,
                              const std::vector<RtValue> &args)
{
    Target &target = code_.target();
    ExecResult result;

    const bool resuming = resuming_;
    resuming_ = false;

    // Pin the reclamation epoch for this whole activation: the call
    // frames below hold raw MachineFunction pointers that a
    // concurrent replaceFunctionLive()/promotion may retire. A
    // resumed activation adopts the pin its pause kept alive.
    uint64_t pin;
    if (resuming && hasPausedPin_) {
        pin = pausedPin_;
        hasPausedPin_ = false;
    } else {
        pin = code_.pinEpoch();
    }
    PinGuard pinGuard(code_, pin);

    SimState state;
    const MachineFunction *mf = nullptr;
    MachineBasicBlock *block = nullptr;
    size_t index = 0;
    std::vector<Frame> frames;

    if (resuming) {
        Suspended s = std::move(suspended_);
        suspended_ = Suspended{};
        f = s.f;
        state = s.state;
        frames = std::move(s.frames);
        mf = s.mf;
        block = s.block;
        index = s.index;
        // The context may be a different process than the one that
        // checkpointed: re-wire the transient pointers.
        state.mem = &ctx_.memory();
        state.globalAddrs = &ctx_.globalAddrs();
    } else {
        // Apply pending SMC invalidations before dispatch.
        for (const Function *inv : ctx_.takeInvalidations())
            code_.invalidate(inv);
        if (const Function *repl = ctx_.redirectFor(f))
            f = repl;

        state.mem = &ctx_.memory();
        state.globalAddrs = &ctx_.globalAddrs();
        state.sp = ctx_.memory().stackTop() - 4096; // synthetic caller

        target.writeArgs(state, f->functionType(), args);

        mf = code_.get(f);
        if (!mf) {
            // The entry function itself is pinned to the interpreter
            // tier; run it there with the default stack base.
            ExecResult r = interpretFallback(f, args, 0);
            r.instructionsExecuted = executed_;
            return r;
        }
        block = mf->blocks().front().get();
    }

    const bool threaded = dispatch_ == Dispatch::Threaded;

    // Superblock chaining state: non-null while the current frame
    // runs the live trace-tier body of its function under threaded
    // dispatch.
    ChainedFunction *chain = nullptr;
    ChainedBlock *cb = nullptr;

    // Profile hook: record a block entry (and, within one function,
    // the edge taken into it). Machine block names mirror the source
    // blocks' names, so these are the same stable IDs the trace
    // formation resolves on the IR. `from == nullptr` marks entries
    // with no intra-function predecessor (call dispatch, invoke
    // resumption). Threaded dispatch uses the hashes cached at
    // translation time; the legacy engine keeps its original
    // rehash-per-event cost as the measurable baseline. Events are
    // recorded every sampleInterval_-th occurrence with matching
    // weight, so totals stay in execution units.
    auto noteBlock = [&](const MachineFunction *in,
                         const MachineBasicBlock *from,
                         const MachineBasicBlock *to) {
        if (!profile_)
            return;
        if (--sampleCountdown_)
            return;
        sampleCountdown_ = sampleInterval_;
        if (threaded) {
            profile_->noteId(
                from ? BlockId{in->nameHash(), from->nameHash()}
                     : BlockId{},
                BlockId{in->nameHash(), to->nameHash()},
                sampleInterval_);
        } else {
            uint64_t fnHash = functionId(in->name());
            profile_->noteId(
                from ? BlockId{fnHash, fnv1a(from->name())}
                     : BlockId{},
                BlockId{fnHash, fnv1a(to->name())}, sampleInterval_);
        }
        NumProfileSamples += sampleInterval_;
    };


    // Re-derive the chaining state after any control transfer that
    // may have changed the current function (call, return, unwind)
    // or retired its body (SMC invalidation, promotion). Only the
    // *live* body of a trace-tier function chains: a retired body
    // keeps executing, unchained, until its activation ends.
    auto syncChain = [&]() {
        chain = nullptr;
        cb = nullptr;
        if (!threaded)
            return;
        // Fast path for the steady state (every call/return runs
        // through here): one lookup resolves an already-built live
        // chain. The tier + installed-body checks only run when
        // that misses, to decide first-time chain creation.
        chain = code_.findChain(mf);
        if (!chain) {
            if (code_.tierOf(mf->source()) != kTierTrace)
                return;
            if (code_.cached(mf->source()) != mf)
                return;
            // chainFor() re-validates liveness under the exclusive
            // lock and refuses to chain a body retired since the
            // checks above (lost race with a concurrent
            // replacement): keep executing it unchained.
            chain = code_.chainFor(mf);
            if (!chain)
                return;
        }
        cb = chain->blockFor(block);
    };

    // Park the activation: save the resume position (about to
    // execute block->instrs()[index]), hand the epoch pin to the
    // suspended state, and surface a paused result.
    auto suspendHere = [&]() -> ExecResult {
        suspended_.valid = true;
        suspended_.f = f;
        suspended_.state = state;
        suspended_.frames = frames;
        suspended_.mf = mf;
        suspended_.block = block;
        suspended_.index = index;
        pauseFlag_.store(false, std::memory_order_relaxed);
        pauseAt_.store(0, std::memory_order_relaxed);
        pausedPin_ = pin;
        hasPausedPin_ = true;
        pinGuard.release();
        ++NumPauses;
        result.paused = true;
        result.instructionsExecuted = executed_;
        return result;
    };

    if (!resuming)
        noteBlock(mf, nullptr, block);
    syncChain();

    // Pop machine frames to the nearest invoke-style call site and
    // resume at its handler block; false if the unwind escapes.
    auto unwindFrames = [&]() -> bool {
        while (!frames.empty()) {
            Frame fr = frames.back();
            frames.pop_back();
            const MachineInstr &site = *fr.block->instrs()[fr.index];
            if (isInvokeSite(site)) {
                mf = fr.mf;
                state.sp = fr.spAtCall;
                block = invokeBlockOperand(site, 1);
                index = 0;
                noteBlock(mf, nullptr, block);
                syncChain();
                return true;
            }
        }
        return false;
    };

    while (true) {
        // Cooperative pause point: every dispatch boundary of the
        // unchained engines, plus every block transition of the
        // chained fast path below.
        {
            uint64_t pauseAt =
                pauseAt_.load(std::memory_order_relaxed);
            if ((pauseAt && executed_ >= pauseAt) ||
                pauseFlag_.load(std::memory_order_relaxed))
                return suspendHere();
        }

        const MachineInstr *mip = nullptr;

        if (cb) {
            // Superblock fast path: cached handlers over flattened
            // blocks, transitions through patched links — no map
            // lookups, no hashing, no dispatch switch. Falls out
            // only on a call/return/trap/unwind side exit. Chained
            // blocks are pointer-stable and their code arrays never
            // resize after build, so the walk stays in registers;
            // `index` is synced back on every exit.
            ChainedInstr *ip = cb->code.data() + index;
            const ChainedInstr *end =
                cb->code.data() + cb->code.size();
            // The instruction counter and the profile-sampling
            // countdown live in locals for the duration of the
            // inner loop: the indirect handler call clobbers
            // memory, so member fields would be reloaded and
            // stored on every instruction, while loop-local state
            // survives in callee-saved registers. Both are synced
            // back on every exit from the loop. With no limit set
            // the sentinel makes the budget check a single
            // never-taken compare.
            uint64_t executed = executed_;
            const uint64_t limit = limit_ ? limit_ : ~uint64_t(0);
            uint64_t countdown = sampleCountdown_;
            EdgeProfile *profile = profile_;
            // Block-entry profile event over the cached IDs; the
            // same sampling discipline as noteBlock, against the
            // loop-local countdown.
            auto noteChained = [&](const ChainedBlock *from,
                                   const ChainedBlock *to) {
                if (!profile)
                    return;
                if (--countdown)
                    return;
                countdown = sampleInterval_;
                profile_->noteId(from->id, to->id, sampleInterval_);
                NumProfileSamples += sampleInterval_;
            };
            // Pause check at a chained block transition, where the
            // resume position is exactly (new block, index 0).
            auto pauseHere = [&]() {
                uint64_t pauseAt =
                    pauseAt_.load(std::memory_order_relaxed);
                if (!(pauseAt && executed >= pauseAt) &&
                    !pauseFlag_.load(std::memory_order_relaxed))
                    return false;
                index = 0;
                executed_ = executed;
                sampleCountdown_ = countdown;
                return true;
            };
            bool pauseNow = false;
            for (;;) {
                if (ip == end) {
                    // Links are release-published; a null read just
                    // takes the slow (patching) path.
                    ChainedBlock *next =
                        cb->fall.load(std::memory_order_acquire);
                    if (!next)
                        next = chain->linkFallthrough(cb);
                    noteChained(cb, next);
                    cb = next;
                    block = cb->mbb;
                    ip = cb->code.data();
                    end = ip + cb->code.size();
                    if (pauseHere()) {
                        pauseNow = true;
                        break;
                    }
                    continue;
                }
                if (++executed > limit) {
                    index = size_t(ip - cb->code.data());
                    executed_ = executed;
                    sampleCountdown_ = countdown;
                    fatal("simulator instruction limit exceeded");
                }
                state.next = SimState::Next::Fall;
                ip->fn(*ip->mi, state);
                if (state.next == SimState::Next::Fall) {
                    ++ip;
                    continue;
                }
                if (state.next == SimState::Next::Branch) {
                    ChainedInstr &ci = *ip;
                    ChainedBlock *link =
                        ci.link.load(std::memory_order_acquire);
                    ChainedBlock *next =
                        link && link->mbb == state.branchTarget
                            ? link
                            : chain->linkBranch(ci,
                                                state.branchTarget);
                    noteChained(cb, next);
                    cb = next;
                    block = cb->mbb;
                    ip = cb->code.data();
                    end = ip + cb->code.size();
                    if (pauseHere()) {
                        pauseNow = true;
                        break;
                    }
                    continue;
                }
                mip = ip->mi;
                index = size_t(ip - cb->code.data());
                executed_ = executed;
                sampleCountdown_ = countdown;
                break;
            }
            if (pauseNow)
                return suspendHere();
        } else {
            if (index >= block->instrs().size()) {
                // Elided fallthrough jump: continue with the next
                // block in layout order.
                size_t next = block->index() + 1;
                LLVA_ASSERT(next < mf->blocks().size(),
                            "machine function fell off the end (%s)",
                            mf->name().c_str());
                MachineBasicBlock *prev = block;
                block = mf->blocks()[next].get();
                index = 0;
                noteBlock(mf, prev, block);
                continue;
            }
            const MachineInstr &mi = *block->instrs()[index];
            ++executed_;
            if (limit_ && executed_ > limit_)
                fatal("simulator instruction limit exceeded");
            if (threaded) {
                // Direct-threaded dispatch: resolve the handler
                // once, then one indirect call per execution. Only
                // next is re-armed — handlers write every consumer
                // field of the Next value they request. The cache
                // slot is a relaxed atomic: concurrent simulators
                // racing here store the same deterministic handler.
                ExecFn fn = mi.exec.load(std::memory_order_relaxed);
                if (!fn) {
                    fn = target.handlerFor(mi);
                    mi.exec.store(fn, std::memory_order_relaxed);
                }
                state.next = SimState::Next::Fall;
                fn(mi, state);
            } else {
                state.reset();
                target.execute(mi, state);
            }
            mip = &mi;
        }

        const MachineInstr &mi = *mip;
        switch (state.next) {
          case SimState::Next::Fall:
            ++index;
            break;

          case SimState::Next::Branch:
            noteBlock(mf, block, state.branchTarget);
            block = state.branchTarget;
            index = 0;
            // Branches carry the loop back-edges, so this is where a
            // function's sample count can cross the watermark; the
            // running activation keeps its body (the replaced
            // translation is retired, not destroyed).
            if (profile_)
                code_.maybePromote(mf->source());
            break;

          case SimState::Next::Trap:
            result.trap = state.trapKind;
            result.instructionsExecuted = executed_;
            return result;

          case SimState::Next::Return: {
            if (frames.empty()) {
                result.value = target.readReturn(
                    state, f->functionType()->returnType());
                result.instructionsExecuted = executed_;
                return result;
            }
            Frame fr = frames.back();
            frames.pop_back();
            mf = fr.mf;
            const MachineInstr &site =
                *fr.block->instrs()[fr.index];
            if (isInvokeSite(site)) {
                block = invokeBlockOperand(site, 0);
                index = 0;
                noteBlock(mf, nullptr, block);
            } else {
                block = fr.block;
                index = fr.index + 1;
            }
            syncChain();
            break;
          }

          case SimState::Next::Call: {
            const Function *callee = state.callTarget;
            if (!callee) {
                callee = ctx_.memory().functionAt(state.callAddr);
                if (!callee) {
                    result.trap = TrapKind::BadIndirectCall;
                    result.instructionsExecuted = executed_;
                    return result;
                }
            }
            if (const Function *repl = ctx_.redirectFor(callee))
                callee = repl;

            if (callee->isDeclaration()) {
                const RuntimeHandler *h =
                    ctx_.handlerFor(callee->name());
                if (!h)
                    fatal("call to unresolved external %%%s",
                          callee->name().c_str());
                std::vector<RtValue> hargs =
                    target.readArgs(state, callee->functionType());
                RtValue rv = (*h)(ctx_, hargs);
                // Consume any pending SMC invalidations the handler
                // produced before the next dispatch.
                for (const Function *inv :
                     ctx_.takeInvalidations())
                    code_.invalidate(inv);
                // A handler that rejected its arguments raises a
                // recoverable trap instead of aborting: surface it
                // through the same trap-dispatch path hardware
                // traps take (paper Section 3.5).
                TrapKind pending = ctx_.takePendingTrap();
                if (pending != TrapKind::None) {
                    result.trap = pending;
                    result.instructionsExecuted = executed_;
                    return result;
                }
                target.writeReturn(
                    state, callee->functionType()->returnType(),
                    rv);
                if (isInvokeSite(mi)) {
                    block = invokeBlockOperand(mi, 0);
                    index = 0;
                    noteBlock(mf, nullptr, block);
                } else {
                    ++index;
                }
                // The handler may have invalidated this very
                // function: its chain is now severed and must not
                // be re-entered.
                syncChain();
                break;
            }

            if (frames.size() >= kMaxCallDepth ||
                state.sp < ctx_.memory().stackLimit() + 4096) {
                result.trap = TrapKind::StackOverflow;
                result.instructionsExecuted = executed_;
                return result;
            }

            const MachineFunction *cmf = code_.get(callee);
            if (!cmf) {
                // Callee is pinned to the interpreter tier: bridge
                // the call — read the arguments the native caller
                // set up, interpret with allocas below the caller's
                // stack pointer, and write the return back into the
                // native calling convention.
                std::vector<RtValue> cargs =
                    target.readArgs(state, callee->functionType());
                ExecResult r =
                    interpretFallback(callee, cargs, state.sp);
                if (r.trap != TrapKind::None) {
                    result.trap = r.trap;
                    result.instructionsExecuted = executed_;
                    return result;
                }
                if (r.unwound) {
                    if (!unwindFrames()) {
                        result.unwound = true;
                        result.instructionsExecuted = executed_;
                        return result;
                    }
                    break;
                }
                target.writeReturn(
                    state, callee->functionType()->returnType(),
                    r.value);
                if (isInvokeSite(mi)) {
                    block = invokeBlockOperand(mi, 0);
                    index = 0;
                    noteBlock(mf, nullptr, block);
                } else {
                    ++index;
                }
                // interpretFallback applied any invalidations the
                // interpreted code requested.
                syncChain();
                break;
            }

            frames.push_back({mf, block, index, state.sp});
            mf = cmf;
            block = mf->blocks().front().get();
            index = 0;
            noteBlock(mf, nullptr, block);
            syncChain();
            break;
          }

          case SimState::Next::Unwind: {
            // Pop frames to the nearest invoke-style call site.
            if (!unwindFrames()) {
                result.unwound = true;
                result.instructionsExecuted = executed_;
                return result;
            }
            break;
          }
        }
    }
}

void
MachineSimulator::serializeSuspended(ByteWriter &w) const
{
    LLVA_ASSERT(suspended_.valid,
                "no suspended activation to serialize");
    const Suspended &s = suspended_;
    w.writeString(s.f->name());
    w.writeU64(executed_);
    w.writeU64(interpreted_);

    const SimState &st = s.state;
    for (uint64_t v : st.ireg)
        w.writeU64(v);
    for (double v : st.freg)
        w.writeDouble(v);
    w.writeU64(static_cast<uint64_t>(st.ccSA));
    w.writeU64(static_cast<uint64_t>(st.ccSB));
    w.writeU64(st.ccUA);
    w.writeU64(st.ccUB);
    w.writeDouble(st.ccFA);
    w.writeDouble(st.ccFB);
    w.writeByte(st.ccFP ? 1 : 0);
    w.writeU64(st.sp);

    // Positions are (function name, block index, instruction index)
    // plus the shape of what they index into: restore retranslates
    // and must prove the regenerated body has the recorded shape
    // before trusting raw indices into it.
    auto writePos = [&](const MachineFunction *mf,
                        const MachineBasicBlock *bb, size_t idx) {
        w.writeString(mf->name());
        w.writeVaruint(mf->blocks().size());
        w.writeVaruint(bb->index());
        w.writeVaruint(bb->instrs().size());
        w.writeVaruint(idx);
    };
    writePos(s.mf, s.block, s.index);
    w.writeVaruint(s.frames.size());
    for (const Frame &fr : s.frames) {
        writePos(fr.mf, fr.block, fr.index);
        w.writeU64(fr.spAtCall);
    }
}

bool
MachineSimulator::restoreSuspended(ByteReader &r)
{
    Suspended s;
    std::string entryName = r.readString();
    s.f = ctx_.module().getFunction(entryName);
    uint64_t executed = r.readU64();
    uint64_t interpreted = r.readU64();

    SimState &st = s.state;
    for (auto &v : st.ireg)
        v = r.readU64();
    for (auto &v : st.freg)
        v = r.readDouble();
    st.ccSA = static_cast<int64_t>(r.readU64());
    st.ccSB = static_cast<int64_t>(r.readU64());
    st.ccUA = r.readU64();
    st.ccUB = r.readU64();
    st.ccFA = r.readDouble();
    st.ccFB = r.readDouble();
    st.ccFP = r.readByte() != 0;
    st.sp = r.readU64();

    // Resolve a recorded position against a (re)translated body.
    // All fields are consumed before validating so a rejection
    // leaves the reader positioned at the next record. A call-site
    // index must name a real instruction; the resume position may
    // sit one past the block's end (pending fallthrough).
    auto readPos = [&](const MachineFunction *&mf,
                       MachineBasicBlock *&bb, size_t &idx,
                       bool callSite) -> bool {
        std::string name = r.readString();
        uint64_t nBlocks = r.readVaruint();
        uint64_t blockIdx = r.readVaruint();
        uint64_t nInstrs = r.readVaruint();
        uint64_t instrIdx = r.readVaruint();
        const Function *fn = ctx_.module().getFunction(name);
        if (!fn || fn->isDeclaration())
            return false;
        const MachineFunction *m = code_.get(fn);
        if (!m)
            return false;
        if (m->blocks().size() != nBlocks || blockIdx >= nBlocks)
            return false;
        MachineBasicBlock *b = m->blocks()[blockIdx].get();
        if (b->instrs().size() != nInstrs)
            return false;
        if (callSite ? instrIdx >= nInstrs : instrIdx > nInstrs)
            return false;
        mf = m;
        bb = b;
        idx = static_cast<size_t>(instrIdx);
        return true;
    };

    bool ok = s.f != nullptr && !s.f->isDeclaration();
    ok = readPos(s.mf, s.block, s.index, false) && ok;
    uint64_t nframes = r.readVaruint();
    if (nframes > kMaxCallDepth)
        return false;
    s.frames.resize(static_cast<size_t>(nframes));
    for (Frame &fr : s.frames) {
        ok = readPos(fr.mf, fr.block, fr.index, true) && ok;
        fr.spAtCall = r.readU64();
    }
    if (!ok)
        return false;

    if (hasPausedPin_) {
        code_.unpinEpoch(pausedPin_);
        hasPausedPin_ = false;
    }
    s.valid = true;
    suspended_ = std::move(s);
    executed_ = executed;
    interpreted_ = interpreted;
    // A suspended activation's frames point into live bodies: pin
    // the epoch now so they survive until resume().
    pausedPin_ = code_.pinEpoch();
    hasPausedPin_ = true;
    return true;
}

} // namespace llva
