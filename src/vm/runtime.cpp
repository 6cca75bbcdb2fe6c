#include "vm/runtime.h"

#include <cinttypes>

#include "ir/instructions.h"
#include "support/statistic.h"

namespace llva {

namespace {

Statistic NumIntrinsicRejected(
    "vm.intrinsic_rejected",
    "LLVA intrinsic invocations rejected with a recoverable trap "
    "(bad function pointers, missing privilege)");

} // namespace

ExecutionContext::ExecutionContext(const Module &m, uint64_t mem_size)
    : m_(m), mem_(mem_size)
{
    globalAddrs_ = layoutGlobals(m, mem_);
    installDefaultHandlers();
}

const RuntimeHandler *
ExecutionContext::handlerFor(const std::string &name) const
{
    auto it = handlers_.find(name);
    return it == handlers_.end() ? nullptr : &it->second;
}

uint64_t
ExecutionContext::trapHandler(unsigned trap_number) const
{
    auto it = trapHandlers_.find(trap_number);
    return it == trapHandlers_.end() ? 0 : it->second;
}

void
ExecutionContext::setTrapHandler(unsigned trap_number, uint64_t addr)
{
    trapHandlers_[trap_number] = addr;
}

const Function *
ExecutionContext::redirectFor(const Function *f) const
{
    auto it = redirects_.find(f);
    return it == redirects_.end() ? nullptr : it->second;
}

void
ExecutionContext::setRedirect(const Function *target,
                              const Function *repl)
{
    redirects_[target] = repl;
    invalidations_.push_back(target);
}

std::vector<const Function *>
ExecutionContext::takeInvalidations()
{
    return std::move(invalidations_);
}

uint64_t
ExecutionContext::poolAlloc(uint64_t pool_addr, uint64_t size)
{
    PoolState &pool = pools_[pool_addr];
    size = (size + 15) / 16 * 16;
    if (pool.chunkUsed + size > pool.chunkSize) {
        uint64_t chunk = std::max<uint64_t>(size, 1 << 16);
        pool.chunkBase = mem_.malloc(chunk);
        pool.chunkUsed = 0;
        pool.chunkSize = pool.chunkBase ? chunk : 0;
        if (!pool.chunkBase)
            return 0;
    }
    uint64_t addr = pool.chunkBase + pool.chunkUsed;
    pool.chunkUsed += size;
    pool.totalAllocated += size;
    pool.loAddr = std::min(pool.loAddr, addr);
    pool.hiAddr = std::max(pool.hiAddr, addr + size);
    return addr;
}

void
ExecutionContext::poolFree(uint64_t pool_addr, uint64_t ptr)
{
    // Individual objects are reclaimed when the pool dies (the
    // common fast path of pool allocation); account only.
    (void)ptr;
    pools_[pool_addr].totalFreed += 1;
}

void
ExecutionContext::serialize(ByteWriter &w) const
{
    mem_.serialize(w);
    w.writeString(out_);
    w.writeVaruint(trapHandlers_.size());
    for (const auto &[trapno, addr] : trapHandlers_) {
        w.writeVaruint(trapno);
        w.writeU64(addr);
    }
    // SMC state travels by function name: pointers are process-
    // local, names are the V-ISA-level identity.
    w.writeVaruint(redirects_.size());
    for (const auto &[target, repl] : redirects_) {
        w.writeString(target->name());
        w.writeString(repl->name());
    }
    w.writeVaruint(invalidations_.size());
    for (const Function *f : invalidations_)
        w.writeString(f->name());
    w.writeVaruint(pools_.size());
    for (const auto &[addr, p] : pools_) {
        w.writeU64(addr);
        w.writeU64(p.chunkBase);
        w.writeU64(p.chunkUsed);
        w.writeU64(p.chunkSize);
        w.writeU64(p.totalAllocated);
        w.writeU64(p.totalFreed);
        w.writeU64(p.loAddr);
        w.writeU64(p.hiAddr);
    }
    w.writeU64(storageApi_);
    w.writeByte(privileged_ ? 1 : 0);
}

bool
ExecutionContext::restore(ByteReader &r)
{
    if (!mem_.restore(r, m_))
        return false;
    out_ = r.readString();
    trapHandlers_.clear();
    uint64_t nTraps = r.readVaruint();
    for (uint64_t i = 0; i < nTraps; ++i) {
        unsigned trapno = static_cast<unsigned>(r.readVaruint());
        trapHandlers_[trapno] = r.readU64();
    }
    redirects_.clear();
    uint64_t nRedirects = r.readVaruint();
    for (uint64_t i = 0; i < nRedirects; ++i) {
        std::string target = r.readString();
        std::string repl = r.readString();
        const Function *tf = m_.getFunction(target);
        const Function *rf = m_.getFunction(repl);
        if (!tf || !rf)
            return false;
        redirects_[tf] = rf;
    }
    invalidations_.clear();
    uint64_t nInv = r.readVaruint();
    for (uint64_t i = 0; i < nInv; ++i) {
        const Function *f = m_.getFunction(r.readString());
        if (!f)
            return false;
        invalidations_.push_back(f);
    }
    pools_.clear();
    uint64_t nPools = r.readVaruint();
    for (uint64_t i = 0; i < nPools; ++i) {
        uint64_t addr = r.readU64();
        PoolState &p = pools_[addr];
        p.chunkBase = r.readU64();
        p.chunkUsed = r.readU64();
        p.chunkSize = r.readU64();
        p.totalAllocated = r.readU64();
        p.totalFreed = r.readU64();
        p.loAddr = r.readU64();
        p.hiAddr = r.readU64();
    }
    storageApi_ = r.readU64();
    privileged_ = r.readByte() != 0;
    pendingTrap_ = TrapKind::None;
    // Global addresses are assigned deterministically by the layout
    // pass in the constructor and the restored memory image was
    // written against that same layout: nothing to recompute.
    return true;
}

void
ExecutionContext::installDefaultHandlers()
{
    auto fmt = [](const char *f, auto v) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), f, v);
        return std::string(buf);
    };

    handlers_["malloc"] = [](ExecutionContext &ctx,
                             const std::vector<RtValue> &args) {
        return RtValue::ofInt(ctx.memory().malloc(args.at(0).i));
    };
    handlers_["free"] = [](ExecutionContext &ctx,
                           const std::vector<RtValue> &args) {
        ctx.memory().free(args.at(0).i);
        return RtValue();
    };
    handlers_["puts"] = [](ExecutionContext &ctx,
                           const std::vector<RtValue> &args) {
        ctx.output() += ctx.memory().readCString(args.at(0).i);
        ctx.output() += '\n';
        return RtValue::ofInt(0);
    };
    handlers_["putstr"] = [](ExecutionContext &ctx,
                             const std::vector<RtValue> &args) {
        ctx.output() += ctx.memory().readCString(args.at(0).i);
        return RtValue::ofInt(0);
    };
    handlers_["putchar"] = [](ExecutionContext &ctx,
                              const std::vector<RtValue> &args) {
        ctx.output() += static_cast<char>(args.at(0).i);
        return RtValue::ofInt(args.at(0).i);
    };
    handlers_["putint"] = [fmt](ExecutionContext &ctx,
                                const std::vector<RtValue> &args) {
        ctx.output() += fmt("%" PRId64,
                            static_cast<int64_t>(args.at(0).i));
        return RtValue();
    };
    handlers_["putuint"] = [fmt](ExecutionContext &ctx,
                                 const std::vector<RtValue> &args) {
        ctx.output() += fmt("%" PRIu64, args.at(0).i);
        return RtValue();
    };
    handlers_["putdouble"] = [fmt](ExecutionContext &ctx,
                                   const std::vector<RtValue> &args) {
        ctx.output() += fmt("%.6g", args.at(0).f);
        return RtValue();
    };
    handlers_["memcpy"] = [](ExecutionContext &ctx,
                             const std::vector<RtValue> &args) {
        Memory &mem = ctx.memory();
        uint64_t dst = args.at(0).i, src = args.at(1).i,
                 n = args.at(2).i;
        for (uint64_t i = 0; i < n; ++i) {
            uint64_t b;
            if (!mem.load(src + i, 1, b) || !mem.store(dst + i, 1, b))
                break;
        }
        return RtValue::ofInt(dst);
    };
    handlers_["memset"] = [](ExecutionContext &ctx,
                             const std::vector<RtValue> &args) {
        Memory &mem = ctx.memory();
        uint64_t dst = args.at(0).i, v = args.at(1).i,
                 n = args.at(2).i;
        for (uint64_t i = 0; i < n; ++i)
            if (!mem.store(dst + i, 1, v))
                break;
        return RtValue::ofInt(dst);
    };
    handlers_["strlen"] = [](ExecutionContext &ctx,
                             const std::vector<RtValue> &args) {
        return RtValue::ofInt(
            ctx.memory().readCString(args.at(0).i).size());
    };

    // --- LLVA intrinsics -------------------------------------------------

    // SMC: future invocations of %target run %replacement's body
    // (paper Section 3.4 — active invocations are unaffected).
    handlers_["llva.smc.replace.function"] =
        [](ExecutionContext &ctx, const std::vector<RtValue> &args) {
            const Function *target =
                ctx.memory().functionAt(args.at(0).i);
            const Function *repl =
                ctx.memory().functionAt(args.at(1).i);
            if (!target || !repl) {
                // Recoverable: an address that names no function is
                // the same failure as calling through it — raise the
                // trap instead of killing the VM, so a registered
                // handler can contain the bad update.
                ++NumIntrinsicRejected;
                ctx.raiseTrap(TrapKind::BadIndirectCall);
                return RtValue();
            }
            ctx.setRedirect(target, repl);
            return RtValue();
        };

    // Pool allocation runtime (paper Section 5.1, ref [25]).
    handlers_["llva.poolalloc"] =
        [](ExecutionContext &ctx, const std::vector<RtValue> &args) {
            return RtValue::ofInt(
                ctx.poolAlloc(args.at(0).i, args.at(1).i));
        };
    handlers_["llva.poolfree"] =
        [](ExecutionContext &ctx, const std::vector<RtValue> &args) {
            ctx.poolFree(args.at(0).i, args.at(1).i);
            return RtValue();
        };

    // OS support (paper Section 3.5). Privileged-only intrinsics.
    handlers_["llva.os.set.privileged"] =
        [](ExecutionContext &ctx, const std::vector<RtValue> &args) {
            ctx.setPrivileged(args.at(0).i != 0);
            return RtValue();
        };
    handlers_["llva.os.register.traphandler"] =
        [](ExecutionContext &ctx, const std::vector<RtValue> &args) {
            if (!ctx.privileged()) {
                // Recoverable: deliver the privilege violation as a
                // trap (paper Section 3.5) rather than aborting the
                // whole VM on an unprivileged caller.
                ++NumIntrinsicRejected;
                ctx.raiseTrap(TrapKind::PrivilegeViolation);
                return RtValue();
            }
            ctx.setTrapHandler(
                static_cast<unsigned>(args.at(0).i), args.at(1).i);
            return RtValue();
        };
    // Storage-API bootstrap: the OS registers one entry point which
    // the translator then uses to discover the rest (Section 4.1).
    handlers_["llva.os.register.storageapi"] =
        [](ExecutionContext &ctx, const std::vector<RtValue> &args) {
            ctx.setStorageApi(args.at(0).i);
            return RtValue();
        };
}

} // namespace llva
