#include "vm/interpreter.h"

#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "ir/instructions.h"
#include "support/statistic.h"

/**
 * Direct-threaded dispatch for the interpreter's inner loop: each
 * instruction dispatches through one computed goto into a label
 * table indexed by the Opcode value — no switch range check, and
 * the indirect jump gives the branch predictor one prediction site
 * per dispatch instead of a single shared one. OPCASE introduces a
 * handler; NEXT_INSTR ends one (nested switches keep their own
 * `break`s).
 */
#if !defined(__GNUC__) && !defined(__clang__)
#error "the interpreter's computed-goto dispatch needs GCC or Clang"
#endif
#define OPCASE(name) op_##name:
#define NEXT_INSTR goto llva_next_instr

namespace llva {

/**
 * Shared with the machine simulator — both engines deliver traps
 * through ExecutionContext's handler table, and both can find that
 * the registered address no longer names a function.
 */
Statistic NumTrapHandlerMissing(
    "vm.trap_handler_missing",
    "Trap deliveries whose registered handler address did not "
    "resolve to a function");

namespace {

uint64_t
canonInt(uint64_t v, const Type *t)
{
    unsigned bits = t->integerBitWidth();
    if (bits == 0 || bits >= 64)
        return v;
    uint64_t mask = (bits == 64) ? ~0ull : ((1ull << bits) - 1);
    v &= mask;
    if (t->isSignedInteger() && ((v >> (bits - 1)) & 1))
        v |= ~mask;
    return v;
}

constexpr unsigned kMaxDepth = 2048;

/** Host stack the interpreter always leaves free below a guest call:
 *  room for one activation plus the runtime it calls into, however
 *  large the host frames are (sanitizer builds inflate them). */
constexpr uintptr_t kHostStackMargin = 256 * 1024;

/**
 * Lowest address a guest call may start at on this thread: the
 * thread's stack base plus the margin (at most half the stack), or
 * 0 when the stack bounds cannot be read.
 */
uintptr_t
hostStackFloor()
{
    thread_local const uintptr_t floor = [] {
        pthread_attr_t attr;
        if (pthread_getattr_np(pthread_self(), &attr) != 0)
            return uintptr_t(0);
        void *base = nullptr;
        size_t size = 0;
        const int rc = pthread_attr_getstack(&attr, &base, &size);
        pthread_attr_destroy(&attr);
        if (rc != 0)
            return uintptr_t(0);
        return reinterpret_cast<uintptr_t>(base) +
               std::min<uintptr_t>(kHostStackMargin, size / 2);
    }();
    return floor;
}

/** Whether the caller's frame sits below \p floor. Out of line so
 *  the interpreter loop keeps its frame-pointer register free. */
[[gnu::noinline]] bool
belowHostStackFloor(uintptr_t floor)
{
    return reinterpret_cast<uintptr_t>(__builtin_frame_address(0)) <
           floor;
}

} // namespace

ExecResult
Interpreter::run(const Function *f, const std::vector<RtValue> &args)
{
    executed_ = 0;
    stackFloor_ = hostStackFloor();
    stackBrk_ = ctx_.memory().stackTop();

    CallOutcome out = call(f, args, 0);
    ExecResult result;
    result.value = out.value;
    result.unwound = out.unwound;
    result.trap = out.trap;
    result.instructionsExecuted = executed_;

    // Trap-handler dispatch (paper Section 3.5): a trap handler is an
    // ordinary LLVA function taking (trap number, void* info).
    if (out.trap != TrapKind::None) {
        unsigned trapno = static_cast<unsigned>(out.trap);
        uint64_t handler = ctx_.trapHandler(trapno);
        if (handler) {
            if (const Function *hf =
                    ctx_.memory().functionAt(handler)) {
                std::vector<RtValue> hargs = {
                    RtValue::ofInt(trapno), RtValue::ofInt(0)};
                CallOutcome hout = call(hf, hargs, 0);
                result.instructionsExecuted = executed_;
                // The handler's own outcome must not be swallowed:
                // a trap raised inside the handler supersedes the
                // one it was handling, and an unwind escaping the
                // handler surfaces as an escaped unwind.
                if (hout.trap != TrapKind::None)
                    result.trap = hout.trap;
                if (hout.unwound)
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
Interpreter::invoke(const Function *f, const std::vector<RtValue> &args,
                    uint64_t stackBase)
{
    executed_ = 0;
    stackFloor_ = hostStackFloor();
    stackBrk_ = stackBase ? stackBase : ctx_.memory().stackTop();

    CallOutcome out = call(f, args, 0);
    ExecResult result;
    result.value = out.value;
    result.unwound = out.unwound;
    result.trap = out.trap;
    result.instructionsExecuted = executed_;
    return result;
}

Interpreter::CallOutcome
Interpreter::call(const Function *f, const std::vector<RtValue> &args,
                  unsigned depth)
{
    // SMC redirect: future invocations run the replacement body.
    if (const Function *repl = ctx_.redirectFor(f))
        f = repl;

    // Guest recursion recurses on the host: trap at the guest depth
    // cap or when the host stack runs low, whichever comes first.
    CallOutcome out;
    if (depth > kMaxDepth || belowHostStackFloor(stackFloor_)) {
        out.trap = TrapKind::StackOverflow;
        return out;
    }

    if (f->isDeclaration()) {
        const RuntimeHandler *h = ctx_.handlerFor(f->name());
        if (!h)
            fatal("call to unresolved external %%%s",
                  f->name().c_str());
        out.value = (*h)(ctx_, args);
        // A handler that rejected its arguments raises a recoverable
        // trap instead of aborting; surface it like a hardware trap.
        TrapKind pending = ctx_.takePendingTrap();
        if (pending != TrapKind::None)
            out.trap = pending;
        return out;
    }

    Memory &mem = ctx_.memory();
    std::map<const Value *, RtValue> frame;
    for (size_t i = 0; i < f->numArgs() && i < args.size(); ++i)
        frame[f->arg(i)] = args[i];

    uint64_t saved_stack = stackBrk_;

    auto eval = [&](const Value *v) -> RtValue {
        if (auto *ci = dyn_cast<ConstantInt>(v))
            return RtValue::ofInt(ci->zext());
        if (auto *cf = dyn_cast<ConstantFP>(v))
            return RtValue::ofFP(cf->value());
        if (isa<ConstantNull>(v) || isa<ConstantUndef>(v))
            return RtValue();
        if (auto *gv = dyn_cast<GlobalVariable>(v))
            return RtValue::ofInt(ctx_.globalAddrs().at(gv));
        if (auto *fn = dyn_cast<Function>(v))
            return RtValue::ofInt(mem.functionAddress(fn));
        auto it = frame.find(v);
        LLVA_ASSERT(it != frame.end(), "use of undefined value '%s'",
                    v->name().c_str());
        return it->second;
    };

    auto memTrapKind = [&]() {
        TrapKind k = mem.lastTrap();
        mem.clearTrap();
        return k;
    };

    const BasicBlock *block = f->entryBlock();
    const BasicBlock *prev = nullptr;

    while (true) {
        if (profile_)
            profile_->note(prev, block);
        // Phi nodes evaluate simultaneously on block entry.
        if (prev) {
            std::vector<std::pair<const Value *, RtValue>> updates;
            for (const auto &inst : *block) {
                auto *phi = dyn_cast<PhiNode>(inst.get());
                if (!phi)
                    break;
                const Value *in = phi->incomingValueFor(prev);
                LLVA_ASSERT(in, "phi has no entry for predecessor");
                updates.emplace_back(phi, eval(in));
                ++executed_;
            }
            for (auto &[phi, val] : updates)
                frame[phi] = val;
        }

        for (auto it = block->firstNonPhi(); it != block->end();
             ++it) {
            const Instruction *inst = it->get();
            ++executed_;
            if (limit_ && executed_ > limit_)
                fatal("interpreter instruction limit exceeded");

            // Handler-label table in Opcode order (&&label is the
            // GNU address-of-label extension).
            static const void *const kDispatch[kNumOpcodes] = {
                &&op_Add,    &&op_Sub,    &&op_Mul,
                &&op_Div,    &&op_Rem,    &&op_And,
                &&op_Or,     &&op_Xor,    &&op_Shl,
                &&op_Shr,    &&op_SetEQ,  &&op_SetNE,
                &&op_SetLT,  &&op_SetGT,  &&op_SetLE,
                &&op_SetGE,  &&op_Ret,    &&op_Br,
                &&op_MBr,    &&op_Invoke, &&op_Unwind,
                &&op_Load,   &&op_Store,  &&op_GetElementPtr,
                &&op_Alloca, &&op_Cast,   &&op_Call,
                &&op_Phi,
            };
            goto *kDispatch[static_cast<unsigned>(inst->opcode())];
              OPCASE(Add)
              OPCASE(Sub)
              OPCASE(Mul)
              OPCASE(Div)
              OPCASE(Rem) {
                auto *b = static_cast<const BinaryOperator *>(inst);
                Type *t = b->type();
                RtValue lhs = eval(b->lhs()), rhs = eval(b->rhs());
                if (t->isFloatingPoint()) {
                    double a = lhs.f, bb = rhs.f, r = 0;
                    switch (inst->opcode()) {
                      case Opcode::Add: r = a + bb; break;
                      case Opcode::Sub: r = a - bb; break;
                      case Opcode::Mul: r = a * bb; break;
                      case Opcode::Div: r = a / bb; break;
                      default: r = std::fmod(a, bb); break;
                    }
                    if (t->kind() == TypeKind::Float)
                        r = static_cast<float>(r);
                    frame[inst] = RtValue::ofFP(r);
                    NEXT_INSTR;
                }
                uint64_t a = canonInt(lhs.i, t);
                uint64_t bb = canonInt(rhs.i, t);
                uint64_t r = 0;
                bool trapped = false;
                switch (inst->opcode()) {
                  case Opcode::Add: r = a + bb; break;
                  case Opcode::Sub: r = a - bb; break;
                  case Opcode::Mul: r = a * bb; break;
                  case Opcode::Div:
                  case Opcode::Rem: {
                    if (bb == 0) {
                        if (inst->exceptionsEnabled()) {
                            out.trap = TrapKind::DivByZero;
                            trapped = true;
                        } else {
                            r = 0;
                        }
                        break;
                    }
                    if (t->isSignedInteger()) {
                        int64_t sa = static_cast<int64_t>(a);
                        int64_t sb = static_cast<int64_t>(bb);
                        if (sa == INT64_MIN && sb == -1)
                            r = inst->opcode() == Opcode::Div ? a
                                                              : 0;
                        else
                            r = static_cast<uint64_t>(
                                inst->opcode() == Opcode::Div
                                    ? sa / sb
                                    : sa % sb);
                    } else {
                        r = inst->opcode() == Opcode::Div ? a / bb
                                                          : a % bb;
                    }
                    break;
                  }
                  default:
                    break;
                }
                if (trapped) {
                    stackBrk_ = saved_stack;
                    return out;
                }
                frame[inst] = RtValue::ofInt(canonInt(r, t));
                NEXT_INSTR;
              }
              OPCASE(And)
              OPCASE(Or)
              OPCASE(Xor) {
                auto *b = static_cast<const BinaryOperator *>(inst);
                uint64_t a = eval(b->lhs()).i, bb = eval(b->rhs()).i;
                uint64_t r = inst->opcode() == Opcode::And ? (a & bb)
                             : inst->opcode() == Opcode::Or
                                 ? (a | bb)
                                 : (a ^ bb);
                frame[inst] = RtValue::ofInt(canonInt(r, b->type()));
                NEXT_INSTR;
              }
              OPCASE(Shl)
              OPCASE(Shr) {
                auto *b = static_cast<const BinaryOperator *>(inst);
                Type *t = b->type();
                uint64_t a = canonInt(eval(b->lhs()).i, t);
                uint64_t sh = eval(b->rhs()).i & 63;
                uint64_t r;
                if (inst->opcode() == Opcode::Shl) {
                    r = a << sh;
                } else if (t->isSignedInteger()) {
                    r = static_cast<uint64_t>(
                        static_cast<int64_t>(a) >> sh);
                } else {
                    unsigned bits = t->integerBitWidth();
                    uint64_t ua =
                        bits >= 64 ? a : (a & ((1ull << bits) - 1));
                    r = ua >> sh;
                }
                frame[inst] = RtValue::ofInt(canonInt(r, t));
                NEXT_INSTR;
              }
              OPCASE(SetEQ)
              OPCASE(SetNE)
              OPCASE(SetLT)
              OPCASE(SetGT)
              OPCASE(SetLE)
              OPCASE(SetGE) {
                auto *c = static_cast<const SetCondInst *>(inst);
                Type *t = c->lhs()->type();
                bool r = false;
                if (t->isFloatingPoint()) {
                    double a = eval(c->lhs()).f,
                           b = eval(c->rhs()).f;
                    switch (inst->opcode()) {
                      case Opcode::SetEQ: r = a == b; break;
                      case Opcode::SetNE: r = a != b; break;
                      case Opcode::SetLT: r = a < b; break;
                      case Opcode::SetGT: r = a > b; break;
                      case Opcode::SetLE: r = a <= b; break;
                      default: r = a >= b; break;
                    }
                } else if (t->isSignedInteger()) {
                    int64_t a = static_cast<int64_t>(
                        canonInt(eval(c->lhs()).i, t));
                    int64_t b = static_cast<int64_t>(
                        canonInt(eval(c->rhs()).i, t));
                    switch (inst->opcode()) {
                      case Opcode::SetEQ: r = a == b; break;
                      case Opcode::SetNE: r = a != b; break;
                      case Opcode::SetLT: r = a < b; break;
                      case Opcode::SetGT: r = a > b; break;
                      case Opcode::SetLE: r = a <= b; break;
                      default: r = a >= b; break;
                    }
                } else {
                    unsigned bits = t->isPointer()
                                        ? 64
                                        : t->integerBitWidth();
                    uint64_t mask =
                        bits >= 64 ? ~0ull : ((1ull << bits) - 1);
                    uint64_t a = eval(c->lhs()).i & mask;
                    uint64_t b = eval(c->rhs()).i & mask;
                    switch (inst->opcode()) {
                      case Opcode::SetEQ: r = a == b; break;
                      case Opcode::SetNE: r = a != b; break;
                      case Opcode::SetLT: r = a < b; break;
                      case Opcode::SetGT: r = a > b; break;
                      case Opcode::SetLE: r = a <= b; break;
                      default: r = a >= b; break;
                    }
                }
                frame[inst] = RtValue::ofInt(r ? 1 : 0);
                NEXT_INSTR;
              }
              OPCASE(Ret) {
                auto *r = static_cast<const ReturnInst *>(inst);
                if (r->returnValue())
                    out.value = eval(r->returnValue());
                stackBrk_ = saved_stack;
                return out;
              }
              OPCASE(Br) {
                auto *b = static_cast<const BranchInst *>(inst);
                prev = block;
                if (b->isConditional())
                    block = eval(b->condition()).i ? b->target(0)
                                                   : b->target(1);
                else
                    block = b->target(0);
                goto next_block;
              }
              OPCASE(MBr) {
                auto *m = static_cast<const MBrInst *>(inst);
                uint64_t v = canonInt(eval(m->condition()).i,
                                      m->condition()->type());
                prev = block;
                block = m->defaultDest();
                for (unsigned i = 0; i < m->numCases(); ++i) {
                    if (m->caseValue(i)->bits() == v) {
                        block = m->caseDest(i);
                        break;
                    }
                }
                goto next_block;
              }
              OPCASE(Invoke)
              OPCASE(Call) {
                const Value *callee;
                std::vector<RtValue> cargs;
                if (auto *c = dyn_cast<CallInst>(inst)) {
                    callee = c->callee();
                    for (unsigned i = 0; i < c->numArgs(); ++i)
                        cargs.push_back(eval(c->arg(i)));
                } else {
                    auto *iv = static_cast<const InvokeInst *>(inst);
                    callee = iv->callee();
                    for (unsigned i = 0; i < iv->numArgs(); ++i)
                        cargs.push_back(eval(iv->arg(i)));
                }
                const Function *target = dyn_cast<Function>(callee);
                if (!target) {
                    uint64_t addr = eval(callee).i;
                    target = mem.functionAt(addr);
                    if (!target) {
                        // A control transfer to a non-function
                        // address always traps; ExceptionsEnabled
                        // only gates data-side exceptions.
                        out.trap = TrapKind::BadIndirectCall;
                        stackBrk_ = saved_stack;
                        return out;
                    }
                }
                CallOutcome callee_out =
                    call(target, cargs, depth + 1);
                if (callee_out.trap != TrapKind::None) {
                    out.trap = callee_out.trap;
                    stackBrk_ = saved_stack;
                    return out;
                }
                if (auto *iv = dyn_cast<InvokeInst>(inst)) {
                    prev = block;
                    if (callee_out.unwound) {
                        block = iv->unwindDest();
                    } else {
                        if (!inst->type()->isVoid())
                            frame[inst] = callee_out.value;
                        block = iv->normalDest();
                    }
                    goto next_block;
                }
                if (callee_out.unwound) {
                    // A plain call propagates the unwind upward.
                    out.unwound = true;
                    stackBrk_ = saved_stack;
                    return out;
                }
                if (!inst->type()->isVoid())
                    frame[inst] = callee_out.value;
                NEXT_INSTR;
              }
              OPCASE(Unwind)
                out.unwound = true;
                stackBrk_ = saved_stack;
                return out;
              OPCASE(Load) {
                auto *l = static_cast<const LoadInst *>(inst);
                uint64_t addr = eval(l->pointer()).i;
                Type *t = l->type();
                if (t->isFloatingPoint()) {
                    double v = 0;
                    if (!mem.loadFP(addr,
                                    t->kind() == TypeKind::Float,
                                    v)) {
                        TrapKind k = memTrapKind();
                        if (inst->exceptionsEnabled()) {
                            out.trap = k;
                            stackBrk_ = saved_stack;
                            return out;
                        }
                    }
                    frame[inst] = RtValue::ofFP(v);
                    NEXT_INSTR;
                }
                unsigned width = static_cast<unsigned>(
                    t->sizeInBytes(ctx_.module().pointerSize()));
                uint64_t v = 0;
                if (!mem.load(addr, width, v)) {
                    TrapKind k = memTrapKind();
                    if (inst->exceptionsEnabled()) {
                        out.trap = k;
                        stackBrk_ = saved_stack;
                        return out;
                    }
                    v = 0;
                }
                frame[inst] = RtValue::ofInt(canonInt(v, t));
                NEXT_INSTR;
              }
              OPCASE(Store) {
                auto *s = static_cast<const StoreInst *>(inst);
                uint64_t addr = eval(s->pointer()).i;
                Type *t = s->value()->type();
                bool ok;
                if (t->isFloatingPoint())
                    ok = mem.storeFP(addr,
                                     t->kind() == TypeKind::Float,
                                     eval(s->value()).f);
                else
                    ok = mem.store(
                        addr,
                        static_cast<unsigned>(t->sizeInBytes(
                            ctx_.module().pointerSize())),
                        eval(s->value()).i);
                if (!ok) {
                    TrapKind k = memTrapKind();
                    if (inst->exceptionsEnabled()) {
                        out.trap = k;
                        stackBrk_ = saved_stack;
                        return out;
                    }
                }
                NEXT_INSTR;
              }
              OPCASE(GetElementPtr) {
                auto *g =
                    static_cast<const GetElementPtrInst *>(inst);
                unsigned ps = ctx_.module().pointerSize();
                uint64_t addr = eval(g->pointer()).i;
                Type *cur = cast<PointerType>(g->pointer()->type())
                                ->pointee();
                for (unsigned i = 0; i < g->numIndices(); ++i) {
                    const Value *idx = g->index(i);
                    if (i == 0) {
                        int64_t n = static_cast<int64_t>(canonInt(
                            eval(idx).i, idx->type()));
                        addr += static_cast<uint64_t>(
                            n * static_cast<int64_t>(
                                    cur->sizeInBytes(ps)));
                        continue;
                    }
                    if (auto *at = dyn_cast<ArrayType>(cur)) {
                        cur = at->element();
                        int64_t n = static_cast<int64_t>(canonInt(
                            eval(idx).i, idx->type()));
                        addr += static_cast<uint64_t>(
                            n * static_cast<int64_t>(
                                    cur->sizeInBytes(ps)));
                    } else {
                        auto *st = cast<StructType>(cur);
                        size_t field = static_cast<size_t>(
                            cast<ConstantInt>(idx)->zext());
                        addr += st->fieldOffset(field, ps);
                        cur = st->field(field);
                    }
                }
                frame[inst] = RtValue::ofInt(addr);
                NEXT_INSTR;
              }
              OPCASE(Alloca) {
                auto *a = static_cast<const AllocaInst *>(inst);
                unsigned ps = ctx_.module().pointerSize();
                uint64_t count = 1;
                if (a->arraySize())
                    count = eval(a->arraySize()).i;
                uint64_t size =
                    a->allocatedType()->sizeInBytes(ps) * count;
                uint64_t align =
                    a->allocatedType()->alignment(ps);
                stackBrk_ -= size;
                stackBrk_ &= ~(align - 1);
                if (stackBrk_ < mem.stackLimit()) {
                    out.trap = TrapKind::StackOverflow;
                    stackBrk_ = saved_stack;
                    return out;
                }
                frame[inst] = RtValue::ofInt(stackBrk_);
                NEXT_INSTR;
              }
              OPCASE(Cast) {
                auto *c = static_cast<const CastInst *>(inst);
                Type *src = c->value()->type();
                Type *dst = c->type();
                RtValue v = eval(c->value());
                if (src->isFloatingPoint() &&
                    dst->isFloatingPoint()) {
                    double d = v.f;
                    if (dst->kind() == TypeKind::Float)
                        d = static_cast<float>(d);
                    frame[inst] = RtValue::ofFP(d);
                } else if (src->isFloatingPoint()) {
                    uint64_t r = 0;
                    if (std::isfinite(v.f)) {
                        if (dst->isSignedInteger())
                            r = static_cast<uint64_t>(
                                static_cast<int64_t>(v.f));
                        else if (v.f > 0)
                            r = static_cast<uint64_t>(v.f);
                    }
                    frame[inst] =
                        RtValue::ofInt(canonInt(r, dst));
                } else if (dst->isFloatingPoint()) {
                    uint64_t a = canonInt(v.i, src);
                    double d =
                        src->isSignedInteger()
                            ? static_cast<double>(
                                  static_cast<int64_t>(a))
                            : static_cast<double>(a);
                    if (dst->kind() == TypeKind::Float)
                        d = static_cast<float>(d);
                    frame[inst] = RtValue::ofFP(d);
                } else {
                    // int/bool/pointer to int/bool/pointer.
                    uint64_t a = src->isPointer()
                                     ? v.i
                                     : canonInt(v.i, src);
                    if (dst->isBool())
                        frame[inst] = RtValue::ofInt(a ? 1 : 0);
                    else if (dst->isPointer())
                        frame[inst] = RtValue::ofInt(a);
                    else
                        frame[inst] =
                            RtValue::ofInt(canonInt(a, dst));
                }
                NEXT_INSTR;
              }
              OPCASE(Phi)
                panic("phi after firstNonPhi");
          llva_next_instr:;
        }
        panic("block fell through without a terminator");
      next_block:;
    }
}

} // namespace llva
