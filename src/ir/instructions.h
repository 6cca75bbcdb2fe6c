/**
 * @file
 * Concrete instruction classes for the 28 LLVA opcodes.
 */

#ifndef LLVA_IR_INSTRUCTIONS_H
#define LLVA_IR_INSTRUCTIONS_H

#include <vector>

#include "ir/basic_block.h"
#include "ir/constant.h"
#include "ir/instruction.h"

namespace llva {

class Function;

/**
 * Arithmetic and bitwise operators: add, sub, mul, div, rem, and,
 * or, xor, shl, shr. The result type equals the left operand's type;
 * shift amounts are ubyte (paper-era convention).
 */
class BinaryOperator : public Instruction
{
  public:
    BinaryOperator(Opcode op, Value *lhs, Value *rhs)
        : Instruction(lhs->type(), op)
    {
        addOperand(lhs);
        addOperand(rhs);
    }

    Value *lhs() const { return operand(0); }
    Value *rhs() const { return operand(1); }

    Instruction *
    clone() const override
    {
        auto *i = new BinaryOperator(opcode(), operand(0), operand(1));
        i->setExceptionsEnabled(exceptionsEnabled());
        return i;
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->isBinaryOp();
    }
};

/**
 * Comparison operators seteq..setge; both operands share a type and
 * the result is bool.
 */
class SetCondInst : public Instruction
{
  public:
    SetCondInst(Opcode op, Value *lhs, Value *rhs)
        : Instruction(lhs->type()->context().boolTy(), op)
    {
        addOperand(lhs);
        addOperand(rhs);
    }

    Value *lhs() const { return operand(0); }
    Value *rhs() const { return operand(1); }

    /** setlt -> setgt (operand swap), seteq -> seteq, etc. */
    static Opcode swapped(Opcode op);

    Instruction *
    clone() const override
    {
        return new SetCondInst(opcode(), operand(0), operand(1));
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->isComparison();
    }
};

/** Function return, with an optional value. */
class ReturnInst : public Instruction
{
  public:
    explicit ReturnInst(TypeContext &ctx, Value *value = nullptr)
        : Instruction(ctx.voidTy(), Opcode::Ret)
    {
        if (value)
            addOperand(value);
    }

    Value *
    returnValue() const
    {
        return numOperands() ? operand(0) : nullptr;
    }

    Instruction *
    clone() const override
    {
        return new ReturnInst(type()->context(), returnValue());
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::Ret;
    }
};

/** Conditional or unconditional branch. */
class BranchInst : public Instruction
{
  public:
    /** Unconditional: `br label %dest`. */
    BranchInst(TypeContext &ctx, BasicBlock *dest)
        : Instruction(ctx.voidTy(), Opcode::Br)
    {
        addOperand(dest);
    }

    /** Conditional: `br bool %c, label %t, label %f`. */
    BranchInst(TypeContext &ctx, Value *cond, BasicBlock *if_true,
               BasicBlock *if_false)
        : Instruction(ctx.voidTy(), Opcode::Br)
    {
        addOperand(cond);
        addOperand(if_true);
        addOperand(if_false);
    }

    bool isConditional() const { return numOperands() == 3; }

    Value *
    condition() const
    {
        LLVA_ASSERT(isConditional(), "unconditional branch");
        return operand(0);
    }

    BasicBlock *
    target(unsigned i) const
    {
        return static_cast<BasicBlock *>(
            operand(isConditional() ? 1 + i : i));
    }

    Instruction *
    clone() const override
    {
        auto &ctx = type()->context();
        if (isConditional())
            return new BranchInst(ctx, condition(), target(0),
                                  target(1));
        return new BranchInst(ctx, target(0));
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::Br;
    }
};

/**
 * Multi-way branch (mbr): dispatch on an integer value over constant
 * cases with a default target.
 * Operand layout: [value, default, c0, b0, c1, b1, ...].
 */
class MBrInst : public Instruction
{
  public:
    MBrInst(TypeContext &ctx, Value *value, BasicBlock *def)
        : Instruction(ctx.voidTy(), Opcode::MBr)
    {
        addOperand(value);
        addOperand(def);
    }

    Value *condition() const { return operand(0); }

    BasicBlock *
    defaultDest() const
    {
        return static_cast<BasicBlock *>(operand(1));
    }

    unsigned numCases() const { return (numOperands() - 2) / 2; }

    ConstantInt *
    caseValue(unsigned i) const
    {
        return cast<ConstantInt>(operand(2 + 2 * i));
    }

    BasicBlock *
    caseDest(unsigned i) const
    {
        return static_cast<BasicBlock *>(operand(3 + 2 * i));
    }

    void
    addCase(ConstantInt *val, BasicBlock *dest)
    {
        addOperand(val);
        addOperand(dest);
    }

    /** Remove case \p i (not the default). */
    void
    removeCase(unsigned i)
    {
        removeOperand(2 + 2 * i); // value
        removeOperand(2 + 2 * i); // dest (shifted down)
    }

    Instruction *
    clone() const override
    {
        auto *m = new MBrInst(type()->context(), condition(),
                              defaultDest());
        for (unsigned i = 0, e = numCases(); i != e; ++i)
            m->addCase(caseValue(i), caseDest(i));
        return m;
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::MBr;
    }
};

/**
 * invoke: call a function with an exceptional continuation. Control
 * resumes at the normal destination on return, or at the unwind
 * destination if the callee (transitively) executes `unwind`.
 * Operand layout: [callee, args..., normal, unwind].
 */
class InvokeInst : public Instruction
{
  public:
    InvokeInst(Type *result_type, Value *callee,
               const std::vector<Value *> &args, BasicBlock *normal,
               BasicBlock *unwind)
        : Instruction(result_type, Opcode::Invoke)
    {
        addOperand(callee);
        for (Value *a : args)
            addOperand(a);
        addOperand(normal);
        addOperand(unwind);
    }

    Value *callee() const { return operand(0); }
    unsigned numArgs() const { return numOperands() - 3; }
    Value *arg(unsigned i) const { return operand(1 + i); }

    BasicBlock *
    normalDest() const
    {
        return static_cast<BasicBlock *>(operand(numOperands() - 2));
    }

    BasicBlock *
    unwindDest() const
    {
        return static_cast<BasicBlock *>(operand(numOperands() - 1));
    }

    /** The callee's function type (through the pointer if indirect). */
    FunctionType *calleeType() const;

    Instruction *
    clone() const override
    {
        std::vector<Value *> args;
        for (unsigned i = 0, e = numArgs(); i != e; ++i)
            args.push_back(arg(i));
        return new InvokeInst(type(), callee(), args, normalDest(),
                              unwindDest());
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::Invoke;
    }
};

/** unwind: pop frames to the nearest dynamically-enclosing invoke. */
class UnwindInst : public Instruction
{
  public:
    explicit UnwindInst(TypeContext &ctx)
        : Instruction(ctx.voidTy(), Opcode::Unwind)
    {}

    Instruction *
    clone() const override
    {
        return new UnwindInst(type()->context());
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::Unwind;
    }
};

/** load: read a scalar from memory through a typed pointer. */
class LoadInst : public Instruction
{
  public:
    explicit LoadInst(Value *ptr)
        : Instruction(cast<PointerType>(ptr->type())->pointee(),
                      Opcode::Load)
    {
        addOperand(ptr);
    }

    Value *pointer() const { return operand(0); }

    Instruction *
    clone() const override
    {
        auto *l = new LoadInst(pointer());
        l->setExceptionsEnabled(exceptionsEnabled());
        return l;
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::Load;
    }
};

/** store: write a scalar to memory through a typed pointer. */
class StoreInst : public Instruction
{
  public:
    StoreInst(Value *value, Value *ptr)
        : Instruction(value->type()->context().voidTy(), Opcode::Store)
    {
        addOperand(value);
        addOperand(ptr);
    }

    Value *value() const { return operand(0); }
    Value *pointer() const { return operand(1); }

    Instruction *
    clone() const override
    {
        auto *s = new StoreInst(value(), pointer());
        s->setExceptionsEnabled(exceptionsEnabled());
        return s;
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::Store;
    }
};

/**
 * getelementptr: type-safe pointer arithmetic (paper Section 3.1).
 * Offsets are expressed symbolically — `long` element indexes for
 * arrays/pointers and constant `ubyte` field numbers for structures —
 * so the representation never exposes pointer size or endianness.
 */
class GetElementPtrInst : public Instruction
{
  public:
    GetElementPtrInst(Value *ptr, const std::vector<Value *> &indices)
        : Instruction(computeResultType(ptr->type(), indices),
                      Opcode::GetElementPtr)
    {
        addOperand(ptr);
        for (Value *idx : indices)
            addOperand(idx);
    }

    Value *pointer() const { return operand(0); }
    unsigned numIndices() const { return numOperands() - 1; }
    Value *index(unsigned i) const { return operand(1 + i); }

    /**
     * The pointer type produced by indexing \p ptr_type with
     * \p indices; fatal()s on invalid index sequences.
     */
    static Type *computeResultType(Type *ptr_type,
                                   const std::vector<Value *> &indices);

    /** True if every index is a constant. */
    bool hasAllConstantIndices() const;

    Instruction *
    clone() const override
    {
        std::vector<Value *> idx;
        for (unsigned i = 0, e = numIndices(); i != e; ++i)
            idx.push_back(index(i));
        return new GetElementPtrInst(pointer(), idx);
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::GetElementPtr;
    }
};

/**
 * alloca: allocate stack space in the current frame and return a
 * typed pointer to it (paper Section 3.2: the stack frame layout is
 * abstracted by making all stack allocation explicit). Fixed-size
 * allocas in the entry block are preallocated by the translator.
 */
class AllocaInst : public Instruction
{
  public:
    AllocaInst(Type *allocated, Value *array_size = nullptr)
        : Instruction(allocated->context().pointerTo(allocated),
                      Opcode::Alloca),
          allocated_(allocated)
    {
        if (array_size)
            addOperand(array_size);
    }

    Type *allocatedType() const { return allocated_; }

    Value *
    arraySize() const
    {
        return numOperands() ? operand(0) : nullptr;
    }

    /** True when the allocation size is a compile-time constant. */
    bool
    isStatic() const
    {
        return !arraySize() || isa<ConstantInt>(arraySize());
    }

    Instruction *
    clone() const override
    {
        return new AllocaInst(allocated_, arraySize());
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::Alloca;
    }

  private:
    Type *allocated_;
};

/**
 * cast: the sole type-conversion mechanism (paper Section 3.1 —
 * "no mixed-type operations and hence, no implicit type coercion").
 */
class CastInst : public Instruction
{
  public:
    CastInst(Value *value, Type *dest_type)
        : Instruction(dest_type, Opcode::Cast)
    {
        addOperand(value);
    }

    Value *value() const { return operand(0); }
    Type *destType() const { return type(); }

    Instruction *
    clone() const override
    {
        return new CastInst(value(), type());
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::Cast;
    }
};

/**
 * call: abstract calling convention — parameter passing and stack
 * adjustment are hidden behind this single instruction and chosen by
 * the translator (paper Section 3.2).
 * Operand layout: [callee, args...].
 */
class CallInst : public Instruction
{
  public:
    CallInst(Type *result_type, Value *callee,
             const std::vector<Value *> &args)
        : Instruction(result_type, Opcode::Call)
    {
        addOperand(callee);
        for (Value *a : args)
            addOperand(a);
    }

    Value *callee() const { return operand(0); }
    unsigned numArgs() const { return numOperands() - 1; }
    Value *arg(unsigned i) const { return operand(1 + i); }

    /** The callee's function type (through the pointer if indirect). */
    FunctionType *calleeType() const;

    /** Directly-called Function, or nullptr for indirect calls. */
    Function *calledFunction() const;

    Instruction *
    clone() const override
    {
        std::vector<Value *> args;
        for (unsigned i = 0, e = numArgs(); i != e; ++i)
            args.push_back(arg(i));
        return new CallInst(type(), callee(), args);
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::Call;
    }
};

/**
 * phi: SSA merge at a control-flow join (paper Section 3.1). The
 * translator eliminates phis by inserting copies in predecessors,
 * which register allocation then usually coalesces away.
 * Operand layout: [v0, b0, v1, b1, ...].
 */
class PhiNode : public Instruction
{
  public:
    explicit PhiNode(Type *type)
        : Instruction(type, Opcode::Phi)
    {}

    unsigned numIncoming() const { return numOperands() / 2; }
    Value *incomingValue(unsigned i) const { return operand(2 * i); }

    BasicBlock *
    incomingBlock(unsigned i) const
    {
        return static_cast<BasicBlock *>(operand(2 * i + 1));
    }

    void
    addIncoming(Value *value, BasicBlock *block)
    {
        addOperand(value);
        addOperand(block);
    }

    void setIncomingValue(unsigned i, Value *v) { setOperand(2 * i, v); }

    /** Index of the entry for predecessor \p bb, or -1. */
    int
    incomingIndexFor(const BasicBlock *bb) const
    {
        for (unsigned i = 0, e = numIncoming(); i != e; ++i)
            if (incomingBlock(i) == bb)
                return static_cast<int>(i);
        return -1;
    }

    Value *
    incomingValueFor(const BasicBlock *bb) const
    {
        int i = incomingIndexFor(bb);
        return i < 0 ? nullptr : incomingValue(static_cast<unsigned>(i));
    }

    void
    removeIncoming(unsigned i)
    {
        removeOperand(2 * i); // value
        removeOperand(2 * i); // block (shifted down)
    }

    Instruction *
    clone() const override
    {
        auto *p = new PhiNode(type());
        for (unsigned i = 0, e = numIncoming(); i != e; ++i)
            p->addIncoming(incomingValue(i), incomingBlock(i));
        return p;
    }

    static bool
    classof(const Value *v)
    {
        auto *i = dyn_cast<Instruction>(v);
        return i && i->opcode() == Opcode::Phi;
    }
};

} // namespace llva

#endif // LLVA_IR_INSTRUCTIONS_H
