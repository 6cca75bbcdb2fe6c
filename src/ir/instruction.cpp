#include "ir/instruction.h"

#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/instructions.h"

namespace llva {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Rem: return "rem";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::SetEQ: return "seteq";
      case Opcode::SetNE: return "setne";
      case Opcode::SetLT: return "setlt";
      case Opcode::SetGT: return "setgt";
      case Opcode::SetLE: return "setle";
      case Opcode::SetGE: return "setge";
      case Opcode::Ret: return "ret";
      case Opcode::Br: return "br";
      case Opcode::MBr: return "mbr";
      case Opcode::Invoke: return "invoke";
      case Opcode::Unwind: return "unwind";
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::GetElementPtr: return "getelementptr";
      case Opcode::Alloca: return "alloca";
      case Opcode::Cast: return "cast";
      case Opcode::Call: return "call";
      case Opcode::Phi: return "phi";
    }
    return "<badop>";
}

Function *
Instruction::function() const
{
    return parent_ ? parent_->parent() : nullptr;
}

unsigned
Instruction::numSuccessors() const
{
    switch (opcode_) {
      case Opcode::Br:
        return cast<BranchInst>(this)->isConditional() ? 2 : 1;
      case Opcode::MBr:
        return 1 + cast<MBrInst>(this)->numCases();
      case Opcode::Invoke:
        return 2;
      default:
        return 0;
    }
}

BasicBlock *
Instruction::successor(unsigned i) const
{
    switch (opcode_) {
      case Opcode::Br:
        return cast<BranchInst>(this)->target(i);
      case Opcode::MBr: {
        auto *m = cast<MBrInst>(this);
        return i == 0 ? m->defaultDest() : m->caseDest(i - 1);
      }
      case Opcode::Invoke: {
        auto *inv = cast<InvokeInst>(this);
        return i == 0 ? inv->normalDest() : inv->unwindDest();
      }
      default:
        panic("successor() on non-branching instruction");
    }
}

void
Instruction::eraseFromParent()
{
    LLVA_ASSERT(parent_, "instruction has no parent");
    parent_->erase(this);
}

Opcode
SetCondInst::swapped(Opcode op)
{
    switch (op) {
      case Opcode::SetEQ: return Opcode::SetEQ;
      case Opcode::SetNE: return Opcode::SetNE;
      case Opcode::SetLT: return Opcode::SetGT;
      case Opcode::SetGT: return Opcode::SetLT;
      case Opcode::SetLE: return Opcode::SetGE;
      case Opcode::SetGE: return Opcode::SetLE;
      default: panic("swapped() of non-comparison opcode");
    }
}

FunctionType *
CallInst::calleeType() const
{
    auto *pt = cast<PointerType>(callee()->type());
    return cast<FunctionType>(pt->pointee());
}

Function *
CallInst::calledFunction() const
{
    return dyn_cast<Function>(callee());
}

FunctionType *
InvokeInst::calleeType() const
{
    auto *pt = cast<PointerType>(callee()->type());
    return cast<FunctionType>(pt->pointee());
}

Type *
GetElementPtrInst::computeResultType(Type *ptr_type,
                                     const std::vector<Value *> &indices)
{
    auto *pt = dyn_cast<PointerType>(ptr_type);
    if (!pt)
        fatal("getelementptr base is not a pointer");
    if (indices.empty())
        fatal("getelementptr requires at least one index");

    // The first index steps over the pointer itself (array-of-T view).
    Type *cur = pt->pointee();
    for (size_t i = 1; i < indices.size(); ++i) {
        if (auto *at = dyn_cast<ArrayType>(cur)) {
            cur = at->element();
        } else if (auto *st = dyn_cast<StructType>(cur)) {
            auto *ci = dyn_cast<ConstantInt>(indices[i]);
            if (!ci)
                fatal("structure index must be a constant");
            if (ci->zext() >= st->numFields())
                fatal("structure index %llu out of range",
                      (unsigned long long)ci->zext());
            cur = st->field(static_cast<size_t>(ci->zext()));
        } else {
            fatal("getelementptr cannot index into %s",
                  cur->str().c_str());
        }
    }
    return cur->context().pointerTo(cur);
}

bool
GetElementPtrInst::hasAllConstantIndices() const
{
    for (unsigned i = 0, e = numIndices(); i != e; ++i)
        if (!isa<ConstantInt>(index(i)))
            return false;
    return true;
}

} // namespace llva
