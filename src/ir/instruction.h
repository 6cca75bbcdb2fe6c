/**
 * @file
 * The Instruction base class and the 28-opcode LLVA instruction set
 * (paper Table 1).
 *
 * Every instruction carries the ExceptionsEnabled attribute from
 * paper Section 3.3: exceptions raised by an instruction whose
 * attribute is false are ignored; when true they are delivered
 * precisely. The default is true for load, store, div, and rem, and
 * false for everything else.
 */

#ifndef LLVA_IR_INSTRUCTION_H
#define LLVA_IR_INSTRUCTION_H

#include <cstdint>
#include <string>

#include "ir/type.h"
#include "ir/value.h"

namespace llva {

class BasicBlock;
class Function;

/** The complete LLVA opcode set: exactly the 28 of paper Table 1. */
enum class Opcode : uint8_t {
    // Arithmetic.
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    // Bitwise.
    And,
    Or,
    Xor,
    Shl,
    Shr,
    // Comparison.
    SetEQ,
    SetNE,
    SetLT,
    SetGT,
    SetLE,
    SetGE,
    // Control flow.
    Ret,
    Br,
    MBr,
    Invoke,
    Unwind,
    // Memory.
    Load,
    Store,
    GetElementPtr,
    Alloca,
    // Other.
    Cast,
    Call,
    Phi,
};

constexpr unsigned kNumOpcodes = 28;

/** Assembly mnemonic for an opcode ("add", "getelementptr", ...). */
const char *opcodeName(Opcode op);

/** The ExceptionsEnabled default for \p op (Section 3.3). */
constexpr bool
defaultExceptionsEnabled(Opcode op)
{
    return op == Opcode::Load || op == Opcode::Store ||
           op == Opcode::Div || op == Opcode::Rem;
}

/**
 * Base class for all LLVA instructions. An instruction is a User (it
 * references operand Values) and a Value (its result can be used).
 */
class Instruction : public User
{
  public:
    Opcode opcode() const { return opcode_; }
    const char *opcodeStr() const { return opcodeName(opcode_); }

    BasicBlock *parent() const { return parent_; }
    void setParent(BasicBlock *bb) { parent_ = bb; }

    /** Function containing this instruction (via its block). */
    Function *function() const;

    /** ExceptionsEnabled attribute (paper Section 3.3). */
    bool exceptionsEnabled() const { return exceptionsEnabled_; }
    void setExceptionsEnabled(bool e) { exceptionsEnabled_ = e; }

    bool
    isTerminator() const
    {
        switch (opcode_) {
          case Opcode::Ret:
          case Opcode::Br:
          case Opcode::MBr:
          case Opcode::Invoke:
          case Opcode::Unwind:
            return true;
          default:
            return false;
        }
    }

    bool
    isBinaryOp() const
    {
        return opcode_ >= Opcode::Add && opcode_ <= Opcode::Shr;
    }

    bool
    isComparison() const
    {
        return opcode_ >= Opcode::SetEQ && opcode_ <= Opcode::SetGE;
    }

    /** True if this instruction writes memory or transfers control. */
    bool
    hasSideEffects() const
    {
        switch (opcode_) {
          case Opcode::Store:
          case Opcode::Call:
          case Opcode::Invoke:
          case Opcode::Ret:
          case Opcode::Br:
          case Opcode::MBr:
          case Opcode::Unwind:
            return true;
          default:
            return false;
        }
    }

    /**
     * True if the instruction may raise an exception that will be
     * delivered (i.e. it can trap and ExceptionsEnabled is set).
     */
    bool
    mayTrap() const
    {
        return exceptionsEnabled_ &&
               (opcode_ == Opcode::Load || opcode_ == Opcode::Store ||
                opcode_ == Opcode::Div || opcode_ == Opcode::Rem);
    }

    /** Number of successor blocks (terminators only). */
    unsigned numSuccessors() const;
    /** Successor block \p i of a terminator. */
    BasicBlock *successor(unsigned i) const;

    /** Unlink from the parent block and destroy. */
    void eraseFromParent();

    /** Deep copy with identical operands (caller fixes names/SSA). */
    virtual Instruction *clone() const = 0;

    static bool
    classof(const Value *v)
    {
        return v->valueKind() == ValueKind::Instruction;
    }

  protected:
    Instruction(Type *type, Opcode opcode)
        : User(type, ValueKind::Instruction), opcode_(opcode),
          exceptionsEnabled_(defaultExceptionsEnabled(opcode))
    {}

  private:
    BasicBlock *parent_ = nullptr;
    Opcode opcode_;
    bool exceptionsEnabled_;
};

} // namespace llva

#endif // LLVA_IR_INSTRUCTION_H
