/**
 * @file
 * Target-independent machine IR: the output of instruction selection
 * and the input to register allocation, encoding, and the I-ISA
 * simulators. Each target defines its own opcode space; the
 * structures here are shared.
 */

#ifndef LLVA_CODEGEN_MACHINE_H
#define LLVA_CODEGEN_MACHINE_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "support/hashing.h"

namespace llva {

/** Register class of a virtual or physical register. */
enum class RegClass : uint8_t {
    Int, ///< integers, booleans, pointers
    FP,  ///< float and double
};

/** Virtual register numbers start here; below are physical. */
constexpr unsigned kFirstVirtualReg = 1024;

inline bool
isVirtualReg(unsigned reg)
{
    return reg >= kFirstVirtualReg;
}

class MachineBasicBlock;
struct MachineInstr;
struct SimState;

/**
 * Resolved execution semantics of one machine instruction: the
 * direct-threaded dispatch handler. The simulator caches the
 * target's handler on the instruction the first time it executes,
 * so steady-state dispatch is one indirect call — no virtual
 * dispatch, no opcode switch.
 */
using ExecFn = void (*)(const MachineInstr &, SimState &);

/** One operand of a machine instruction. */
struct MOperand
{
    enum Kind : uint8_t {
        Reg,    ///< register (virtual or physical)
        Imm,    ///< integer immediate
        FPImm,  ///< floating-point immediate
        Frame,  ///< frame object index (resolved to sp/fp offset)
        Block,  ///< branch target
        Global, ///< address of a global variable
        Func,   ///< address of a function
    };

    Kind kind = Imm;
    unsigned reg = 0;
    int64_t imm = 0;
    double fpimm = 0.0;
    int frameIndex = -1;
    MachineBasicBlock *block = nullptr;
    const GlobalVariable *global = nullptr;
    const Function *func = nullptr;

    static MOperand
    makeReg(unsigned r)
    {
        MOperand op;
        op.kind = Reg;
        op.reg = r;
        return op;
    }

    static MOperand
    makeImm(int64_t v)
    {
        MOperand op;
        op.kind = Imm;
        op.imm = v;
        return op;
    }

    static MOperand
    makeFPImm(double v)
    {
        MOperand op;
        op.kind = FPImm;
        op.fpimm = v;
        return op;
    }

    static MOperand
    makeFrame(int index)
    {
        MOperand op;
        op.kind = Frame;
        op.frameIndex = index;
        return op;
    }

    static MOperand
    makeBlock(MachineBasicBlock *bb)
    {
        MOperand op;
        op.kind = Block;
        op.block = bb;
        return op;
    }

    static MOperand
    makeGlobal(const GlobalVariable *g)
    {
        MOperand op;
        op.kind = Global;
        op.global = g;
        return op;
    }

    static MOperand
    makeFunc(const Function *f)
    {
        MOperand op;
        op.kind = Func;
        op.func = f;
        return op;
    }
};

/**
 * A machine instruction: target opcode plus operands. By convention
 * the first \ref numDefs operands are register definitions.
 */
struct MachineInstr
{
    uint16_t opcode = 0;
    uint8_t numDefs = 0;
    /** Deliver traps from this instruction (ExceptionsEnabled). */
    bool trapEnabled = false;
    /** Transfers to another function (clobbers caller-saved regs). */
    bool isCall = false;
    /** Returns from the function. */
    bool isRet = false;
    /** Byte width of the memory access / operation, when relevant. */
    uint8_t width = 8;
    /** Sign-extend (vs zero-extend) for loads, narrows, division. */
    bool signExt = false;
    /** FP operations: true for float (4-byte), false for double. */
    bool fp32 = false;
    std::vector<MOperand> ops;
    /** Lazily resolved dispatch handler (owned by the executing
     *  target; never serialized). Atomic because concurrent
     *  simulators may resolve the same instruction: handlerFor()
     *  is deterministic per instruction, so racing stores write the
     *  same value and relaxed ordering suffices. */
    mutable std::atomic<ExecFn> exec{nullptr};

    MachineInstr(uint16_t opc, std::vector<MOperand> operands,
                 unsigned defs = 0)
        : opcode(opc), numDefs(static_cast<uint8_t>(defs)),
          ops(std::move(operands))
    {}
};

class MachineFunction;

/** A machine basic block: straight-line MIs plus successor edges. */
class MachineBasicBlock
{
  public:
    MachineBasicBlock(MachineFunction *parent, std::string name,
                      unsigned index)
        : parent_(parent), name_(std::move(name)), index_(index),
          nameHash_(fnv1a(name_))
    {}

    MachineFunction *parent() const { return parent_; }
    const std::string &name() const { return name_; }
    unsigned index() const { return index_; }

    /** fnv1a of the block name, computed once at creation — the
     *  BlockId::block component, so profiling never rehashes the
     *  name on a block entry. */
    uint64_t nameHash() const { return nameHash_; }

    std::vector<std::unique_ptr<MachineInstr>> &instrs()
    {
        return instrs_;
    }
    const std::vector<std::unique_ptr<MachineInstr>> &instrs() const
    {
        return instrs_;
    }

    MachineInstr *
    append(uint16_t opcode, std::vector<MOperand> ops,
           unsigned defs = 0)
    {
        instrs_.push_back(std::make_unique<MachineInstr>(
            opcode, std::move(ops), defs));
        return instrs_.back().get();
    }

    std::vector<MachineBasicBlock *> &successors() { return succs_; }
    const std::vector<MachineBasicBlock *> &successors() const
    {
        return succs_;
    }

  private:
    MachineFunction *parent_;
    std::string name_;
    unsigned index_;
    uint64_t nameHash_;
    std::vector<std::unique_ptr<MachineInstr>> instrs_;
    std::vector<MachineBasicBlock *> succs_;
};

/** A stack frame object (spill slot, alloca, outgoing arg area). */
struct FrameObject
{
    uint64_t size = 8;
    uint64_t align = 8;
    int64_t offset = 0; ///< assigned during frame finalization
};

/** Per-virtual-register bookkeeping. */
struct VRegInfo
{
    RegClass regClass = RegClass::Int;
    bool fp32 = false; ///< FP class: float rather than double
};

class MachineFunction
{
  public:
    MachineFunction(const Function *source, std::string target_name)
        : source_(source), targetName_(std::move(target_name)),
          nameHash_(fnv1a(source_->name()))
    {}

    const Function *source() const { return source_; }
    const std::string &name() const { return source_->name(); }
    const std::string &targetName() const { return targetName_; }

    /** fnv1a of the source function's name, computed once at
     *  translation time — the BlockId::fn component. */
    uint64_t nameHash() const { return nameHash_; }

    MachineBasicBlock *
    createBlock(const std::string &name)
    {
        blocks_.push_back(std::make_unique<MachineBasicBlock>(
            this, name, static_cast<unsigned>(blocks_.size())));
        return blocks_.back().get();
    }

    const std::vector<std::unique_ptr<MachineBasicBlock>> &blocks()
        const
    {
        return blocks_;
    }
    std::vector<std::unique_ptr<MachineBasicBlock>> &blocks()
    {
        return blocks_;
    }

    unsigned
    createVReg(RegClass rc, bool fp32 = false)
    {
        vregs_.push_back({rc, fp32});
        return kFirstVirtualReg +
               static_cast<unsigned>(vregs_.size()) - 1;
    }

    const VRegInfo &
    vregInfo(unsigned reg) const
    {
        LLVA_ASSERT(isVirtualReg(reg), "not a virtual register");
        return vregs_[reg - kFirstVirtualReg];
    }

    size_t numVRegs() const { return vregs_.size(); }

    int
    createFrameObject(uint64_t size, uint64_t align)
    {
        frame_.push_back({size, align, 0});
        return static_cast<int>(frame_.size()) - 1;
    }

    std::vector<FrameObject> &frame() { return frame_; }
    const std::vector<FrameObject> &frame() const { return frame_; }

    /** Total frame size after finalization. */
    uint64_t frameSize() const { return frameSize_; }
    void setFrameSize(uint64_t s) { frameSize_ = s; }

    /**
     * Bytes reserved at sp+0 for outgoing call arguments (the
     * stack-based part of the calling convention).
     */
    uint64_t outgoingArgsSize() const { return outgoingArgs_; }

    void
    noteOutgoingArgs(uint64_t bytes)
    {
        if (bytes > outgoingArgs_)
            outgoingArgs_ = bytes;
    }

    size_t
    instructionCount() const
    {
        size_t n = 0;
        for (const auto &bb : blocks_)
            n += bb->instrs().size();
        return n;
    }

  private:
    const Function *source_;
    std::string targetName_;
    uint64_t nameHash_;
    std::vector<std::unique_ptr<MachineBasicBlock>> blocks_;
    std::vector<VRegInfo> vregs_;
    std::vector<FrameObject> frame_;
    uint64_t frameSize_ = 0;
    uint64_t outgoingArgs_ = 0;
};

} // namespace llva

#endif // LLVA_CODEGEN_MACHINE_H
