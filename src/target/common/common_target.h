/**
 * @file
 * The common target framework: a Target base class that derives the
 * register-file queries, calling-convention marshalling,
 * prologue/epilogue shape, encode driver, and the threaded-dispatch
 * handler table from two declarative inputs —
 *
 *  - an AbiDesc describing the calling convention (how many
 *    arguments ride in registers, which registers, where returns
 *    live), and
 *  - a table of InstrDesc rows (mnemonic, execute handler, encoding
 *    width) indexed by the relative opcode layout of target_ops.h.
 *
 * A backend supplies its register file, fills the table (mostly via
 * installCommonCore), and implements only what is genuinely
 * target-specific: instruction selection flavor, disassembly syntax,
 * variable-length encoding rules, and delay-slot placement.
 */

#ifndef LLVA_TARGET_COMMON_COMMON_TARGET_H
#define LLVA_TARGET_COMMON_COMMON_TARGET_H

#include <array>

#include "codegen/target.h"
#include "target/common/target_ops.h"

namespace llva {
namespace cmn {

/**
 * Per-target calling-convention descriptor. The first numRegArgs
 * arguments travel in registers intArgBase+i / fpArgBase+i (by the
 * parameter's class); the rest use the caller's outgoing stack area
 * at sp+8i. numRegArgs == 0 describes a fully stack-based
 * convention (x86).
 */
struct AbiDesc
{
    unsigned numRegArgs = 0;
    unsigned intArgBase = 0;
    unsigned fpArgBase = 32;
    unsigned intRetReg = 0;
    unsigned fpRetReg = 32;
};

/** One row of a target's instruction-description table. */
struct InstrDesc
{
    const char *mnemonic = nullptr;
    ExecFn exec = nullptr;
    /** Encoded byte size; 0 defers to the target's variableSize()
     *  (variable-length encodings and fixed-word targets). */
    uint8_t encBytes = 0;
};

class CommonTarget : public Target
{
  public:
    const std::vector<unsigned> &allocatable(RegClass rc)
        const override;
    const std::vector<unsigned> &calleeSaved(RegClass rc)
        const override;
    unsigned returnReg(RegClass rc) const override;

    void insertPrologueEpilogue(
        MachineFunction &mf,
        const std::vector<std::pair<unsigned, int64_t>> &saved)
        override;

    std::vector<uint8_t> encode(const MachineInstr &mi)
        const override;
    /** The operand-specialized handler (common_exec.h) when \p
     *  mi's operand kinds and width have one, else the generic
     *  one. */
    ExecFn handlerFor(const MachineInstr &mi) const override;

    /** The generic handler of \p mi's opcode (its table row or
     *  generic-pseudo handler), whatever the operands: the
     *  fallback of handlerFor() and the reference the specialized
     *  handlers are checked against. */
    ExecFn genericHandlerFor(const MachineInstr &mi) const;

    void writeArgs(SimState &state, const FunctionType *ft,
                   const std::vector<RtValue> &args) const override;
    std::vector<RtValue> readArgs(SimState &state,
                                  const FunctionType *ft)
        const override;

    const AbiDesc &abi() const { return abi_; }
    uint16_t opcodeBase() const { return base_; }

  protected:
    /**
     * \p fixed_instr_bytes is the uniform instruction word size of a
     * fixed-width (RISC) encoding, applied to every opcode including
     * the generic pseudos; 0 selects variable-length encoding, where
     * table rows give fixed sizes and everything else (including
     * pseudos) goes through variableSize().
     */
    CommonTarget(uint16_t opcode_base, const AbiDesc &abi,
                 unsigned fixed_instr_bytes);

    /** Absolute opcode of a relative (structural) opcode. */
    uint16_t
    op(unsigned rel) const
    {
        return static_cast<uint16_t>(base_ | rel);
    }

    /** Register one instruction-table row. */
    void setInstr(unsigned rel, const char *mnemonic, ExecFn exec,
                  unsigned enc_bytes = 0);

    /** Set the encoded size of an already-registered row. */
    void setEncBytes(unsigned rel, unsigned bytes);

    /**
     * Fill the table rows every backend shares: ALU, FP ALU, setcc
     * (with the target's comparison style), control flow, memory,
     * conversions, and the sp adjustment.
     */
    void installCommonCore(ExecFn setcc_handler);

    /** Operand-dependent encoded size (variable-length targets). */
    virtual size_t variableSize(const MachineInstr &mi) const;

    /** Post-pass over the frame code (e.g. branch delay-slot fill,
     *  which must run after phi elimination). */
    virtual void
    finishPrologueEpilogue(MachineFunction &mf)
    {
        (void)mf;
    }

    std::vector<unsigned> allocInt_, allocFP_;
    std::vector<unsigned> calleeInt_, calleeFP_;

  private:
    const InstrDesc &desc(uint16_t opcode) const;

    uint16_t base_;
    AbiDesc abi_;
    unsigned fixedBytes_;
    std::array<InstrDesc, kNumRelOps> table_{};
};

} // namespace cmn
} // namespace llva

#endif // LLVA_TARGET_COMMON_COMMON_TARGET_H
