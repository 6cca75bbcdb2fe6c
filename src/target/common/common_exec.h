/**
 * @file
 * The shared direct-threaded execute handlers. One free function per
 * structural opcode group, written against the relative opcode
 * layout in target_ops.h, so every backend's instruction table
 * references the same functions and the three machines cannot
 * diverge from each other (or from the interpreter) in the shared
 * semantics.
 *
 * Handlers rely on the driver presetting state.next = Fall and must
 * write every consumer field of the Next value they request
 * (branchTarget, callTarget/callAddr, trapKind); see
 * Target::handlerFor.
 */

#ifndef LLVA_TARGET_COMMON_COMMON_EXEC_H
#define LLVA_TARGET_COMMON_COMMON_EXEC_H

#include "target/common/target_ops.h"
#include "target/target_util.h"

namespace llva {
namespace cmn {

inline tgt::Alu
aluOfInt(uint16_t opcode)
{
    return static_cast<tgt::Alu>(relOp(opcode) - kAdd);
}

inline tgt::Alu
aluOfFP(uint16_t opcode)
{
    return static_cast<tgt::Alu>(relOp(opcode) - kFAdd);
}

inline tgt::Cond
condOf(uint16_t opcode)
{
    return static_cast<tgt::Cond>(relOp(opcode) - kSetEq);
}

/** Integer ALU: [def dst, use a, use b(Reg|Imm)]. */
inline void
hAlu(const MachineInstr &mi, SimState &state)
{
    using namespace tgt;
    uint64_t a = state.ireg[mi.ops[1].reg];
    uint64_t b = operandIntValue(mi.ops[2], state);
    uint64_t r = evalAlu(aluOfInt(mi.opcode), a, b, mi.width,
                         mi.signExt, mi.trapEnabled, state);
    if (state.next != SimState::Next::Trap)
        state.ireg[mi.ops[0].reg] = r;
}

/** FP ALU: [def dst, use a, use b]. */
inline void
hFAlu(const MachineInstr &mi, SimState &state)
{
    using namespace tgt;
    state.freg[mi.ops[0].reg - 32] =
        evalFAlu(aluOfFP(mi.opcode), state.freg[mi.ops[1].reg - 32],
                 state.freg[mi.ops[2].reg - 32], mi.fp32);
}

/** Flags-style setcc: [def dst], reads the recorded compare state. */
inline void
hSetCCFlags(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] =
        tgt::evalCondState(condOf(mi.opcode), mi.signExt, state) ? 1
                                                                 : 0;
}

/** Compare-into-register setcc: [def dst, use a, use b]. Integer or
 *  FP by the register class of the first source operand. */
inline void
hSetCCCompare(const MachineInstr &mi, SimState &state)
{
    using namespace tgt;
    Cond c = condOf(mi.opcode);
    bool r;
    if (isFPReg(mi.ops[1].reg)) {
        r = evalCond<double>(c, state.freg[mi.ops[1].reg - 32],
                             state.freg[mi.ops[2].reg - 32]);
    } else {
        uint64_t a = state.ireg[mi.ops[1].reg];
        uint64_t b = operandIntValue(mi.ops[2], state);
        if (mi.signExt)
            r = evalCond<int64_t>(
                c, static_cast<int64_t>(normInt(a, mi.width, true)),
                static_cast<int64_t>(normInt(b, mi.width, true)));
        else
            r = evalCond<uint64_t>(c, normInt(a, mi.width, false),
                                   normInt(b, mi.width, false));
    }
    state.ireg[mi.ops[0].reg] = r ? 1 : 0;
}

/** Flags-style integer compare: [use a, use b(Reg|Imm)]. */
inline void
hCmpFlags(const MachineInstr &mi, SimState &state)
{
    tgt::recordCmp(state.ireg[mi.ops[0].reg],
                   tgt::operandIntValue(mi.ops[1], state), mi.width,
                   state);
}

/** Flags-style FP compare: [use a, use b]. */
inline void
hFCmpFlags(const MachineInstr &mi, SimState &state)
{
    tgt::recordFCmp(state.freg[mi.ops[0].reg - 32],
                    state.freg[mi.ops[1].reg - 32], state);
}

/** High half of an immediate pair: dst = imm & ~LoMask. An FPImm
 *  operand marks a constant-pool address pair; the simulated pool
 *  has no real location, so the base is zero (kLoadConst carries
 *  the value itself). */
template <uint64_t LoMask>
inline void
hHi(const MachineInstr &mi, SimState &state)
{
    uint64_t v = mi.ops[1].kind == MOperand::FPImm
                     ? 0
                     : tgt::operandIntValue(mi.ops[1], state);
    state.ireg[mi.ops[0].reg] = v & ~LoMask;
}

/** Low half of an immediate pair: dst = src | (imm & LoMask). */
template <uint64_t LoMask>
inline void
hLo(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] =
        state.ireg[mi.ops[1].reg] |
        (tgt::operandIntValue(mi.ops[2], state) & LoMask);
}

/** FP constant-pool load: [def fdst, use addr, FPImm]. */
inline void
hLoadConst(const MachineInstr &mi, SimState &state)
{
    state.freg[mi.ops[0].reg - 32] =
        tgt::fpRound(mi.ops[2].fpimm, mi.fp32);
}

inline void
hNop(const MachineInstr &, SimState &)
{}

inline void
hBrnz(const MachineInstr &mi, SimState &state)
{
    if (state.ireg[mi.ops[0].reg]) {
        state.next = SimState::Next::Branch;
        state.branchTarget = mi.ops[1].block;
    }
}

inline void
hBr(const MachineInstr &mi, SimState &state)
{
    state.next = SimState::Next::Branch;
    state.branchTarget = mi.ops[0].block;
}

inline void
hCall(const MachineInstr &mi, SimState &state)
{
    state.next = SimState::Next::Call;
    if (mi.ops[0].kind == MOperand::Func) {
        state.callTarget = mi.ops[0].func;
    } else {
        // The driver re-arms only state.next, so a stale direct-call
        // target would shadow the indirect address: clear it.
        state.callTarget = nullptr;
        state.callAddr = state.ireg[mi.ops[0].reg];
    }
}

inline void
hRet(const MachineInstr &, SimState &state)
{
    state.next = SimState::Next::Return;
}

inline void
hUnwind(const MachineInstr &, SimState &state)
{
    state.next = SimState::Next::Unwind;
}

inline void
hLoad(const MachineInstr &mi, SimState &state)
{
    tgt::execLoad(mi, state.ireg[mi.ops[1].reg], state);
}

inline void
hStore(const MachineInstr &mi, SimState &state)
{
    tgt::execStore(mi, 0, state.ireg[mi.ops[1].reg], state);
}

inline void
hLoadStack(const MachineInstr &mi, SimState &state)
{
    tgt::execSlotLoad(mi.ops[0].reg, mi.ops[1].imm, state);
}

inline void
hStoreStack(const MachineInstr &mi, SimState &state)
{
    tgt::execSlotStore(mi.ops[0].reg, mi.ops[1].imm, state);
}

inline void
hSpAdj(const MachineInstr &mi, SimState &state)
{
    state.sp += static_cast<uint64_t>(mi.ops[0].imm);
}

// --- Operand-specialized handlers ----------------------------------------
//
// The hottest instruction shapes with their operand kinds, width and
// (for ALU ops and setcc) operation fixed at handler-selection time,
// so the handler neither re-decodes mi.ops nor switches on an
// operation, operand kind or access width. Each computes exactly
// what the generic handler it replaces computes for that shape
// (tests/test_dispatch.cpp, SpecializedHandlers, checks each one
// against genericHandlerFor on random states).

/** Value of a Reg (B == Reg) or Imm integer operand. */
template <MOperand::Kind B>
inline uint64_t
intOperand(const MOperand &op, const SimState &state)
{
    return B == MOperand::Imm ? static_cast<uint64_t>(op.imm)
                              : state.ireg[op.reg];
}

/** Integer copy from a register or an immediate. */
template <MOperand::Kind B>
inline void
hCopyInt(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] = intOperand<B>(mi.ops[1], state);
}

/** Integer register to its 8-byte stack slot (spill, callee save). */
inline void
hSlotStoreInt(const MachineInstr &mi, SimState &state)
{
    uint64_t addr = state.sp + static_cast<uint64_t>(mi.ops[1].imm);
    if (!state.mem->store(addr, 8, state.ireg[mi.ops[0].reg]))
        state.mem->clearTrap();
}

/** Integer register from its 8-byte stack slot (reload, restore). */
inline void
hSlotLoadInt(const MachineInstr &mi, SimState &state)
{
    uint64_t addr = state.sp + static_cast<uint64_t>(mi.ops[1].imm);
    uint64_t v = 0;
    if (!state.mem->load(addr, 8, v))
        state.mem->clearTrap();
    state.ireg[mi.ops[0].reg] = v;
}

/** 64-bit integer ALU. Only ops that cannot trap and whose result
 *  needs no width or sign normalization at 64 bits are
 *  instantiated (see common_target.cpp). */
template <tgt::Alu Op, MOperand::Kind B>
inline void
hAlu64(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] =
        tgt::evalAlu(Op, state.ireg[mi.ops[1].reg],
                     intOperand<B>(mi.ops[2], state), 8, false, false,
                     state);
}

/** 64-bit integer load: [def dst, use addr]. */
inline void
hLoad64(const MachineInstr &mi, SimState &state)
{
    uint64_t v = 0;
    if (!state.mem->load(state.ireg[mi.ops[1].reg], 8, v) &&
        tgt::failAccess(mi, state))
        return;
    state.ireg[mi.ops[0].reg] = v;
}

/** 64-bit integer store: [use src, use addr]. */
inline void
hStore64(const MachineInstr &mi, SimState &state)
{
    if (!state.mem->store(state.ireg[mi.ops[1].reg], 8,
                          state.ireg[mi.ops[0].reg]))
        tgt::failAccess(mi, state);
}

/** 64-bit flags-style integer compare: [use a, use b]. */
template <MOperand::Kind B>
inline void
hCmpFlags64(const MachineInstr &mi, SimState &state)
{
    tgt::recordCmp(state.ireg[mi.ops[0].reg],
                   intOperand<B>(mi.ops[1], state), 8, state);
}

/** Flags-style setcc with its condition and signedness fixed. */
template <tgt::Cond C, bool Sign>
inline void
hSetCCFlagsOf(const MachineInstr &mi, SimState &state)
{
    state.ireg[mi.ops[0].reg] =
        tgt::evalCondState(C, Sign, state) ? 1 : 0;
}

/** 64-bit integer compare-into-register setcc with its condition
 *  and signedness fixed: [def dst, use a, use b]. */
template <tgt::Cond C, bool Sign, MOperand::Kind B>
inline void
hSetCCCompare64(const MachineInstr &mi, SimState &state)
{
    uint64_t a = state.ireg[mi.ops[1].reg];
    uint64_t b = intOperand<B>(mi.ops[2], state);
    bool r = Sign ? tgt::evalCond<int64_t>(C, static_cast<int64_t>(a),
                                           static_cast<int64_t>(b))
                  : tgt::evalCond<uint64_t>(C, a, b);
    state.ireg[mi.ops[0].reg] = r ? 1 : 0;
}

} // namespace cmn
} // namespace llva

#endif // LLVA_TARGET_COMMON_COMMON_EXEC_H
