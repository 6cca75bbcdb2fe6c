#include "target/common/common_target.h"

#include <type_traits>

#include "support/error.h"
#include "target/common/common_exec.h"
#include "target/target_util.h"

namespace llva {
namespace cmn {

namespace {

template <tgt::Cond C>
using CondC = std::integral_constant<tgt::Cond, C>;
template <MOperand::Kind K>
using KindC = std::integral_constant<MOperand::Kind, K>;

/** \p make(CondC<c>{}): instantiates a condition-templated handler
 *  for a run-time condition \p c. */
template <typename Make>
ExecFn
byCond(tgt::Cond c, Make make)
{
    using tgt::Cond;
    switch (c) {
      case Cond::Eq: return make(CondC<Cond::Eq>{});
      case Cond::Ne: return make(CondC<Cond::Ne>{});
      case Cond::Lt: return make(CondC<Cond::Lt>{});
      case Cond::Gt: return make(CondC<Cond::Gt>{});
      case Cond::Le: return make(CondC<Cond::Le>{});
      case Cond::Ge: return make(CondC<Cond::Ge>{});
    }
    return nullptr;
}

template <bool Sign>
ExecFn
setccFlagsFor(tgt::Cond c)
{
    return byCond(c, [](auto C) -> ExecFn {
        return hSetCCFlagsOf<decltype(C)::value, Sign>;
    });
}

template <bool Sign, MOperand::Kind B>
ExecFn
setccCompare64For(tgt::Cond c)
{
    return byCond(c, [](auto C) -> ExecFn {
        return hSetCCCompare64<decltype(C)::value, Sign, B>;
    });
}

template <MOperand::Kind B>
ExecFn
alu64For(tgt::Alu op)
{
    using tgt::Alu;
    switch (op) {
      case Alu::Add: return hAlu64<Alu::Add, B>;
      case Alu::Sub: return hAlu64<Alu::Sub, B>;
      case Alu::Mul: return hAlu64<Alu::Mul, B>;
      case Alu::And: return hAlu64<Alu::And, B>;
      case Alu::Or: return hAlu64<Alu::Or, B>;
      case Alu::Xor: return hAlu64<Alu::Xor, B>;
      case Alu::Shl: return hAlu64<Alu::Shl, B>;
      default: return nullptr; // div, rem, shr: sign- or trap-dependent
    }
}

/** \p pick(KindC<k>{}) for the kind k of an integer operand \p op,
 *  or nullptr unless it is a Reg or an Imm. */
template <typename Pick>
ExecFn
byIntKind(const MOperand &op, Pick pick)
{
    if (op.kind == MOperand::Reg)
        return pick(KindC<MOperand::Reg>{});
    if (op.kind == MOperand::Imm)
        return pick(KindC<MOperand::Imm>{});
    return nullptr;
}

/**
 * The operand-specialized form of \p mi, whose table handler is \p
 * generic, or nullptr when its shape has none. Keyed on the generic
 * handler rather than the opcode, so a target that registers its own
 * handler for a row is never specialized behind its back.
 */
ExecFn
specializedHandler(const MachineInstr &mi, ExecFn generic)
{
    using tgt::isFPReg;
    // ops[] is only read once the row is known to have them.
    if (generic == tgt::hdlCopy && !isFPReg(mi.ops[0].reg))
        return byIntKind(mi.ops[1], [](auto B) -> ExecFn {
            return hCopyInt<decltype(B)::value>;
        });
    if ((generic == tgt::hdlSpill || generic == hStoreStack) &&
        !isFPReg(mi.ops[0].reg))
        return hSlotStoreInt;
    if ((generic == tgt::hdlReload || generic == hLoadStack) &&
        !isFPReg(mi.ops[0].reg))
        return hSlotLoadInt;
    if (generic == hSetCCFlags)
        return mi.signExt ? setccFlagsFor<true>(condOf(mi.opcode))
                          : setccFlagsFor<false>(condOf(mi.opcode));
    if (mi.width != 8)
        return nullptr;
    if (generic == hAlu)
        return byIntKind(mi.ops[2], [&](auto B) {
            return alu64For<decltype(B)::value>(aluOfInt(mi.opcode));
        });
    if (generic == hCmpFlags)
        return byIntKind(mi.ops[1], [](auto B) -> ExecFn {
            return hCmpFlags64<decltype(B)::value>;
        });
    if (generic == hSetCCCompare && !isFPReg(mi.ops[1].reg))
        return byIntKind(mi.ops[2], [&](auto B) {
            constexpr MOperand::Kind K = decltype(B)::value;
            tgt::Cond c = condOf(mi.opcode);
            return mi.signExt ? setccCompare64For<true, K>(c)
                              : setccCompare64For<false, K>(c);
        });
    if (generic == hLoad && !isFPReg(mi.ops[0].reg))
        return hLoad64;
    if (generic == hStore && !isFPReg(mi.ops[0].reg))
        return hStore64;
    return nullptr;
}

} // namespace

CommonTarget::CommonTarget(uint16_t opcode_base, const AbiDesc &abi,
                           unsigned fixed_instr_bytes)
    : base_(opcode_base), abi_(abi), fixedBytes_(fixed_instr_bytes)
{}

const std::vector<unsigned> &
CommonTarget::allocatable(RegClass rc) const
{
    return rc == RegClass::Int ? allocInt_ : allocFP_;
}

const std::vector<unsigned> &
CommonTarget::calleeSaved(RegClass rc) const
{
    return rc == RegClass::Int ? calleeInt_ : calleeFP_;
}

unsigned
CommonTarget::returnReg(RegClass rc) const
{
    return rc == RegClass::Int ? abi_.intRetReg : abi_.fpRetReg;
}

void
CommonTarget::setInstr(unsigned rel, const char *mnemonic,
                       ExecFn exec, unsigned enc_bytes)
{
    LLVA_ASSERT(rel < kNumRelOps, "relative opcode out of range");
    table_[rel] = {mnemonic, exec,
                   static_cast<uint8_t>(enc_bytes)};
}

void
CommonTarget::setEncBytes(unsigned rel, unsigned bytes)
{
    LLVA_ASSERT(rel < kNumRelOps && table_[rel].exec,
                "setEncBytes on unregistered opcode");
    table_[rel].encBytes = static_cast<uint8_t>(bytes);
}

void
CommonTarget::installCommonCore(ExecFn setcc_handler)
{
    static const char *const alu[] = {"add", "sub", "mul", "div",
                                      "rem", "and", "or",  "xor",
                                      "shl", "shr"};
    for (unsigned i = kAdd; i <= kShr; ++i)
        setInstr(i, alu[i - kAdd], hAlu);
    static const char *const falu[] = {"fadd", "fsub", "fmul",
                                       "fdiv", "frem"};
    for (unsigned i = kFAdd; i <= kFRem; ++i)
        setInstr(i, falu[i - kFAdd], hFAlu);
    static const char *const setcc[] = {"seteq", "setne", "setlt",
                                        "setgt", "setle", "setge"};
    for (unsigned i = kSetEq; i <= kSetGe; ++i)
        setInstr(i, setcc[i - kSetEq], setcc_handler);
    setInstr(kBrnz, "brnz", hBrnz);
    setInstr(kBr, "br", hBr);
    setInstr(kCall, "call", hCall);
    setInstr(kRet, "ret", hRet);
    setInstr(kUnwind, "unwind", hUnwind);
    setInstr(kLoad, "load", hLoad);
    setInstr(kStore, "store", hStore);
    setInstr(kLoadStack, "loadstack", hLoadStack);
    setInstr(kStoreStack, "storestack", hStoreStack);
    setInstr(kExt, "ext", tgt::execExt);
    setInstr(kCvtI2F, "cvti2f", tgt::execCvtI2F);
    setInstr(kCvtF2I, "cvtf2i", tgt::execCvtF2I);
    setInstr(kCvtF2F, "cvtf2f", tgt::execCvtF2F);
    setInstr(kCvtI2B, "cvti2b", tgt::execCvtI2B);
    setInstr(kSpAdj, "spadj", hSpAdj);
}

void
CommonTarget::insertPrologueEpilogue(
    MachineFunction &mf,
    const std::vector<std::pair<unsigned, int64_t>> &saved)
{
    tgt::insertFrameCode(mf, saved, op(kSpAdj), op(kStoreStack),
                         op(kLoadStack));
    finishPrologueEpilogue(mf);
}

const InstrDesc &
CommonTarget::desc(uint16_t opcode) const
{
    uint16_t rel = relOp(opcode);
    if ((opcode & 0xff00) != base_ || rel >= kNumRelOps ||
        !table_[rel].exec)
        panic("%s: unknown opcode %u", name(), opcode);
    return table_[rel];
}

ExecFn
CommonTarget::genericHandlerFor(const MachineInstr &mi) const
{
    if (ExecFn fn = tgt::genericHandler(mi.opcode))
        return fn;
    return desc(mi.opcode).exec;
}

ExecFn
CommonTarget::handlerFor(const MachineInstr &mi) const
{
    ExecFn generic = genericHandlerFor(mi);
    ExecFn fn = specializedHandler(mi, generic);
    return fn ? fn : generic;
}

std::vector<uint8_t>
CommonTarget::encode(const MachineInstr &mi) const
{
    size_t size;
    if (fixedBytes_) {
        // The RISC property: every instruction, including the
        // generic pseudos, packs into exactly one word. Wide
        // constants already cost extra instructions, never a wider
        // word.
        size = fixedBytes_;
    } else if (mi.opcode >= kOpPhi) {
        size = variableSize(mi);
    } else {
        const InstrDesc &d = desc(mi.opcode);
        size = d.encBytes ? d.encBytes : variableSize(mi);
    }
    return tgt::packEncoding(mi, size);
}

size_t
CommonTarget::variableSize(const MachineInstr &mi) const
{
    panic("%s: no variable-size rule for opcode %u", name(),
          mi.opcode);
}

void
CommonTarget::writeArgs(SimState &state, const FunctionType *ft,
                        const std::vector<RtValue> &args) const
{
    for (size_t i = 0; i < args.size(); ++i) {
        bool fp = i < ft->numParams() &&
                  ft->paramType(i)->isFloatingPoint();
        if (i < abi_.numRegArgs) {
            if (fp)
                state.freg[abi_.fpArgBase - 32 + i] = args[i].f;
            else
                state.ireg[abi_.intArgBase + i] = args[i].i;
        } else {
            uint64_t addr = state.sp + 8 * i;
            if (fp)
                state.mem->storeFP(addr, false, args[i].f);
            else
                state.mem->store(addr, 8, args[i].i);
        }
    }
}

std::vector<RtValue>
CommonTarget::readArgs(SimState &state, const FunctionType *ft) const
{
    std::vector<RtValue> args(ft->numParams());
    for (size_t i = 0; i < ft->numParams(); ++i) {
        bool fp = ft->paramType(i)->isFloatingPoint();
        if (i < abi_.numRegArgs) {
            args[i] =
                fp ? RtValue::ofFP(state.freg[abi_.fpArgBase - 32 + i])
                   : RtValue::ofInt(state.ireg[abi_.intArgBase + i]);
        } else {
            uint64_t addr = state.sp + 8 * i;
            if (fp) {
                double v = 0;
                state.mem->loadFP(addr, false, v);
                args[i] = RtValue::ofFP(v);
            } else {
                uint64_t v = 0;
                state.mem->load(addr, 8, v);
                args[i] = RtValue::ofInt(v);
            }
        }
    }
    return args;
}

} // namespace cmn
} // namespace llva
