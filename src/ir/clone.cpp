#include "ir/clone.h"

#include <map>

#include "ir/instructions.h"
#include "ir/module.h"
#include "support/statistic.h"

namespace llva {

namespace {

Statistic NumSnapshots("ir.snapshots_captured",
                       "Function bodies cloned as restore points");

} // namespace

FunctionSnapshot::~FunctionSnapshot()
{
    for (auto &bb : blocks_)
        for (auto &inst : *bb)
            inst->dropAllOperands();
}

FunctionSnapshot
FunctionSnapshot::capture(const Function &f)
{
    ++NumSnapshots;
    FunctionSnapshot snap;
    snap.captured_ = true;
    if (f.isDeclaration())
        return snap;

    TypeContext &tc = f.functionType()->context();

    // Pass 1: one detached block per source block, so branch and phi
    // operands can be remapped even across forward edges.
    std::map<const Value *, Value *> map;
    for (const auto &bb : f) {
        auto clone = std::make_unique<BasicBlock>(tc, bb->name());
        map[bb.get()] = clone.get();
        snap.blocks_.push_back(std::move(clone));
    }

    // Pass 2: clone instructions block by block.
    auto dst = snap.blocks_.begin();
    for (const auto &bb : f) {
        BasicBlock *clone_bb = dst->get();
        ++dst;
        for (const auto &inst : *bb) {
            Instruction *c = inst->clone();
            c->setName(inst->name());
            c->setExceptionsEnabled(inst->exceptionsEnabled());
            map[inst.get()] = c;
            clone_bb->append(std::unique_ptr<Instruction>(c));
            ++snap.instCount_;
        }
    }

    // Pass 3: remap operands onto the cloned defs/blocks. Anything
    // not in the map (arguments, constants, globals, functions) is
    // stable across body replacement and stays as-is.
    for (const auto &bb : snap.blocks_) {
        for (const auto &inst : *bb) {
            for (size_t i = 0; i < inst->numOperands(); ++i) {
                auto it = map.find(inst->operand(i));
                if (it != map.end())
                    inst->setOperand(i, it->second);
            }
        }
    }
    return snap;
}

void
FunctionSnapshot::restoreInto(Function &f)
{
    LLVA_ASSERT(captured_, "restoring an empty FunctionSnapshot");

    // Sever every def-use edge of the current body first: a faulting
    // pass may have left instructions referencing values in blocks
    // that die before they do.
    for (auto &bb : f)
        for (auto &inst : *bb)
            inst->dropAllOperands();
    f.takeBlocks(); // destroys the old body

    for (auto &bb : blocks_)
        f.adoptBlock(std::move(bb));
    blocks_.clear();
    instCount_ = 0;
    captured_ = false;
}

} // namespace llva
