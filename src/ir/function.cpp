#include "ir/function.h"

#include <map>

#include "ir/instructions.h"
#include "ir/module.h"

namespace llva {

Function::Function(FunctionType *fn_type, const std::string &name,
                   Linkage linkage, Module *parent)
    : Constant(fn_type->context().pointerTo(fn_type),
               ValueKind::Function),
      fnType_(fn_type), parent_(parent), linkage_(linkage)
{
    setName(name);
    for (size_t i = 0; i < fn_type->numParams(); ++i)
        args_.push_back(std::make_unique<Argument>(
            fn_type->paramType(i), "arg" + std::to_string(i), this,
            static_cast<unsigned>(i)));
}

Function::~Function()
{
    // Instructions may reference blocks/arguments across the whole
    // function; sever every def-use edge before anything dies.
    for (auto &bb : blocks_)
        for (auto &inst : *bb)
            inst->dropAllOperands();
}

BasicBlock *
Function::createBlock(const std::string &name)
{
    auto bb = std::make_unique<BasicBlock>(fnType_->context(), name);
    bb->setParent(this);
    blocks_.push_back(std::move(bb));
    return blocks_.back().get();
}

BasicBlock *
Function::createBlockAfter(BasicBlock *after, const std::string &name)
{
    auto bb = std::make_unique<BasicBlock>(fnType_->context(), name);
    bb->setParent(this);
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->get() == after) {
            auto pos = std::next(it);
            return blocks_.insert(pos, std::move(bb))->get();
        }
    }
    panic("createBlockAfter: block not in function");
}

void
Function::eraseBlock(BasicBlock *bb)
{
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->get() == bb) {
            bb->clear();
            LLVA_ASSERT(!bb->hasUses(),
                        "erasing block '%s' that still has users",
                        bb->name().c_str());
            blocks_.erase(it);
            return;
        }
    }
    panic("eraseBlock: block not in function");
}

void
Function::moveBlockBefore(BasicBlock *bb, BasicBlock *before)
{
    std::unique_ptr<BasicBlock> owned;
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->get() == bb) {
            owned = std::move(*it);
            blocks_.erase(it);
            break;
        }
    }
    LLVA_ASSERT(owned, "moveBlockBefore: block not in function");
    if (!before) {
        blocks_.push_back(std::move(owned));
        return;
    }
    for (auto it = blocks_.begin(); it != blocks_.end(); ++it) {
        if (it->get() == before) {
            blocks_.insert(it, std::move(owned));
            return;
        }
    }
    panic("moveBlockBefore: 'before' block not in function");
}

BasicBlock *
Function::findBlock(const std::string &name) const
{
    for (const auto &bb : blocks_)
        if (bb->name() == name)
            return bb.get();
    return nullptr;
}

Function::BlockList
Function::takeBlocks()
{
    BlockList out;
    out.swap(blocks_); // guarantees blocks_ is left empty
    return out;
}

BasicBlock *
Function::adoptBlock(std::unique_ptr<BasicBlock> bb)
{
    bb->setParent(this);
    blocks_.push_back(std::move(bb));
    return blocks_.back().get();
}

size_t
Function::instructionCount() const
{
    size_t n = 0;
    for (const auto &bb : blocks_)
        n += bb->size();
    return n;
}

} // namespace llva
