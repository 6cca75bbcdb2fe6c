#include "ir/module.h"

#include <sstream>

#include "ir/instructions.h"

namespace llva {

Module::Module(const std::string &name)
    : name_(name)
{}

Module::~Module()
{
    // Functions/globals may reference each other (calls, global
    // references); sever all def-use edges before anything dies.
    for (auto &f : functions_)
        for (auto &bb : *f)
            for (auto &inst : *bb)
                inst->dropAllOperands();
}

Function *
Module::createFunction(FunctionType *type, const std::string &name,
                       Linkage linkage)
{
    LLVA_ASSERT(!getFunction(name), "duplicate function %%%s",
                name.c_str());
    auto f = std::make_unique<Function>(type, name, linkage, this);
    functions_.push_back(std::move(f));
    return functions_.back().get();
}

Function *
Module::getFunction(const std::string &name) const
{
    for (const auto &f : functions_)
        if (f->name() == name)
            return f.get();
    return nullptr;
}

Function *
Module::getOrInsertFunction(const std::string &name, FunctionType *type)
{
    if (Function *f = getFunction(name)) {
        LLVA_ASSERT(f->functionType() == type,
                    "function %%%s redeclared with different type",
                    name.c_str());
        return f;
    }
    return createFunction(type, name);
}

void
Module::eraseFunction(Function *f)
{
    for (auto it = functions_.begin(); it != functions_.end(); ++it) {
        if (it->get() == f) {
            // Destroy the body so block/argument uses disappear.
            for (auto &bb : *f)
                bb->clear();
            LLVA_ASSERT(!f->hasUses(),
                        "erasing function %%%s that still has users",
                        f->name().c_str());
            functions_.erase(it);
            return;
        }
    }
    panic("eraseFunction: function not in module");
}

GlobalVariable *
Module::createGlobal(Type *contained, const std::string &name,
                     Constant *init, bool is_constant, Linkage linkage)
{
    LLVA_ASSERT(!getGlobal(name), "duplicate global %%%s", name.c_str());
    auto gv = std::make_unique<GlobalVariable>(
        types_.pointerTo(contained), name, init, is_constant, linkage);
    globals_.push_back(std::move(gv));
    return globals_.back().get();
}

GlobalVariable *
Module::getGlobal(const std::string &name) const
{
    for (const auto &g : globals_)
        if (g->name() == name)
            return g.get();
    return nullptr;
}

ConstantInt *
Module::constantInt(Type *type, uint64_t bits)
{
    LLVA_ASSERT(type->isInteger() || type->isBool(),
                "constantInt of non-integer type %s",
                type->str().c_str());
    // Canonicalize to the type's width (sign- or zero-extended).
    unsigned width = type->integerBitWidth();
    if (width < 64) {
        uint64_t mask = (1ull << width) - 1;
        bits &= mask;
        if (type->isSignedInteger() && (bits >> (width - 1)) & 1)
            bits |= ~mask;
    }
    auto key = std::make_pair(type, bits);
    auto it = intConsts_.find(key);
    if (it != intConsts_.end())
        return it->second;
    auto *c = new ConstantInt(type, bits);
    ownedConstants_.emplace_back(c);
    intConsts_[key] = c;
    return c;
}

ConstantInt *
Module::constantBool(bool b)
{
    return constantInt(types_.boolTy(), b ? 1 : 0);
}

ConstantFP *
Module::constantFP(Type *type, double value)
{
    LLVA_ASSERT(type->isFloatingPoint(), "constantFP of non-FP type");
    if (type->kind() == TypeKind::Float)
        value = static_cast<float>(value);
    auto key = std::make_pair(type, value);
    auto it = fpConsts_.find(key);
    if (it != fpConsts_.end())
        return it->second;
    auto *c = new ConstantFP(type, value);
    ownedConstants_.emplace_back(c);
    fpConsts_[key] = c;
    return c;
}

ConstantNull *
Module::constantNull(PointerType *type)
{
    auto it = nullConsts_.find(type);
    if (it != nullConsts_.end())
        return it->second;
    auto *c = new ConstantNull(type);
    ownedConstants_.emplace_back(c);
    nullConsts_[type] = c;
    return c;
}

ConstantUndef *
Module::constantUndef(Type *type)
{
    auto it = undefConsts_.find(type);
    if (it != undefConsts_.end())
        return it->second;
    auto *c = new ConstantUndef(type);
    ownedConstants_.emplace_back(c);
    undefConsts_[type] = c;
    return c;
}

ConstantAggregate *
Module::constantAggregate(Type *type, std::vector<Constant *> elems)
{
    auto agg =
        std::make_unique<ConstantAggregate>(type, std::move(elems));
    ownedAggregates_.push_back(std::move(agg));
    return ownedAggregates_.back().get();
}

ConstantString *
Module::constantString(const std::string &data, bool nul)
{
    std::string bytes = data;
    if (nul)
        bytes.push_back('\0');
    auto *type = types_.arrayOf(types_.ubyteTy(), bytes.size());
    auto *c = new ConstantString(type, bytes);
    ownedConstants_.emplace_back(c);
    return c;
}

size_t
Module::instructionCount() const
{
    size_t n = 0;
    for (const auto &f : functions_)
        n += f->instructionCount();
    return n;
}

std::string
Module::str() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

} // namespace llva
