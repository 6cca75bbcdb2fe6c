/**
 * @file
 * Module: a translation unit of virtual object code.
 *
 * Carries the representation-portability flags of paper Section 3.2:
 * the pointer size and endianness the producing compiler assumed,
 * recorded so a translator for a different I-ISA configuration can
 * detect (and, for type-safe code, ignore) the difference.
 */

#ifndef LLVA_IR_MODULE_H
#define LLVA_IR_MODULE_H

#include <list>
#include <memory>
#include <string>
#include <vector>

#include "ir/constant.h"
#include "ir/function.h"
#include "ir/type.h"

namespace llva {

/** The I-ISA configuration flags encoded in object files (§3.2). */
struct TargetFlags
{
    unsigned pointerSize = 8; ///< 4 or 8 bytes.
    bool bigEndian = false;
};

class Module
{
  public:
    explicit Module(const std::string &name);
    ~Module();

    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    const std::string &name() const { return name_; }
    TypeContext &types() { return types_; }
    const TypeContext &types() const { return types_; }
    const TargetFlags &targetFlags() const { return flags_; }
    void setTargetFlags(const TargetFlags &f) { flags_ = f; }
    unsigned pointerSize() const { return flags_.pointerSize; }

    // --- Functions -----------------------------------------------------

    /** Create a new function (definition starts empty/declaration). */
    Function *createFunction(FunctionType *type, const std::string &name,
                             Linkage linkage = Linkage::External);

    /** Find a function by name (nullptr if absent). */
    Function *getFunction(const std::string &name) const;

    /** Find-or-create a declaration with the given type. */
    Function *getOrInsertFunction(const std::string &name,
                                  FunctionType *type);

    /** Remove and destroy a function (must have no users). */
    void eraseFunction(Function *f);

    const std::list<std::unique_ptr<Function>> &functions() const
    {
        return functions_;
    }

    // --- Globals -------------------------------------------------------

    GlobalVariable *createGlobal(Type *contained, const std::string &name,
                                 Constant *init, bool is_constant = false,
                                 Linkage linkage = Linkage::External);

    GlobalVariable *getGlobal(const std::string &name) const;

    const std::list<std::unique_ptr<GlobalVariable>> &globals() const
    {
        return globals_;
    }

    // --- Constants (interned) ------------------------------------------

    ConstantInt *constantInt(Type *type, uint64_t bits);
    ConstantInt *constantBool(bool b);
    ConstantFP *constantFP(Type *type, double value);
    ConstantNull *constantNull(PointerType *type);
    ConstantUndef *constantUndef(Type *type);
    ConstantAggregate *constantAggregate(Type *type,
                                         std::vector<Constant *> elems);
    /** [N x ubyte] string constant; appends a NUL when \p nul. */
    ConstantString *constantString(const std::string &data,
                                   bool nul = true);

    // --- Convenience ---------------------------------------------------

    /** Sum of instructionCount over all defined functions. */
    size_t instructionCount() const;

    /** Print the whole module in LLVA assembly syntax. */
    void print(std::ostream &os) const;
    std::string str() const;

  private:
    std::string name_;
    TypeContext types_;
    TargetFlags flags_;
    std::list<std::unique_ptr<Function>> functions_;
    std::list<std::unique_ptr<GlobalVariable>> globals_;

    // Interning tables / ownership for constants.
    std::map<std::pair<Type *, uint64_t>, ConstantInt *> intConsts_;
    std::map<std::pair<Type *, double>, ConstantFP *> fpConsts_;
    std::map<PointerType *, ConstantNull *> nullConsts_;
    std::map<Type *, ConstantUndef *> undefConsts_;
    std::vector<std::unique_ptr<Constant>> ownedConstants_;
    std::vector<std::unique_ptr<ConstantAggregate>> ownedAggregates_;
};

} // namespace llva

#endif // LLVA_IR_MODULE_H
