/**
 * @file
 * Fault containment and tiered degradation: the pass sandbox
 * (snapshot / guard / budget / restore), the -O2 -> -O1 -> -O0 ->
 * interpreter ladder (each rung one transaction over one snapshot), the envelope-cached achieved tier, the
 * verify-each and -opt-bisect-limit localization aids, and the
 * AnalysisManager preservation audit. Faults are injected through
 * the TranslationHooks test seams and deliberately broken test-only
 * passes; in every case the program must finish with output
 * byte-identical to the fault-free run.
 */

#include <gtest/gtest.h>

#include "bytecode/bytecode.h"
#include "ir/instructions.h"
#include "llee/llee.h"
#include "parser/parser.h"
#include "support/statistic.h"
#include "transforms/pass.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

const char *kProgram = R"(
declare void %putint(long %v)
internal int %helper(int %x) {
entry:
    %a = mul int %x, 3
    %b = add int %a, 4
    ret int %b
}
int %main() {
entry:
    %a = call int %helper(int 5)
    %b = call int %helper(int 7)
    %s = add int %a, %b
    %l = cast int %s to long
    call void %putint(long %l)
    ret int %s
}
)";

std::unique_ptr<Module>
parseProgram()
{
    auto m = parseAssembly(kProgram).orDie();
    verifyOrDie(*m);
    return m;
}

struct Baseline
{
    uint64_t value;
    std::string output;
};

Baseline
interpret(Module &m)
{
    ExecutionContext ctx(m);
    Interpreter interp(ctx);
    auto r = interp.run(m.getFunction("main"));
    EXPECT_TRUE(r.ok());
    return {r.value.i, ctx.output()};
}

/** Throws (a pass bug) when visiting the targeted function. */
class FaultPass : public FunctionPass
{
  public:
    explicit FaultPass(std::string only = "")
        : only_(std::move(only))
    {}

    PassResult
    run(Function &f, AnalysisManager &) override
    {
        if (only_.empty() || f.name() == only_)
            fatal("injected fault visiting %s", f.name().c_str());
        return PassResult::unchanged();
    }

    const char *name() const override { return "inject-fault"; }

  private:
    std::string only_;
};

/** Mutates the function, then throws: tests snapshot restore. */
class MutateThenThrowPass : public FunctionPass
{
  public:
    PassResult
    run(Function &f, AnalysisManager &) override
    {
        BasicBlock *bb = f.entryBlock();
        Module &m = *f.parent();
        ConstantInt *one = m.constantInt(m.types().intTy(), 1);
        bb->insertBefore(bb->terminator(),
                         std::unique_ptr<Instruction>(
                             new BinaryOperator(Opcode::Add, one,
                                                one)));
        fatal("fault after mutating %s", f.name().c_str());
    }

    const char *name() const override { return "mutate-throw"; }
};

/** Appends \p count dead instructions (exercises the IR budget). */
class BloatPass : public FunctionPass
{
  public:
    explicit BloatPass(size_t count)
        : count_(count)
    {}

    PassResult
    run(Function &f, AnalysisManager &) override
    {
        BasicBlock *bb = f.entryBlock();
        Module &m = *f.parent();
        ConstantInt *one = m.constantInt(m.types().intTy(), 1);
        for (size_t i = 0; i < count_; ++i)
            bb->insertBefore(bb->terminator(),
                             std::unique_ptr<Instruction>(
                                 new BinaryOperator(Opcode::Add, one,
                                                    one)));
        return PassResult::modified(PreservedAnalyses::all());
    }

    const char *name() const override { return "bloat"; }

  private:
    size_t count_;
};

/** Deletes the entry terminator: leaves verifiably broken IR. */
class CorruptIRPass : public FunctionPass
{
  public:
    PassResult
    run(Function &f, AnalysisManager &) override
    {
        BasicBlock *bb = f.entryBlock();
        bb->erase(bb->terminator());
        return PassResult::modified(PreservedAnalyses::none());
    }

    const char *name() const override { return "corrupt-ir"; }
};

/** Adds 1 to main's return value: a deterministic miscompile. */
class BreakSemanticsPass : public FunctionPass
{
  public:
    PassResult
    run(Function &f, AnalysisManager &) override
    {
        Module &m = *f.parent();
        bool changed = false;
        for (auto &bb : f) {
            auto *ret = dyn_cast<ReturnInst>(bb->terminator());
            if (!ret || !ret->returnValue())
                continue;
            Value *v = ret->returnValue();
            if (v->type() != m.types().intTy())
                continue;
            Instruction *bump = bb->insertBefore(
                ret, std::unique_ptr<Instruction>(new BinaryOperator(
                         Opcode::Add, v,
                         m.constantInt(m.types().intTy(), 1))));
            ret->setOperand(0, bump);
            changed = true;
        }
        return changed
                   ? PassResult::modified(PreservedAnalyses::all())
                   : PassResult::unchanged();
    }

    const char *name() const override { return "break-semantics"; }
};

/** Rewires the CFG but lies that it preserved everything. */
class LyingPass : public FunctionPass
{
  public:
    PassResult
    run(Function &f, AnalysisManager &) override
    {
        BasicBlock *entry = f.entryBlock();
        auto *br = dyn_cast<BranchInst>(entry->terminator());
        if (!br || !br->isConditional())
            return PassResult::unchanged();
        BasicBlock *taken = br->target(0);
        entry->erase(br);
        entry->append(std::unique_ptr<Instruction>(
            new BranchInst(f.parent()->types(), taken)));
        // The CFG changed (one block went unreachable), so any
        // cached DominatorTree is stale — yet we claim otherwise.
        return PassResult::modified(PreservedAnalyses::all());
    }

    const char *name() const override { return "lying-pass"; }
};

} // namespace

// --- Pass sandbox ------------------------------------------------------

TEST(Sandbox, ContainsThrowingPassAndRestoresIR)
{
    auto m = parseProgram();
    Baseline ref = interpret(*m);
    std::string before = m->str();

    uint64_t contained = stats::value("passes.contained_failures");

    PassManager pm;
    pm.setSandbox(true);
    pm.add(createMem2RegPass());
    pm.add(std::make_unique<MutateThenThrowPass>());
    pm.add(createInstCombinePass());
    pm.run(*m);

    ASSERT_EQ(pm.containedFailures().size(), 2u); // helper + main
    EXPECT_EQ(pm.containedFailures()[0].pass, "mutate-throw");
    EXPECT_EQ(pm.containedFailures()[0].unit, "helper");
    EXPECT_NE(pm.containedFailures()[0].reason.find("pass fault"),
              std::string::npos);
    EXPECT_EQ(stats::value("passes.contained_failures"),
              contained + 2);

    // The rest of the pipeline still ran and the program still works.
    verifyOrDie(*m);
    Baseline after = interpret(*m);
    EXPECT_EQ(after.value, ref.value);
    EXPECT_EQ(after.output, ref.output);
}

TEST(Sandbox, RestoreIsByteExactWhenEveryPassFails)
{
    auto m = parseProgram();
    std::string before = m->str();

    PassManager pm;
    pm.setSandbox(true);
    pm.add(std::make_unique<MutateThenThrowPass>());
    pm.run(*m);

    ASSERT_EQ(pm.containedFailures().size(), 2u);
    // Only contained-and-restored passes ran: the printed module
    // must be identical down to value names.
    EXPECT_EQ(m->str(), before);
}

TEST(Sandbox, GrowthBudgetRollsBackBloat)
{
    auto m = parseProgram();
    std::string before = m->str();
    uint64_t exceeded = stats::value("passes.budget_exceeded");

    PassManager pm;
    pm.setSandbox(true);
    PassBudget budget;
    budget.maxGrowth = 1.5;
    budget.growthFloor = 4;
    pm.setBudget(budget);
    pm.add(std::make_unique<BloatPass>(100));
    pm.run(*m);

    ASSERT_EQ(pm.containedFailures().size(), 2u);
    EXPECT_NE(pm.containedFailures()[0].reason.find("grew"),
              std::string::npos);
    EXPECT_EQ(stats::value("passes.budget_exceeded"), exceeded + 2);
    EXPECT_EQ(m->str(), before);
}

TEST(Sandbox, WallClockBudgetRollsBackSlowPass)
{
    auto m = parseProgram();
    std::string before = m->str();

    PassManager pm;
    pm.setSandbox(true);
    PassBudget budget;
    budget.maxSeconds = 0.0; // any measurable time exceeds this
    pm.setBudget(budget);
    pm.add(std::make_unique<BloatPass>(2));
    pm.run(*m);

    ASSERT_EQ(pm.containedFailures().size(), 2u);
    EXPECT_NE(pm.containedFailures()[0].reason.find("wall clock"),
              std::string::npos);
    EXPECT_EQ(m->str(), before);
}

TEST(Sandbox, VerifyEachContainsIRBreakingPass)
{
    auto m = parseProgram();
    std::string before = m->str();

    PassManager pm;
    pm.setSandbox(true);
    pm.setVerifyEach(true);
    pm.add(std::make_unique<CorruptIRPass>());
    pm.run(*m);

    ASSERT_EQ(pm.containedFailures().size(), 2u);
    EXPECT_NE(
        pm.containedFailures()[0].reason.find("verification failed"),
        std::string::npos);
    EXPECT_EQ(m->str(), before);
    verifyOrDie(*m);
}

// --- Localization: -verify-each and -opt-bisect-limit ------------------

TEST(VerifyEach, NamesFirstBreakingPassAndFunction)
{
    auto m = parseProgram();

    PassManager pm; // no sandbox: batch tools want this loud
    pm.setVerifyEach(true);
    pm.add(createMem2RegPass());
    pm.add(std::make_unique<CorruptIRPass>());
    try {
        pm.run(*m);
        FAIL() << "verify-each did not fire";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("corrupt-ir"), std::string::npos) << msg;
        EXPECT_NE(msg.find("helper"), std::string::npos) << msg;
    }
}

TEST(OptBisect, BinarySearchPinpointsInjectedPass)
{
    // Reference behaviour with no limit.
    Baseline ref = interpret(*parseProgram());

    // A pipeline with a deterministic miscompile buried in it.
    auto buildPipeline = [](PassManager &pm) {
        pm.add(createMem2RegPass());
        pm.add(createInstCombinePass());
        pm.add(std::make_unique<BreakSemanticsPass>());
        pm.add(createGVNPass());
        pm.add(createADCEPass());
    };

    // Each pass visits helper then main: 10 applications total.
    // runsCorrectly(N) = pipeline truncated at N keeps semantics.
    auto runsCorrectly = [&](int64_t limit) {
        OptBisect::setLimit(limit);
        auto m = parseProgram();
        PassManager pm;
        buildPipeline(pm);
        pm.run(*m);
        Baseline b = interpret(*m);
        return b.value == ref.value && b.output == ref.output;
    };

    const int64_t total = 10;
    ASSERT_TRUE(runsCorrectly(0));
    ASSERT_FALSE(runsCorrectly(total));

    // Classic bisection: find the first application that breaks.
    int64_t lo = 0, hi = total; // lo good, hi bad
    while (hi - lo > 1) {
        int64_t mid = lo + (hi - lo) / 2;
        if (runsCorrectly(mid))
            lo = mid;
        else
            hi = mid;
    }

    // Run once more at the culprit index so the decision log covers
    // it, then name it.
    // The pipeline visits helper before main, so the first breaking
    // application is the injected pass on helper.
    runsCorrectly(hi);
    EXPECT_EQ(OptBisect::description(hi),
              "break-semantics on helper");
    OptBisect::setLimit(-1); // never leak into other tests
}

TEST(OptBisect, DisabledByDefaultAndDeterministic)
{
    OptBisect::setLimit(-1);
    EXPECT_FALSE(OptBisect::enabled());

    // Two identical runs draw identical indices.
    OptBisect::setLimit(3);
    {
        auto m = parseProgram();
        PassManager pm;
        addFunctionPasses(pm, 1);
        pm.run(*m);
    }
    std::string first = OptBisect::description(3);
    int64_t count = OptBisect::count();
    OptBisect::setLimit(3);
    {
        auto m = parseProgram();
        PassManager pm;
        addFunctionPasses(pm, 1);
        pm.run(*m);
    }
    EXPECT_EQ(OptBisect::description(3), first);
    EXPECT_EQ(OptBisect::count(), count);
    EXPECT_NE(first, "");
    OptBisect::setLimit(-1);
}

// --- AnalysisManager preservation audit --------------------------------

TEST(PreservationAudit, CatchesPassLyingAboutDominators)
{
    auto m = parseAssembly(R"(
int %f(bool %c) {
entry:
    br bool %c, label %a, label %b
a:
    ret int 1
b:
    ret int 2
}
)").orDie();
    verifyOrDie(*m);
    Function *f = m->getFunction("f");

    AnalysisManager am;
    am.setAuditPreservation(true);
    am.dominators(*f); // cache the tree the pass will invalidate

    PassManager pm; // no sandbox: a lying pass is a pass bug
    pm.add(std::make_unique<LyingPass>());
    try {
        pm.run(*m, am);
        FAIL() << "preservation audit did not fire";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("lied"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PreservationAudit, HonestPassesAreQuiet)
{
    auto m = parseProgram();
    AnalysisManager am;
    am.setAuditPreservation(true);
    for (const auto &f : m->functions())
        if (!f->isDeclaration())
            am.dominators(*f);
    PassManager pm;
    addFunctionPasses(pm, 2);
    EXPECT_NO_THROW(pm.run(*m, am));
    verifyOrDie(*m);
}

// --- The tier ladder ---------------------------------------------------

TEST(TierLadder, FaultAtO2RetranslatesAtO1)
{
    auto m = parseProgram();
    CodeGenOptions opts;
    opts.optLevel = 2;
    CodeManager cm(*getTarget("sparc"), opts);
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned level) {
        if (level == 2)
            pm.add(std::make_unique<FaultPass>("helper"));
    };
    cm.setHooks(hooks);

    const Function *helper = m->getFunction("helper");
    const Function *main_fn = m->getFunction("main");
    EXPECT_NE(cm.get(helper), nullptr);
    EXPECT_NE(cm.get(main_fn), nullptr);
    EXPECT_EQ(cm.tierOf(helper), 1); // degraded one rung
    EXPECT_EQ(cm.tierOf(main_fn), 2);
    EXPECT_EQ(cm.tierDowngrades(), 1u);
    EXPECT_FALSE(cm.isInterpreted(helper));
}

TEST(TierLadder, CodegenFaultDegradesToo)
{
    auto m = parseProgram();
    CodeGenOptions opts;
    opts.optLevel = 1;
    CodeManager cm(*getTarget("x86"), opts);
    TranslationHooks hooks;
    hooks.beforeCodegen = [](const Function &f, unsigned level) {
        if (f.name() == "main" && level == 1)
            throw FatalError("injected codegen fault");
    };
    cm.setHooks(hooks);

    EXPECT_NE(cm.get(m->getFunction("main")), nullptr);
    EXPECT_EQ(cm.tierOf(m->getFunction("main")), 0);
    EXPECT_EQ(cm.tierDowngrades(), 1u);
}

TEST(TierLadder, ExhaustedLadderPinsToInterpreter)
{
    auto m = parseProgram();
    uint64_t fallbacks = stats::value("llee.interp_fallbacks");

    CodeGenOptions opts;
    opts.optLevel = 2;
    CodeManager cm(*getTarget("sparc"), opts);
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned) {
        pm.add(std::make_unique<FaultPass>("helper"));
    };
    cm.setHooks(hooks);

    const Function *helper = m->getFunction("helper");
    EXPECT_EQ(cm.get(helper), nullptr);
    EXPECT_TRUE(cm.isInterpreted(helper));
    EXPECT_EQ(cm.tierDowngrades(), 3u); // O2, O1, O0 all failed
    EXPECT_EQ(stats::value("llee.interp_fallbacks"), fallbacks + 1);
    // Pinned means pinned: a second get() does not retry the ladder.
    EXPECT_EQ(cm.get(helper), nullptr);
    EXPECT_EQ(cm.tierDowngrades(), 3u);
}

TEST(TierLadder, LadderLeavesBytecodeBodyUntouched)
{
    auto m = parseProgram();
    std::string before = m->str();
    CodeGenOptions opts;
    opts.optLevel = 2;
    CodeManager cm(*getTarget("sparc"), opts);
    cm.translateAll(*m);
    // Optimization happened on a scratch body; the persistent
    // representation is untouched.
    EXPECT_EQ(m->str(), before);
}

// --- One transaction per ladder rung -----------------------------------

namespace {

/** A fault injected into a rung's pipeline through the ladder hooks. */
struct RungFault
{
    const char *name;
    void (*install)(PassManager &pm);
    bool budget; ///< contained as a budget overrun
};

const RungFault kRungFaults[] = {
    {"mutate-then-throw",
     [](PassManager &pm) {
         pm.add(std::make_unique<MutateThenThrowPass>());
     },
     false},
    {"growth-budget",
     [](PassManager &pm) {
         PassBudget budget;
         budget.maxGrowth = 1.5;
         budget.growthFloor = 4;
         pm.setBudget(budget);
         pm.add(std::make_unique<BloatPass>(100));
     },
     true},
    {"verify-each",
     [](PassManager &pm) {
         pm.setVerifyEach(true);
         pm.add(std::make_unique<CorruptIRPass>());
     },
     false},
};

/** Hooks that inject \p fault into the rung at \p level, followed by
 *  two passes the rung must never reach once the fault is contained. */
TranslationHooks
faultAt(const RungFault &fault, unsigned level)
{
    TranslationHooks hooks;
    hooks.extendPipeline = [&fault, level](PassManager &pm,
                                           unsigned rung) {
        if (rung != level)
            return;
        fault.install(pm);
        pm.add(createInstCombinePass());
        pm.add(createGVNPass());
    };
    return hooks;
}

/** pass.applications spent translating \p name fault-free at -O<level>. */
uint64_t
cleanApplications(unsigned level, const char *name)
{
    auto m = parseProgram();
    CodeGenOptions opts;
    opts.optLevel = level;
    CodeManager cm(*getTarget("x86"), opts);
    uint64_t before = stats::value("pass.applications");
    EXPECT_NE(cm.get(m->getFunction(name)), nullptr);
    return stats::value("pass.applications") - before;
}

/** The counters one rung transaction moves, read at construction. */
struct RungCounters
{
    uint64_t applications = stats::value("pass.applications");
    uint64_t contained = stats::value("passes.contained_failures");
    uint64_t budget = stats::value("passes.budget_exceeded");
    uint64_t snapshots = stats::value("ir.snapshots_captured");
};

void
expectMatchesInterpreter(Module &m, CodeManager &cm, const Baseline &ref)
{
    ExecutionContext ctx(m);
    MachineSimulator sim(ctx, cm);
    auto r = sim.run(m.getFunction("main"));
    ASSERT_TRUE(r.ok()) << trapKindName(r.trap);
    EXPECT_EQ(r.value.i, ref.value);
    EXPECT_EQ(ctx.output(), ref.output);
}

} // namespace

TEST(LadderRung, O2TranslationTakesExactlyOneSnapshot)
{
    auto m = parseProgram();
    CodeGenOptions opts;
    opts.optLevel = 2;
    CodeManager cm(*getTarget("x86"), opts);
    for (const char *name : {"helper", "main"}) {
        uint64_t before = stats::value("ir.snapshots_captured");
        ASSERT_NE(cm.get(m->getFunction(name)), nullptr) << name;
        EXPECT_EQ(stats::value("ir.snapshots_captured") - before, 1u)
            << name;
    }
}

TEST(LadderRung, FaultAtO2AbandonsTheRungAndRestoresTheBody)
{
    const uint64_t o2 = cleanApplications(2, "helper");
    const uint64_t o1 = cleanApplications(1, "helper");
    for (const RungFault &fault : kRungFaults) {
        SCOPED_TRACE(fault.name);
        auto m = parseProgram();
        Baseline ref = interpret(*m);
        const std::string pristine = m->str();

        CodeGenOptions opts;
        opts.optLevel = 2;
        CodeManager cm(*getTarget("x86"), opts);
        cm.setHooks(faultAt(fault, 2));
        const Function *helper = m->getFunction("helper");

        RungCounters before;
        ASSERT_NE(cm.get(helper), nullptr);
        RungCounters after;

        EXPECT_EQ(cm.tierOf(helper), 1);
        EXPECT_EQ(cm.tierDowngrades(), 1u);
        EXPECT_EQ(m->str(), pristine);
        EXPECT_EQ(after.contained - before.contained, 1u);
        EXPECT_EQ(after.budget - before.budget, fault.budget ? 1u : 0u);
        // The -O2 rung stopped at the fault (its two trailing passes
        // never ran); the -O1 rung ran in full.
        EXPECT_EQ(after.applications - before.applications, o2 + 1 + o1);
        // One pristine snapshot per rung, none per pass.
        EXPECT_EQ(after.snapshots - before.snapshots, 2u);

        expectMatchesInterpreter(*m, cm, ref);
    }
}

TEST(LadderRung, FaultingPromotionKeepsO2BodyAndRestoresTheIR)
{
    const uint64_t o2 = cleanApplications(2, "main");
    for (const RungFault &fault : kRungFaults) {
        SCOPED_TRACE(fault.name);
        auto m = parseProgram();
        Baseline ref = interpret(*m);
        const std::string pristine = m->str();
        EdgeProfile profile;
        {
            ExecutionContext ctx(*m);
            Interpreter interp(ctx);
            interp.setProfile(&profile);
            ASSERT_TRUE(interp.run(m->getFunction("main")).ok());
        }

        CodeGenOptions opts;
        opts.optLevel = 2;
        CodeManager cm(*getTarget("x86"), opts);
        cm.setHooks(faultAt(fault, kTierTrace));
        cm.setAdaptive(&profile, 1, nullptr);
        const Function *main_fn = m->getFunction("main");
        const MachineFunction *body = cm.get(main_fn);
        ASSERT_NE(body, nullptr);

        RungCounters before;
        EXPECT_FALSE(cm.maybePromote(body));
        RungCounters after;

        EXPECT_EQ(cm.promotions(), 0u);
        EXPECT_EQ(cm.promotionFailures(), 1u);
        EXPECT_EQ(cm.tierOf(main_fn), 2);
        EXPECT_EQ(cm.get(main_fn), body);
        EXPECT_EQ(m->str(), pristine);
        EXPECT_EQ(after.contained - before.contained, 1u);
        EXPECT_EQ(after.budget - before.budget, fault.budget ? 1u : 0u);
        EXPECT_EQ(after.applications - before.applications, o2 + 1);
        EXPECT_EQ(after.snapshots - before.snapshots, 1u);

        expectMatchesInterpreter(*m, cm, ref);
    }
}

// --- Interpreter as tier of last resort --------------------------------

TEST(InterpFallback, PinnedCalleeIsInterpretedMidSimulation)
{
    auto m = parseProgram();
    Baseline ref = interpret(*m);

    CodeGenOptions opts;
    CodeManager cm(*getTarget("sparc"), opts);
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned) {
        pm.add(std::make_unique<FaultPass>("helper"));
    };
    cm.setHooks(hooks);

    ExecutionContext ctx(*m);
    MachineSimulator sim(ctx, cm);
    auto r = sim.run(m->getFunction("main"));
    ASSERT_TRUE(r.ok()) << trapKindName(r.trap);
    EXPECT_EQ(r.value.i, ref.value);
    EXPECT_EQ(ctx.output(), ref.output);
    EXPECT_GT(sim.instructionsInterpreted(), 0u);
    EXPECT_TRUE(cm.isInterpreted(m->getFunction("helper")));
}

TEST(InterpFallback, PinnedEntryFunctionStillRuns)
{
    auto m = parseProgram();
    Baseline ref = interpret(*m);

    CodeGenOptions opts;
    CodeManager cm(*getTarget("x86"), opts);
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned) {
        pm.add(std::make_unique<FaultPass>()); // every function
    };
    cm.setHooks(hooks);

    ExecutionContext ctx(*m);
    MachineSimulator sim(ctx, cm);
    auto r = sim.run(m->getFunction("main"));
    ASSERT_TRUE(r.ok()) << trapKindName(r.trap);
    EXPECT_EQ(r.value.i, ref.value);
    EXPECT_EQ(ctx.output(), ref.output);
    EXPECT_GT(sim.instructionsInterpreted(), 0u);
}

// --- LLEE end to end ---------------------------------------------------

TEST(LLEELadder, FaultingPassAtO2IsByteIdenticalToBaseline)
{
    auto m = parseProgram();
    auto bytecode = writeBytecode(*m);

    CodeGenOptions opts;
    opts.optLevel = 2;

    LLEE clean(*getTarget("sparc"), nullptr, opts);
    LLEEResult want = clean.execute(bytecode);
    EXPECT_EQ(want.tierDowngrades, 0u);

    LLEE faulty(*getTarget("sparc"), nullptr, opts);
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned level) {
        if (level == 2)
            pm.add(std::make_unique<FaultPass>("helper"));
    };
    faulty.setHooks(hooks);
    LLEEResult got = faulty.execute(bytecode);

    EXPECT_EQ(got.output, want.output);
    EXPECT_EQ(got.exec.value.i, want.exec.value.i);
    EXPECT_EQ(got.tierDowngrades, 1u);
    EXPECT_EQ(got.functionsInterpreted, 0u);
}

TEST(LLEELadder, AchievedTierIsCachedAcrossRuns)
{
    auto m = parseProgram();
    auto bytecode = writeBytecode(*m);
    Baseline ref = interpret(*m);

    CodeGenOptions opts;
    opts.optLevel = 2;
    MemoryStorage storage;
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned) {
        pm.add(std::make_unique<FaultPass>("helper")); // all tiers
    };

    LLEE llee(*getTarget("sparc"), &storage, opts);
    llee.setHooks(hooks);

    LLEEResult first = llee.execute(bytecode);
    EXPECT_EQ(first.output, ref.output);
    EXPECT_EQ(first.exec.value.i, ref.value);
    EXPECT_EQ(first.tierDowngrades, 3u);
    EXPECT_EQ(first.functionsInterpreted, 1u);

    // The second run loads the interpreter pin from the envelope
    // cache: no re-walk of the (still faulting) ladder.
    LLEEResult second = llee.execute(bytecode);
    EXPECT_EQ(second.output, ref.output);
    EXPECT_EQ(second.exec.value.i, ref.value);
    EXPECT_EQ(second.tierDowngrades, 0u);
    EXPECT_EQ(second.functionsInterpreted, 1u);
    EXPECT_GE(second.cacheHits, 2u); // helper pin + main code
    EXPECT_EQ(second.cacheMisses, 0u);
}

TEST(LLEELadder, DegradedTierIsCachedAcrossRuns)
{
    auto m = parseProgram();
    auto bytecode = writeBytecode(*m);

    CodeGenOptions opts;
    opts.optLevel = 2;
    MemoryStorage storage;
    TranslationHooks hooks;
    hooks.extendPipeline = [](PassManager &pm, unsigned level) {
        if (level == 2)
            pm.add(std::make_unique<FaultPass>("helper"));
    };

    LLEE llee(*getTarget("sparc"), &storage, opts);
    llee.setHooks(hooks);
    LLEEResult first = llee.execute(bytecode);
    EXPECT_EQ(first.tierDowngrades, 1u);

    LLEEResult second = llee.execute(bytecode);
    EXPECT_EQ(second.tierDowngrades, 0u);
    EXPECT_EQ(second.cacheMisses, 0u);
    EXPECT_EQ(second.output, first.output);
    EXPECT_EQ(second.exec.value.i, first.exec.value.i);
}
