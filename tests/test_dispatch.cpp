/**
 * @file
 * Threaded dispatch and superblock chaining tests: the direct-
 * threaded engine (with chained trace-tier superblocks) must be
 * observably identical to the legacy switch engine on every
 * workload, chains must link lazily and unlink on invalidate()/SMC
 * retirement, sampled profiling must estimate exact counts, and the
 * two bugfixes that rode along — trap-handler outcomes and exact
 * instruction budgets — get regression coverage.
 */

#include <gtest/gtest.h>

#include "bytecode/bytecode.h"
#include "llee/envelope.h"
#include "llee/llee.h"
#include "parser/parser.h"
#include "support/statistic.h"
#include "trace/profile.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"
#include "workloads/workloads.h"

using namespace llva;

namespace {

// A helper with a hot inner loop, called repeatedly so that the
// *promoted* body actually gets re-entered (a function promoted
// mid-activation keeps its old body until the next call — only the
// live trace-tier body chains).
const char *kHotCalls = R"(
declare void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
internal int %work(int %n) {
entry:
    br label %head
head:
    %i = phi int [ 0, %entry ], [ %i2, %head ]
    %acc = phi int [ 0, %entry ], [ %acc2, %head ]
    %acc2 = add int %acc, %i
    %i2 = add int %i, 1
    %more = setlt int %i2, %n
    br bool %more, label %head, label %out
out:
    ret int %acc2
}
internal int %work2(int %n) {
entry:
    ret int 77
}
int %main() {
entry:
    br label %loop
loop:
    %j = phi int [ 0, %entry ], [ %j2, %loop ]
    %acc = phi int [ 0, %entry ], [ %acc2, %loop ]
    %w = call int %work(int 100)
    %acc2 = add int %acc, %w
    %j2 = add int %j, 1
    %more = setlt int %j2, 40
    br bool %more, label %loop, label %out
out:
    ret int %acc2
}
)";

CodeGenOptions
adaptiveOpts(uint64_t watermark = 500)
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    opts.adaptive = true;
    opts.promoteWatermark = watermark;
    return opts;
}

LLEEResult
runLLEE(const std::vector<uint8_t> &bc, const std::string &target,
        CodeGenOptions opts, MachineSimulator::Dispatch dispatch,
        uint64_t sampleInterval = 1)
{
    LLEE llee(*getTarget(target), nullptr, opts);
    llee.setDispatch(dispatch);
    llee.setProfileSampleInterval(sampleInterval);
    return llee.execute(bc);
}

} // namespace

// --- Differential: threaded engine vs legacy switch engine -----------

class DispatchSuite : public ::testing::TestWithParam<std::string>
{};

TEST_P(DispatchSuite, ThreadedMatchesSwitchAtEveryTier)
{
    auto m = buildWorkload(GetParam(), 1);
    verifyOrDie(*m);
    auto bc = writeBytecode(*m);

    for (const std::string &target : targetNames()) {
        for (uint8_t level : {0, 1, 2}) {
            CodeGenOptions opts;
            opts.optLevel = level;
            LLEEResult sw = runLLEE(
                bc, target, opts, MachineSimulator::Dispatch::Switch);
            LLEEResult th = runLLEE(
                bc, target, opts,
                MachineSimulator::Dispatch::Threaded);
            ASSERT_TRUE(sw.exec.ok() && th.exec.ok())
                << target << " -O" << int(level);
            EXPECT_EQ(th.exec.value.i, sw.exec.value.i)
                << target << " -O" << int(level);
            EXPECT_EQ(th.output, sw.output)
                << target << " -O" << int(level);
            // Dispatch strategy must not change what executes, only
            // how fast: instruction-for-instruction identical.
            EXPECT_EQ(th.machineInstructionsExecuted,
                      sw.machineInstructionsExecuted)
                << target << " -O" << int(level);
        }
    }
}

TEST_P(DispatchSuite, ChainedTraceTierMatchesSwitchEngine)
{
    auto m = buildWorkload(GetParam(), 1);
    verifyOrDie(*m);
    auto bc = writeBytecode(*m);

    for (const std::string &target : targetNames()) {
        LLEEResult sw =
            runLLEE(bc, target, adaptiveOpts(200),
                    MachineSimulator::Dispatch::Switch);
        LLEEResult th =
            runLLEE(bc, target, adaptiveOpts(200),
                    MachineSimulator::Dispatch::Threaded);
        ASSERT_TRUE(sw.exec.ok() && th.exec.ok()) << target;
        EXPECT_EQ(th.exec.value.i, sw.exec.value.i) << target;
        EXPECT_EQ(th.output, sw.output) << target;
        EXPECT_EQ(th.machineInstructionsExecuted,
                  sw.machineInstructionsExecuted)
            << target;
        // The cached-hash profile must count exactly what the
        // rehash-per-event baseline counts, promoting identically.
        EXPECT_EQ(th.profileSamples, sw.profileSamples) << target;
        EXPECT_EQ(th.promotions, sw.promotions) << target;
    }
}

static std::vector<std::string>
workloadNames()
{
    std::vector<std::string> n;
    for (const auto &w : allWorkloads())
        n.push_back(w.name);
    return n;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, DispatchSuite, ::testing::ValuesIn(workloadNames()),
    [](const auto &info) {
        std::string s = info.param;
        for (char &c : s)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return s;
    });

// --- Superblock chaining protocol ------------------------------------

TEST(Chaining, TraceTierBodyChainsAndUnlinksOnInvalidate)
{
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);
    const Function *work = m->getFunction("work");

    ExecutionContext ctx(*m);
    CodeManager cm(*getTarget("x86"), adaptiveOpts());
    EdgeProfile profile;
    cm.setAdaptive(&profile, 500);
    MachineSimulator sim(ctx, cm);
    sim.setProfile(&profile);

    auto r = sim.run(m->getFunction("main"));
    ASSERT_TRUE(r.ok());
    // work crossed the watermark, was promoted, and its re-entered
    // trace-tier body executed chained.
    ASSERT_EQ(cm.tierOf(work), kTierTrace);
    ASSERT_GE(cm.chainedFunctions(), 1u);
    EXPECT_EQ(cm.chainsUnlinked(), 0u);

    ChainedFunction *chain = cm.chainFor(cm.cached(work));
    EXPECT_GT(chain->linkCount(), 0u);
    EXPECT_FALSE(chain->unlinked());

    // SMC invalidation severs every patched link, permanently. Hold
    // an epoch pin, as an executing simulator would: without one the
    // retired chain is reclaimed inside invalidate(), and reading it
    // below would be a use after free.
    uint64_t pin = cm.pinEpoch();
    cm.invalidate(work);
    EXPECT_TRUE(chain->unlinked());
    EXPECT_EQ(chain->linkCount(), 0u);
    EXPECT_EQ(cm.chainsUnlinked(), 1u);
    EXPECT_EQ(cm.chainedFunctions(), 0u);
    cm.unpinEpoch(pin);
    EXPECT_EQ(cm.retiredChainCount(), 0u);
}

TEST(Chaining, SmcReplaceUnlinksTheRetiredChain)
{
    // llva.smc.replace.function from inside the program: the hot
    // callee is promoted (and chained), then replaced mid-run. The
    // retired chain must be unlinked, and the replacement visible
    // to future calls — under both dispatch engines.
    auto m = parseAssembly(R"(
declare void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
internal int %work(int %n) {
entry:
    br label %head
head:
    %i = phi int [ 0, %entry ], [ %i2, %head ]
    %acc = phi int [ 0, %entry ], [ %acc2, %head ]
    %acc2 = add int %acc, %i
    %i2 = add int %i, 1
    %more = setlt int %i2, %n
    br bool %more, label %head, label %out
out:
    ret int %acc2
}
internal int %work2(int %n) {
entry:
    ret int 7
}
int %main() {
entry:
    br label %loop
loop:
    %j = phi int [ 0, %entry ], [ %j2, %loop ]
    %w = call int %work(int 100)
    %j2 = add int %j, 1
    %more = setlt int %j2, 40
    br bool %more, label %loop, label %swap
swap:
    %t = cast int (int)* %work to ubyte*
    %r = cast int (int)* %work2 to ubyte*
    call void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
    %after = call int %work(int 100)
    ret int %after
}
)").orDie();
    verifyOrDie(*m);

    for (auto dispatch : {MachineSimulator::Dispatch::Threaded,
                          MachineSimulator::Dispatch::Switch}) {
        ExecutionContext ctx(*m);
        CodeManager cm(*getTarget("x86"), adaptiveOpts());
        EdgeProfile profile;
        cm.setAdaptive(&profile, 500);
        MachineSimulator sim(ctx, cm);
        sim.setDispatch(dispatch);
        sim.setProfile(&profile);

        auto r = sim.run(m->getFunction("main"));
        ASSERT_TRUE(r.ok());
        // Future invocations see the replacement...
        EXPECT_EQ(static_cast<int64_t>(r.value.i), 7);
        ASSERT_GE(cm.promotions(), 1u);
        // ...and under the threaded engine the promoted body's
        // chain was built, then severed by the SMC retirement.
        if (dispatch == MachineSimulator::Dispatch::Threaded)
            EXPECT_GE(cm.chainsUnlinked(), 1u);
    }
}

// --- Sampled, decaying profiling -------------------------------------

TEST(SampledProfile, WeightedSamplesEstimateExactCounts)
{
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);
    auto bc = writeBytecode(*m);

    LLEEResult exact =
        runLLEE(bc, "x86", adaptiveOpts(),
                MachineSimulator::Dispatch::Threaded, 1);
    ASSERT_TRUE(exact.exec.ok());

    constexpr uint64_t kInterval = 8;
    LLEEResult sampled =
        runLLEE(bc, "x86", adaptiveOpts(),
                MachineSimulator::Dispatch::Threaded, kInterval);
    ASSERT_TRUE(sampled.exec.ok());

    // Same observable execution...
    EXPECT_EQ(sampled.exec.value.i, exact.exec.value.i);
    EXPECT_EQ(sampled.machineInstructionsExecuted,
              exact.machineInstructionsExecuted);
    // ...and totals stay in execution units: every Nth event is
    // recorded with weight N, so the estimate lands within one
    // sampling interval of the exact count, and the hot function
    // still crosses the watermark and gets promoted.
    ASSERT_GT(sampled.profileSamples, 0u);
    uint64_t lo = exact.profileSamples - kInterval;
    uint64_t hi = exact.profileSamples + kInterval;
    EXPECT_GE(sampled.profileSamples, lo);
    EXPECT_LE(sampled.profileSamples, hi);
    EXPECT_GE(sampled.promotions, 1u);
}

TEST(SampledProfile, DecayHalvesAndDropsDeadEntries)
{
    EdgeProfile p;
    BlockId a{1, 10}, b{1, 20}, c{2, 30};
    p.noteId(BlockId{}, a, 8);
    p.noteId(a, b, 3);
    p.noteId(BlockId{}, c, 1);

    p.decay(1);
    EXPECT_EQ(p.blocks.at(a), 4u);
    EXPECT_EQ(p.blocks.at(b), 1u);
    // The weight-1 entry decays to zero and is dropped entirely.
    EXPECT_EQ(p.blocks.count(c), 0u);
    EXPECT_EQ(p.fnSamples.count(2), 0u);
    EXPECT_EQ(p.edges.at({a, b}), 1u);
    // samples is recomputed from the surviving block counts.
    EXPECT_EQ(p.samples, 5u);

    p.decay(3);
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.samples, 0u);
}

// --- Satellite 1: trap-handler outcomes ------------------------------

namespace {

/** main traps DivByZero; the registered handler is installed for
 *  that trap number. The handler itself then traps NullAccess. */
const char *kTrappingHandler = R"(
internal void %handler(long %trapno, ubyte* %info) {
entry:
    %v = load int* null
    ret void
}
int %main() {
entry:
    %z = sub int 1, 1
    %d = div int 10, %z
    ret int %d
}
)";

const char *kUnwindingHandler = R"(
internal void %handler(long %trapno, ubyte* %info) {
entry:
    unwind
}
int %main() {
entry:
    %z = sub int 1, 1
    %d = div int 10, %z
    ret int %d
}
)";

} // namespace

TEST(TrapDispatch, HandlerRaisedTrapSupersedesOriginal)
{
    auto m = parseAssembly(kTrappingHandler).orDie();
    verifyOrDie(*m);
    {
        ExecutionContext ctx(*m);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::DivByZero),
            ctx.memory().functionAddress(m->getFunction("handler")));
        Interpreter interp(ctx);
        auto r = interp.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::NullAccess);
    }
    for (const std::string &target : targetNames()) {
        ExecutionContext ctx(*m);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::DivByZero),
            ctx.memory().functionAddress(m->getFunction("handler")));
        CodeManager cm(*getTarget(target));
        MachineSimulator sim(ctx, cm);
        auto r = sim.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::NullAccess) << target;
    }
}

TEST(TrapDispatch, UnwindEscapingHandlerIsSurfaced)
{
    auto m = parseAssembly(kUnwindingHandler).orDie();
    verifyOrDie(*m);
    {
        ExecutionContext ctx(*m);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::DivByZero),
            ctx.memory().functionAddress(m->getFunction("handler")));
        Interpreter interp(ctx);
        auto r = interp.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::DivByZero);
        EXPECT_TRUE(r.unwound);
    }
    {
        ExecutionContext ctx(*m);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::DivByZero),
            ctx.memory().functionAddress(m->getFunction("handler")));
        CodeManager cm(*getTarget("sparc"));
        MachineSimulator sim(ctx, cm);
        auto r = sim.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::DivByZero);
        EXPECT_TRUE(r.unwound);
    }
}

TEST(TrapDispatch, UnresolvedHandlerAddressIsCounted)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    %z = sub int 1, 1
    %d = div int 10, %z
    ret int %d
}
)").orDie();
    verifyOrDie(*m);

    {
        uint64_t before = stats::value("vm.trap_handler_missing");
        ExecutionContext ctx(*m);
        // A registered address that names no function: the handler
        // silently never runs, but the statistic records it.
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::DivByZero), 0x12345);
        Interpreter interp(ctx);
        auto r = interp.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::DivByZero);
        EXPECT_EQ(stats::value("vm.trap_handler_missing"),
                  before + 1);
    }
    {
        uint64_t before = stats::value("vm.trap_handler_missing");
        ExecutionContext ctx(*m);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::DivByZero), 0x12345);
        CodeManager cm(*getTarget("x86"));
        MachineSimulator sim(ctx, cm);
        auto r = sim.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::DivByZero);
        EXPECT_EQ(stats::value("vm.trap_handler_missing"),
                  before + 1);
    }
}

// --- Satellite 2: exact instruction budgets --------------------------

namespace {

const char *kSmallProgram = R"(
internal int %leaf(int %n) {
entry:
    %r = mul int %n, 3
    ret int %r
}
int %main() {
entry:
    %a = call int %leaf(int 5)
    %b = add int %a, 1
    ret int %b
}
)";

} // namespace

TEST(InstructionLimit, InterpreterBudgetIsExact)
{
    auto m = parseAssembly(kSmallProgram).orDie();
    verifyOrDie(*m);

    ExecutionContext probe(*m);
    Interpreter unlimited(probe);
    auto r0 = unlimited.run(m->getFunction("main"));
    ASSERT_TRUE(r0.ok());
    uint64_t total = r0.instructionsExecuted;
    ASSERT_GT(total, 1u);

    // A budget of exactly `total` completes; every smaller budget
    // must fault — no configuration may buy a free instruction.
    {
        ExecutionContext ctx(*m);
        Interpreter interp(ctx);
        interp.setInstructionLimit(total);
        EXPECT_TRUE(interp.run(m->getFunction("main")).ok());
    }
    for (uint64_t limit = 1; limit < total; ++limit) {
        ExecutionContext ctx(*m);
        Interpreter interp(ctx);
        interp.setInstructionLimit(limit);
        EXPECT_THROW(interp.run(m->getFunction("main")), FatalError)
            << "limit " << limit << " of " << total;
    }
}

TEST(InstructionLimit, SimulatorBudgetIsExactAcrossTierFallback)
{
    // Pin the callee to the interpreter tier, so the budget crosses
    // the native -> interpretFallback boundary mid-run. The drained
    // budget must fault *at the handoff*, not grant the interpreter
    // a free instruction (the old off-by-one).
    auto m = parseAssembly(kSmallProgram).orDie();
    verifyOrDie(*m);

    auto totalWith = [&](uint64_t limit) -> uint64_t {
        ExecutionContext ctx(*m);
        CodeManager cm(*getTarget("x86"));
        cm.markInterpreted(m->getFunction("leaf"));
        MachineSimulator sim(ctx, cm);
        if (limit)
            sim.setInstructionLimit(limit);
        auto r = sim.run(m->getFunction("main"));
        EXPECT_TRUE(r.ok());
        return sim.instructionsExecuted();
    };

    uint64_t total = totalWith(0);
    ASSERT_GT(total, 1u);
    EXPECT_EQ(totalWith(total), total); // exact budget completes

    for (uint64_t limit = 1; limit < total; ++limit) {
        ExecutionContext ctx(*m);
        CodeManager cm(*getTarget("x86"));
        cm.markInterpreted(m->getFunction("leaf"));
        MachineSimulator sim(ctx, cm);
        sim.setInstructionLimit(limit);
        EXPECT_THROW(sim.run(m->getFunction("main")), FatalError)
            << "limit " << limit << " of " << total;
    }
}

TEST(InstructionLimit, ChainedFastPathHonorsTheBudget)
{
    // The superblock fast path has its own limit check: budgets are
    // exact at the trace tier too.
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);

    auto run = [&](uint64_t limit) {
        ExecutionContext ctx(*m);
        CodeManager cm(*getTarget("x86"), adaptiveOpts());
        EdgeProfile profile;
        cm.setAdaptive(&profile, 500);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        if (limit)
            sim.setInstructionLimit(limit);
        auto r = sim.run(m->getFunction("main"));
        EXPECT_TRUE(r.ok());
        return sim.instructionsExecuted();
    };

    uint64_t total = run(0);
    EXPECT_EQ(run(total), total);
    {
        ExecutionContext ctx(*m);
        CodeManager cm(*getTarget("x86"), adaptiveOpts());
        EdgeProfile profile;
        cm.setAdaptive(&profile, 500);
        MachineSimulator sim(ctx, cm);
        sim.setProfile(&profile);
        sim.setInstructionLimit(total - 1);
        EXPECT_THROW(sim.run(m->getFunction("main")), FatalError);
    }
}
