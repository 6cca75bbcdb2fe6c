/**
 * @file
 * Live-update tests: epoch-based reclamation of retired bodies and
 * chains (the lists must drain, not leak), epoch pins protecting
 * still-executing bodies, replaceFunctionLive() swapping a function
 * under a running program — including from a second thread while the
 * first executes it — and the recoverable-trap semantics of rejected
 * LLVA intrinsics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "parser/parser.h"
#include "support/statistic.h"
#include "trace/profile.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

const char *kHotCalls = R"(
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

constexpr int64_t kMainSum = 198000; // 40 * sum(0..99)

CodeGenOptions
adaptiveOpts(uint64_t watermark = 500)
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    opts.adaptive = true;
    opts.promoteWatermark = watermark;
    return opts;
}

} // namespace

TEST(LiveUpdate, EpochPinsGateReclamation)
{
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);
    const Function *work = m->getFunction("work");
    CodeManager cm(*getTarget("x86"));

    // No pins: a retired body is reclaimed on the spot.
    ASSERT_NE(cm.get(work), nullptr);
    cm.invalidate(work);
    EXPECT_EQ(cm.retiredBodies(), 0u);
    EXPECT_EQ(cm.reclaimedObjects(), 1u);

    // A pin taken *before* the retirement holds the body alive ...
    ASSERT_NE(cm.get(work), nullptr);
    uint64_t pin = cm.pinEpoch();
    cm.invalidate(work);
    EXPECT_EQ(cm.retiredBodies(), 1u);
    cm.unpinEpoch(pin);
    EXPECT_EQ(cm.retiredBodies(), 0u);
    EXPECT_EQ(cm.reclaimedObjects(), 2u);

    // ... while a pin taken *after* it cannot reference it and
    // does not block reclamation.
    ASSERT_NE(cm.get(work), nullptr);
    uint64_t before = cm.pinEpoch();
    cm.invalidate(work);
    uint64_t after = cm.pinEpoch();
    EXPECT_EQ(cm.retiredBodies(), 1u);
    cm.unpinEpoch(before);
    EXPECT_EQ(cm.retiredBodies(), 0u);
    cm.unpinEpoch(after);
    EXPECT_EQ(cm.reclaimedObjects(), 3u);
}

TEST(LiveUpdate, InvalidatePromoteCyclesDoNotAccumulate)
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

    // The adaptive run retires work()'s -O2 body on promotion; the
    // activation's own pin holds it until run() returns, then the
    // unpin drains the lists — nothing outlives the run.
    auto r = sim.run(m->getFunction("main"));
    ASSERT_TRUE(r.ok());
    ASSERT_GE(cm.promotions(), 1u);
    EXPECT_EQ(cm.retiredBodies(), 0u);
    EXPECT_EQ(cm.retiredChainCount(), 0u);
    size_t reclaimedSoFar = cm.reclaimedObjects();
    EXPECT_GE(reclaimedSoFar, 1u);

    // Repeated live replacement must not grow memory monotonically:
    // with no activation pinning, every retirement reclaims
    // immediately.
    for (int i = 0; i < 8; ++i) {
        ASSERT_NE(cm.replaceFunctionLive(work), nullptr);
        EXPECT_EQ(cm.retiredBodies(), 0u) << "cycle " << i;
        EXPECT_EQ(cm.retiredChainCount(), 0u) << "cycle " << i;
        EXPECT_GT(cm.reclaimedObjects(), reclaimedSoFar)
            << "cycle " << i;
        reclaimedSoFar = cm.reclaimedObjects();
    }

    // The gauges surface the churn.
    EXPECT_GE(stats::value("vm.retired_bodies"), 8u);
    EXPECT_GE(stats::value("vm.retired_reclaimed"),
              cm.reclaimedObjects());
    EXPECT_GE(stats::value("vm.live_replacements"), 8u);
}

TEST(LiveUpdate, ReplaceFunctionLiveUnpinsInterpreterPinnedFunction)
{
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);
    const Function *work = m->getFunction("work");

    ExecutionContext ctx(*m);
    CodeManager cm(*getTarget("x86"), adaptiveOpts());
    TranslationHooks hooks;
    hooks.beforeCodegen = [](const Function &f, unsigned) {
        if (f.name() == "work")
            throw std::runtime_error("injected codegen fault");
    };
    cm.setHooks(hooks);

    // Every native tier fails: work() is pinned to the interpreter,
    // and the program still runs (tier of last resort).
    ASSERT_EQ(cm.get(work), nullptr);
    ASSERT_TRUE(cm.isInterpreted(work));
    MachineSimulator sim(ctx, cm);
    auto r1 = sim.run(m->getFunction("main"));
    ASSERT_TRUE(r1.ok());
    EXPECT_EQ(static_cast<int64_t>(r1.value.i), kMainSum);
    EXPECT_GT(sim.instructionsInterpreted(), 0u);

    // A live replacement whose translation now succeeds un-pins it.
    cm.setHooks(TranslationHooks{});
    ASSERT_NE(cm.replaceFunctionLive(work), nullptr);
    EXPECT_FALSE(cm.isInterpreted(work));

    uint64_t interpretedBefore = sim.instructionsInterpreted();
    auto r2 = sim.run(m->getFunction("main"));
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(static_cast<int64_t>(r2.value.i), kMainSum);
    EXPECT_EQ(sim.instructionsInterpreted(), interpretedBefore);
}

TEST(LiveUpdate, ConcurrentReplaceWhileExecuting)
{
    // The SMC torture case: one thread runs main() (which calls
    // work() 40 times, promoting it mid-run) while a second thread
    // keeps replacing work()'s translation out from under it. The
    // run must compute the exact quiet-baseline answer, and every
    // retired body must be reclaimed once the activation ends.
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);
    const Function *work = m->getFunction("work");

    ExecutionContext ctx(*m);
    CodeManager cm(*getTarget("x86"), adaptiveOpts());
    EdgeProfile profile;
    cm.setAdaptive(&profile, 500);
    MachineSimulator sim(ctx, cm);
    sim.setProfile(&profile);

    std::atomic<bool> done{false};
    std::atomic<size_t> replacements{0};
    std::thread chaos([&] {
        while (!done.load(std::memory_order_relaxed)) {
            if (cm.replaceFunctionLive(work))
                replacements.fetch_add(1,
                                       std::memory_order_relaxed);
            // Pause between replacements: each one holds the
            // CodeManager lock exclusively, and a back-to-back loop
            // can starve the executor of it indefinitely.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });

    // Handshake: main() can finish in a few milliseconds, so start
    // it only once the chaos thread has landed its first
    // replacement; the thread keeps replacing throughout the run.
    while (replacements.load(std::memory_order_relaxed) == 0)
        std::this_thread::yield();

    auto r = sim.run(m->getFunction("main"));
    done.store(true, std::memory_order_relaxed);
    chaos.join();

    ASSERT_TRUE(r.ok());
    EXPECT_EQ(static_cast<int64_t>(r.value.i), kMainSum);
    EXPECT_GE(replacements.load(), 1u);
    // The activation's pin is gone and the chaos thread has joined:
    // nothing is left awaiting reclamation.
    EXPECT_EQ(cm.retiredBodies(), 0u);
    EXPECT_EQ(cm.retiredChainCount(), 0u);
}

TEST(LiveUpdate, RejectedSmcReplaceTrapsRecoverably)
{
    // llva.smc.replace.function with an address that names no
    // function must not kill the VM: it raises BadIndirectCall,
    // which dispatches to a registered trap handler like any other
    // recoverable trap, and installs nothing.
    auto m = parseAssembly(R"(
declare void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
declare void %putint(long %v)
internal void %handler(long %trapno, ubyte* %info) {
entry:
    call void %putint(long %trapno)
    ret void
}
internal long %work(long %n) {
entry:
    ret long 5
}
int %main() {
entry:
    %t = cast long 123456 to ubyte*
    %r = cast long (long)* %work to ubyte*
    call void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
    ret int 0
}
)").orDie();
    verifyOrDie(*m);

    uint64_t rejectedBefore = stats::value("vm.intrinsic_rejected");
    std::string expected = std::to_string(
        static_cast<unsigned>(TrapKind::BadIndirectCall));

    {
        ExecutionContext ctx(*m);
        ctx.setPrivileged(true);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::BadIndirectCall),
            ctx.memory().functionAddress(m->getFunction("handler")));
        Interpreter interp(ctx);
        auto r = interp.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::BadIndirectCall);
        EXPECT_EQ(ctx.output(), expected);
    }
    {
        ExecutionContext ctx(*m);
        ctx.setPrivileged(true);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::BadIndirectCall),
            ctx.memory().functionAddress(m->getFunction("handler")));
        CodeManager cm(*getTarget("x86"));
        MachineSimulator sim(ctx, cm);
        auto r = sim.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::BadIndirectCall);
        EXPECT_EQ(ctx.output(), expected);
    }

    EXPECT_GE(stats::value("vm.intrinsic_rejected"),
              rejectedBefore + 2);
}
