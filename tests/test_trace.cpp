/**
 * @file
 * Trace-cache tests (paper Section 4.2): edge profiling over the
 * explicit CFG, hot-trace formation, the software trace cache and
 * its coverage metric, and the measurable benefit of trace-driven
 * code layout (fewer executed machine instructions through
 * fallthrough elision).
 */

#include <gtest/gtest.h>

#include <set>

#include "ir/clone.h"
#include "parser/parser.h"
#include "trace/trace.h"
#include "verifier/verifier.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

// A loop whose body is heavily biased toward the 'hot' arm; the
// layout in the source puts the cold block in the middle of the hot
// path so trace layout has something to fix.
const char *kBiasedLoop = R"(
declare void %putint(long %v)
int %main() {
entry:
    br label %head
head:
    %i = phi int [ 0, %entry ], [ %i2, %latch ]
    %acc = phi int [ 0, %entry ], [ %acc2, %latch ]
    %r = rem int %i, 100
    %rare = seteq int %r, 99
    br bool %rare, label %cold, label %hot
cold:
    %c2 = mul int %acc, 2
    br label %latch
hot:
    %h2 = add int %acc, 1
    br label %latch
latch:
    %acc2 = phi int [ %c2, %cold ], [ %h2, %hot ]
    %i2 = add int %i, 1
    %more = setlt int %i2, 1000
    br bool %more, label %head, label %out
out:
    ret int %acc2
}
)";

} // namespace

TEST(Trace, ProfileCountsEdges)
{
    auto m = parseAssembly(kBiasedLoop).orDie();
    verifyOrDie(*m);
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(m->getFunction("main"));

    Function *f = m->getFunction("main");
    BasicBlock *head = f->findBlock("head");
    BasicBlock *hot = f->findBlock("hot");
    BasicBlock *cold = f->findBlock("cold");
    EXPECT_EQ(profile.blockCount(head), 1000u);
    EXPECT_EQ(profile.blockCount(hot), 990u);
    EXPECT_EQ(profile.blockCount(cold), 10u);
    EXPECT_EQ(profile.edgeCount(head, hot), 990u);
    EXPECT_EQ(profile.edgeCount(head, cold), 10u);
    EXPECT_EQ(profile.functionSamples(functionId("main")),
              profile.samples);
}

TEST(Trace, StableIdsSurviveSnapshotRestore)
{
    // The dangling-pointer hazard the stable IDs fix: a profile
    // gathered before a FunctionSnapshot restore must still resolve
    // afterwards, even though every BasicBlock it observed has been
    // destroyed and replaced by a clone.
    auto m = parseAssembly(kBiasedLoop).orDie();
    Function *f = m->getFunction("main");
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(f);

    FunctionSnapshot snap = FunctionSnapshot::capture(*f);
    snap.restoreInto(*f); // old blocks destroyed, clones adopted
    verifyOrDie(*m);

    EXPECT_EQ(profile.blockCount(f->findBlock("head")), 1000u);
    EXPECT_EQ(profile.edgeCount(f->findBlock("head"),
                                f->findBlock("hot")),
              990u);
    // And trace formation works against the restored body.
    auto traces = formTraces(*f, profile);
    ASSERT_FALSE(traces.empty());
    EXPECT_EQ(traces.front().head(), f->findBlock("head"));
}

TEST(Trace, BlockPointerLookupsAreChecked)
{
    auto m = parseAssembly(kBiasedLoop).orDie();
    Function *f = m->getFunction("main");
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(f);

    // Block-pointer lookups answer through stable IDs...
    EXPECT_EQ(profile.blockCount(f->findBlock("head")), 1000u);
    EXPECT_EQ(profile.edgeCount(f->findBlock("head"),
                                f->findBlock("hot")),
              990u);

    // ...and asking for the ID of a detached block — the situation
    // a pointer-keyed profile silently corrupted on — panics
    // instead of reading freed memory.
    BasicBlock detached(f->functionType()->context(), "orphan");
    EXPECT_DEATH(blockId(&detached), "detached basic block");
}

TEST(Trace, FormsHotTraceFollowingBias)
{
    auto m = parseAssembly(kBiasedLoop).orDie();
    Function *f = m->getFunction("main");
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(f);

    auto traces = formTraces(*f, profile);
    ASSERT_FALSE(traces.empty());
    // The hottest trace starts at the loop head and follows the hot
    // arm, never the cold one.
    const Trace &t = traces.front();
    EXPECT_EQ(t.head(), f->findBlock("head"));
    bool has_hot = false, has_cold = false;
    for (BasicBlock *bb : t.blocks) {
        if (bb == f->findBlock("hot"))
            has_hot = true;
        if (bb == f->findBlock("cold"))
            has_cold = true;
    }
    EXPECT_TRUE(has_hot);
    EXPECT_FALSE(has_cold);
    EXPECT_GE(t.length(), 3u);
}

TEST(Trace, ColdCodeFormsNoTraces)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    %a = add int 1, 2
    ret int %a
}
)").orDie();
    Function *f = m->getFunction("main");
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(f);
    auto traces = formTraces(*f, profile); // below hotThreshold
    EXPECT_TRUE(traces.empty());
}

TEST(Trace, CacheLookupAndCoverage)
{
    auto m = parseAssembly(kBiasedLoop).orDie();
    Function *f = m->getFunction("main");
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(f);

    TraceCache cache;
    for (Trace &t : formTraces(*f, profile))
        cache.insert(std::move(t));
    ASSERT_GT(cache.size(), 0u);
    EXPECT_NE(cache.lookup(f->findBlock("head")), nullptr);
    EXPECT_EQ(cache.lookup(f->findBlock("cold")), nullptr);

    // The hot path dominates execution: coverage must be high.
    double cov = cache.coverage(profile);
    EXPECT_GT(cov, 0.9);
    EXPECT_LE(cov, 1.0);
}

TEST(Trace, CacheReplacesDuplicateHeadInPlace)
{
    // Regression: re-inserting a trace with the same head used to
    // overwrite the index entry but leave the stale trace in the
    // ordered store, so coverage() double-counted its blocks and
    // the cache grew without bound under repeated reoptimization.
    auto m = parseAssembly(kBiasedLoop).orDie();
    Function *f = m->getFunction("main");
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(f);

    auto traces = formTraces(*f, profile);
    ASSERT_FALSE(traces.empty());

    TraceCache cache;
    cache.insert(traces.front());
    size_t size1 = cache.size();
    size_t stored1 = cache.traces().size();
    double cov1 = cache.coverage(profile);

    // Re-optimization re-forms the same hot trace; insert it again
    // (a shortened variant, so replacement is observable).
    Trace shorter = traces.front();
    shorter.blocks.resize(2);
    cache.insert(shorter);

    EXPECT_EQ(cache.size(), size1);
    EXPECT_EQ(cache.traces().size(), stored1);
    const Trace *hit = cache.lookup(traces.front().head());
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->length(), 2u);
    // Coverage reflects only the replacement, never the sum.
    EXPECT_LE(cache.coverage(profile), cov1);

    // Inserting the full trace again restores the original numbers.
    cache.insert(traces.front());
    EXPECT_EQ(cache.size(), size1);
    EXPECT_DOUBLE_EQ(cache.coverage(profile), cov1);
}

TEST(Trace, RejectedSeedsAreReleasedForLaterTraces)
{
    // Regression for the seed-release bug. The hottest seeds here
    // ('head' and 'p') have 50/50 successor splits, so both are
    // rejected as singleton traces. Released (the fix), they are
    // absorbed by the colder seeds that follow — [latch, head] and
    // [q, p]; stranded in `taken` (the bug), no trace can form at
    // all and the hot loop gets zero coverage.
    auto m = parseAssembly(R"(
int %main() {
entry:
    br label %head
head:
    %i = phi int [ 0, %entry ], [ %i2, %latch ]
    %acc = phi int [ 0, %entry ], [ %acc2, %latch ]
    %firsthalf = setlt int %i, 500
    br bool %firsthalf, label %q, label %direct
q:
    %qv = add int %acc, 3
    br label %p
direct:
    %dv = add int %acc, 5
    br label %p
p:
    %pv = phi int [ %qv, %q ], [ %dv, %direct ]
    %bit = rem int %i, 2
    %odd = seteq int %bit, 1
    br bool %odd, label %r, label %s
r:
    %rv = add int %pv, 1
    br label %latch
s:
    %sv = mul int %pv, 1
    br label %latch
latch:
    %acc2 = phi int [ %rv, %r ], [ %sv, %s ]
    %i2 = add int %i, 1
    %more = setlt int %i2, 1000
    br bool %more, label %head, label %out
out:
    ret int %acc2
}
)").orDie();
    verifyOrDie(*m);
    Function *f = m->getFunction("main");
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(f);

    auto traces = formTraces(*f, profile);
    ASSERT_FALSE(traces.empty());
    std::set<const BasicBlock *> covered;
    for (const Trace &t : traces)
        for (const BasicBlock *bb : t.blocks)
            covered.insert(bb);
    // The rejected-then-released seeds must appear inside the
    // colder seeds' traces.
    EXPECT_TRUE(covered.count(f->findBlock("head")))
        << "'head' stranded by its rejected singleton trace";
    EXPECT_TRUE(covered.count(f->findBlock("p")))
        << "'p' stranded by its rejected singleton trace";
}

TEST(Trace, LayoutKeepsSemanticsAndEntryBlock)
{
    auto m = parseAssembly(kBiasedLoop).orDie();
    Function *f = m->getFunction("main");
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    auto before = interp.run(f);

    auto traces = formTraces(*f, profile);
    applyTraceLayout(*f, traces);
    verifyOrDie(*m);
    EXPECT_EQ(f->entryBlock()->name(), "entry");

    ExecutionContext ctx2(*m);
    Interpreter interp2(ctx2);
    auto after = interp2.run(f);
    EXPECT_EQ(after.value.i, before.value.i);
}

TEST(Trace, LayoutReducesExecutedBranches)
{
    // The measurable payoff (Section 4.2's runtime reoptimization):
    // after trace layout, fallthrough elision deletes the hot
    // path's jumps, so the simulator executes fewer instructions.
    auto run = [](Module &m) {
        ExecutionContext ctx(m);
        CodeManager cm(*getTarget("sparc"));
        MachineSimulator sim(ctx, cm);
        auto r = sim.run(m.getFunction("main"));
        EXPECT_TRUE(r.ok());
        return std::make_pair(sim.instructionsExecuted(),
                              static_cast<int64_t>(r.value.i));
    };

    auto m1 = parseAssembly(kBiasedLoop).orDie();
    auto [base_insts, base_val] = run(*m1);

    auto m2 = parseAssembly(kBiasedLoop).orDie();
    Function *f = m2->getFunction("main");
    {
        ExecutionContext ctx(*m2);
        Interpreter interp(ctx);
        EdgeProfile profile;
        interp.setProfile(&profile);
        interp.run(f);
        applyTraceLayout(*f, formTraces(*f, profile));
        verifyOrDie(*m2);
    }
    auto [opt_insts, opt_val] = run(*m2);

    EXPECT_EQ(opt_val, base_val);
    EXPECT_LT(opt_insts, base_insts);
}

TEST(Trace, OptionsControlFormation)
{
    auto m = parseAssembly(kBiasedLoop).orDie();
    Function *f = m->getFunction("main");
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(f);

    TraceOptions strict;
    strict.hotThreshold = 100000; // nothing is that hot
    EXPECT_TRUE(formTraces(*f, profile, strict).empty());

    TraceOptions shorty;
    shorty.maxLength = 2;
    for (const Trace &t : formTraces(*f, profile, shorty))
        EXPECT_LE(t.length(), 2u);
}

TEST(Trace, CrossProcedureProfiles)
{
    // Profiles span functions (the paper gathers cross-procedure
    // traces); per-function formation must only use its own blocks.
    auto m = parseAssembly(R"(
internal int %callee(int %x) {
entry:
    br label %body
body:
    %r = add int %x, 1
    ret int %r
}
int %main() {
entry:
    br label %loop
loop:
    %i = phi int [ 0, %entry ], [ %i2, %loop ]
    %i2 = call int %callee(int %i)
    %c = setlt int %i2, 500
    br bool %c, label %loop, label %out
out:
    ret int %i2
}
)").orDie();
    Function *main = m->getFunction("main");
    Function *callee = m->getFunction("callee");
    ExecutionContext ctx(*m);
    Interpreter interp(ctx);
    EdgeProfile profile;
    interp.setProfile(&profile);
    interp.run(main);

    for (const Trace &t : formTraces(*main, profile))
        for (BasicBlock *bb : t.blocks)
            EXPECT_EQ(bb->parent(), main);
    for (const Trace &t : formTraces(*callee, profile))
        for (BasicBlock *bb : t.blocks)
            EXPECT_EQ(bb->parent(), callee);
}
