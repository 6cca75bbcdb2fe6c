/**
 * @file
 * Exception-model tests (paper Sections 3.3-3.5): the
 * ExceptionsEnabled attribute's delivery/ignore semantics,
 * invoke/unwind stack unwinding across frames, trap-handler
 * dispatch, the privileged bit, and SMC redirect semantics —
 * all verified on both the interpreter and the machine simulators.
 */

#include <gtest/gtest.h>
#include <pthread.h>

#include "parser/parser.h"
#include "verifier/verifier.h"
#include "vm/interpreter.h"
#include "vm/machine_sim.h"

using namespace llva;

namespace {

ExecResult
interpret(Module &m, std::string *out = nullptr)
{
    ExecutionContext ctx(m);
    Interpreter interp(ctx);
    interp.setInstructionLimit(10000000);
    auto r = interp.run(m.getFunction("main"));
    if (out)
        *out = ctx.output();
    return r;
}

ExecResult
simulate(Module &m, const std::string &target,
         std::string *out = nullptr)
{
    ExecutionContext ctx(m);
    CodeManager cm(*getTarget(target));
    MachineSimulator sim(ctx, cm);
    sim.setInstructionLimit(100000000);
    auto r = sim.run(m.getFunction("main"));
    if (out)
        *out = ctx.output();
    return r;
}

} // namespace

TEST(Exceptions, DivByZeroTrapsWhenEnabled)
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
    auto r = interpret(*m);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap, TrapKind::DivByZero);
    for (const char *t : {"x86", "sparc"}) {
        auto sr = simulate(*m, t);
        EXPECT_EQ(sr.trap, TrapKind::DivByZero) << t;
    }
}

TEST(Exceptions, DivByZeroIgnoredWhenDisabled)
{
    // Section 3.3: "Exceptions generated by an instruction are
    // ignored if ExceptionsEnabled is false."
    auto m = parseAssembly(R"(
int %main() {
entry:
    %z = sub int 1, 1
    %d = div int 10, %z !ee(false)
    %r = add int %d, 7
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    auto r = interpret(*m);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(static_cast<int64_t>(r.value.i), 7);
    for (const char *t : {"x86", "sparc"}) {
        auto sr = simulate(*m, t);
        EXPECT_TRUE(sr.ok()) << t;
        EXPECT_EQ(static_cast<int64_t>(sr.value.i), 7) << t;
    }
}

TEST(Exceptions, NullLoadTraps)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    %v = load int* null
    ret int %v
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_EQ(interpret(*m).trap, TrapKind::NullAccess);
    EXPECT_EQ(simulate(*m, "x86").trap, TrapKind::NullAccess);
    EXPECT_EQ(simulate(*m, "sparc").trap, TrapKind::NullAccess);
}

TEST(Exceptions, AccessThroughPointerMinusFourIsOutOfBounds)
{
    // A guest pointer of -4 (2^64 - 4): addr + width wraps past zero,
    // so a bounds check that sums them would let it through to the
    // host. Every engine must trap OutOfBounds when the access has
    // exceptions enabled and drop it (loads read 0) when not. Both
    // 8-byte (specialized handler) and 4-byte (generic) accesses.
    for (const char *ty : {"long", "int"}) {
        const std::string prelude =
            std::string("long %main() {\nentry:\n"
                        "    %a = sub long 0, 4\n"
                        "    %p = cast long %a to ") +
            ty + "*\n";
        const std::string access[] = {
            std::string("    %v = load ") + ty + "* %p",
            std::string("    store ") + ty + " 7, " + ty + "* %p",
        };
        for (const std::string &acc : access) {
            auto trapping = parseAssembly(prelude + acc +
                                          "\n    ret long 1\n}\n")
                                .orDie();
            verifyOrDie(*trapping);
            EXPECT_EQ(interpret(*trapping).trap, TrapKind::OutOfBounds)
                << acc;
            for (const std::string &t : targetNames())
                EXPECT_EQ(simulate(*trapping, t).trap,
                          TrapKind::OutOfBounds)
                    << t << ": " << acc;
        }
        // Exceptions disabled: the store is dropped and the load
        // reads zero.
        auto dropped =
            parseAssembly(prelude + access[1] + " !ee(false)\n" +
                          access[0] + " !ee(false)\n" +
                          "    %w = cast " + ty + " %v to long\n" +
                          "    %r = add long %w, 5\n" +
                          "    ret long %r\n}\n")
                .orDie();
        verifyOrDie(*dropped);
        auto r = interpret(*dropped);
        EXPECT_TRUE(r.ok()) << ty;
        EXPECT_EQ(r.value.i, 5u) << ty;
        for (const std::string &t : targetNames()) {
            auto sr = simulate(*dropped, t);
            EXPECT_TRUE(sr.ok()) << t << " " << ty;
            EXPECT_EQ(sr.value.i, 5u) << t << " " << ty;
        }
    }
}

TEST(Exceptions, NullStoreIgnoredWhenDisabled)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    store int 5, int* null !ee(false)
    ret int 9
}
)").orDie();
    verifyOrDie(*m);
    auto r = interpret(*m);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(static_cast<int64_t>(r.value.i), 9);
    EXPECT_TRUE(simulate(*m, "sparc").ok());
}

TEST(Exceptions, InvokeCatchesUnwind)
{
    auto m = parseAssembly(R"(
internal void %thrower(int %x) {
entry:
    %neg = setlt int %x, 0
    br bool %neg, label %bad, label %good
bad:
    unwind
good:
    ret void
}
int %main() {
entry:
    invoke void %thrower(int -1) to label %ok unwind label %caught
ok:
    ret int 0
caught:
    ret int 99
}
)").orDie();
    verifyOrDie(*m);
    auto r = interpret(*m);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(static_cast<int64_t>(r.value.i), 99);
    for (const char *t : {"x86", "sparc"}) {
        auto sr = simulate(*m, t);
        ASSERT_TRUE(sr.ok()) << t;
        EXPECT_EQ(static_cast<int64_t>(sr.value.i), 99) << t;
    }
}

TEST(Exceptions, UnwindPropagatesThroughPlainCalls)
{
    // unwind pops frames to the *dynamically* nearest invoke: a
    // plain call in between does not catch.
    auto m = parseAssembly(R"(
internal void %inner() {
entry:
    unwind
}
internal void %middle() {
entry:
    call void %inner()
    ret void
}
int %main() {
entry:
    invoke void %middle() to label %ok unwind label %caught
ok:
    ret int 0
caught:
    ret int 77
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_EQ(static_cast<int64_t>(interpret(*m).value.i), 77);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "x86").value.i),
              77);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "sparc").value.i),
              77);
}

TEST(Exceptions, NestedInvokesCatchAtNearest)
{
    auto m = parseAssembly(R"(
internal void %boom() {
entry:
    unwind
}
internal int %inner() {
entry:
    invoke void %boom() to label %ok unwind label %c
ok:
    ret int 0
c:
    ret int 5
}
int %main() {
entry:
    %r = invoke int %inner() to label %ok unwind label %outer
ok:
    ret int %r
outer:
    ret int -1
}
)").orDie();
    verifyOrDie(*m);
    // The inner invoke catches; the outer handler must not run.
    EXPECT_EQ(static_cast<int64_t>(interpret(*m).value.i), 5);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "sparc").value.i),
              5);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "x86").value.i),
              5);
}

TEST(Exceptions, UncaughtUnwindEscapes)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    unwind
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_TRUE(interpret(*m).unwound);
    EXPECT_TRUE(simulate(*m, "x86").unwound);
    EXPECT_TRUE(simulate(*m, "sparc").unwound);
}

TEST(Exceptions, TrapHandlerRunsOnTrap)
{
    // Section 3.5: "A trap handler is an ordinary LLVA function with
    // two arguments: the trap number and a pointer... to pass in
    // additional information."
    auto m = parseAssembly(R"(
declare void %putint(long %v)
internal void %handler(long %trapno, ubyte* %info) {
entry:
    call void %putint(long %trapno)
    ret void
}
int %main() {
entry:
    %v = load int* null
    ret int %v
}
)").orDie();
    verifyOrDie(*m);
    {
        ExecutionContext ctx(*m);
        ctx.setPrivileged(true);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::NullAccess),
            ctx.memory().functionAddress(
                m->getFunction("handler")));
        Interpreter interp(ctx);
        auto r = interp.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::NullAccess);
        EXPECT_EQ(ctx.output(),
                  std::to_string(static_cast<unsigned>(
                      TrapKind::NullAccess)));
    }
    {
        ExecutionContext ctx(*m);
        ctx.setTrapHandler(
            static_cast<unsigned>(TrapKind::NullAccess),
            ctx.memory().functionAddress(
                m->getFunction("handler")));
        CodeManager cm(*getTarget("sparc"));
        MachineSimulator sim(ctx, cm);
        auto r = sim.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::NullAccess);
        EXPECT_FALSE(ctx.output().empty());
    }
}

TEST(Exceptions, PrivilegedIntrinsicRequiresBit)
{
    // Registering a trap handler from LLVA code requires the
    // privileged bit. An unprivileged caller gets a recoverable
    // PrivilegeViolation trap (paper Section 3.5) — the VM is not
    // torn down, and the registration does not happen.
    auto m = parseAssembly(R"(
declare void %llva.os.register.traphandler(long %n, ubyte* %h)
internal void %handler(long %trapno, ubyte* %info) {
entry:
    ret void
}
int %main() {
entry:
    %h = cast void (long, ubyte*)* %handler to ubyte*
    call void %llva.os.register.traphandler(long 1, ubyte* %h)
    ret int 0
}
)").orDie();
    verifyOrDie(*m);
    {
        ExecutionContext ctx(*m);
        ctx.setPrivileged(false);
        Interpreter interp(ctx);
        auto r = interp.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::PrivilegeViolation);
        EXPECT_EQ(ctx.trapHandler(1), 0u);
    }
    {
        // Same rejection through the machine simulator.
        ExecutionContext ctx(*m);
        ctx.setPrivileged(false);
        CodeManager cm(*getTarget("x86"));
        MachineSimulator sim(ctx, cm);
        auto r = sim.run(m->getFunction("main"));
        EXPECT_EQ(r.trap, TrapKind::PrivilegeViolation);
        EXPECT_EQ(ctx.trapHandler(1), 0u);
    }

    ExecutionContext ctx2(*m);
    ctx2.setPrivileged(true);
    Interpreter interp2(ctx2);
    auto r = interp2.run(m->getFunction("main"));
    EXPECT_TRUE(r.ok());
    EXPECT_NE(ctx2.trapHandler(1), 0u);
}

TEST(SMC, RedirectAffectsFutureInvocationsOnly)
{
    // Section 3.4: "such a change only affects future invocations of
    // that function, not any currently active invocations."
    auto m = parseAssembly(R"(
declare void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
internal int %v1() {
entry:
    ret int 1
}
internal int %v2() {
entry:
    ret int 2
}
internal int %driver(int %depth) {
entry:
    %stop = setle int %depth, 0
    br bool %stop, label %base, label %rec
base:
    ret int 0
rec:
    ; replace v1 with v2, then call v1 again — future invocation
    ; must see v2.
    %t = cast int ()* %v1 to ubyte*
    %r = cast int ()* %v2 to ubyte*
    call void %llva.smc.replace.function(ubyte* %t, ubyte* %r)
    %after = call int %v1()
    ret int %after
}
int %main() {
entry:
    %before = call int %v1()
    %after = call int %driver(int 1)
    %s = shl int %before, ubyte 4
    %r = or int %s, %after
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    // before = 1 (original), after = 2 (replaced): 0x12 = 18.
    EXPECT_EQ(static_cast<int64_t>(interpret(*m).value.i), 18);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "x86").value.i),
              18);
    EXPECT_EQ(static_cast<int64_t>(simulate(*m, "sparc").value.i),
              18);
}

TEST(SMC, InvalidationForcesRetranslation)
{
    auto m = parseAssembly(R"(
internal int %target() {
entry:
    ret int 1
}
internal int %repl() {
entry:
    ret int 2
}
int %main() {
entry:
    %r = call int %target()
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    ExecutionContext ctx(*m);
    CodeManager cm(*getTarget("sparc"));
    MachineSimulator sim(ctx, cm);
    auto r1 = sim.run(m->getFunction("main"));
    EXPECT_EQ(static_cast<int64_t>(r1.value.i), 1);
    EXPECT_TRUE(cm.has(m->getFunction("target")));

    // Apply an SMC redirect from outside (as the intrinsic would).
    ctx.setRedirect(m->getFunction("target"),
                    m->getFunction("repl"));
    auto r2 = sim.run(m->getFunction("main"));
    EXPECT_EQ(static_cast<int64_t>(r2.value.i), 2);
}

constexpr const char *kInfiniteRecursion = R"(
internal int %inf(int %n) {
entry:
    %n1 = add int %n, 1
    %r = call int %inf(int %n1)
    ret int %r
}
int %main() {
entry:
    %r = call int %inf(int 0)
    ret int %r
}
)";

TEST(Exceptions, StackOverflowTrapsInsteadOfCrashing)
{
    auto m = parseAssembly(kInfiniteRecursion).orDie();
    verifyOrDie(*m);
    EXPECT_EQ(interpret(*m).trap, TrapKind::StackOverflow);
    EXPECT_EQ(simulate(*m, "sparc").trap, TrapKind::StackOverflow);
}

TEST(Exceptions, GuestRecursionTrapsBeforeSmallHostStackRunsOut)
{
    // The interpreter recurses on the host once per guest call. On a
    // thread whose stack cannot hold the guest depth cap's worth of
    // host frames, the headroom check must trap first.
    auto m = parseAssembly(kInfiniteRecursion).orDie();
    verifyOrDie(*m);
    struct Job
    {
        Module *m;
        TrapKind trap = TrapKind::None;
    } job{m.get()};
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setstacksize(&attr, 512 * 1024);
    pthread_t thread;
    auto body = [](void *p) -> void * {
        auto *j = static_cast<Job *>(p);
        j->trap = interpret(*j->m).trap;
        return nullptr;
    };
    ASSERT_EQ(pthread_create(&thread, &attr, body, &job), 0);
    pthread_join(thread, nullptr);
    pthread_attr_destroy(&attr);
    EXPECT_EQ(job.trap, TrapKind::StackOverflow);
}

TEST(Exceptions, BadIndirectCallTraps)
{
    auto m = parseAssembly(R"(
int %main() {
entry:
    %bogus = cast long 12345 to int ()*
    %r = call int %bogus()
    ret int %r
}
)").orDie();
    verifyOrDie(*m);
    EXPECT_EQ(interpret(*m).trap, TrapKind::BadIndirectCall);
    EXPECT_EQ(simulate(*m, "x86").trap, TrapKind::BadIndirectCall);
}
