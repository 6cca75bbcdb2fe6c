/**
 * @file
 * Simulator dispatch and superblock chaining tests: the simulator's
 * runtime edge profile must count every block exactly as the
 * interpreter does on every workload, chains must link lazily and
 * unlink on invalidate()/SMC retirement, sampled profiling must
 * estimate exact counts, and trap-handler outcomes and exact
 * instruction budgets get regression coverage. The operand-
 * specialized handlers are checked shape by shape against the
 * generic handlers they replace. (Values and output of every
 * workload, target and tier are checked against the interpreter in
 * test_differential.cpp.)
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <set>

#include "bytecode/bytecode.h"
#include "llee/envelope.h"
#include "llee/llee.h"
#include "parser/parser.h"
#include "support/statistic.h"
#include "target/common/common_target.h"
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
        CodeGenOptions opts, uint64_t sampleInterval)
{
    LLEE llee(*getTarget(target), nullptr, opts);
    llee.setProfileSampleInterval(sampleInterval);
    return llee.execute(bc);
}

} // namespace

// --- Runtime profile vs the interpreter's ---------------------------

class DispatchSuite : public ::testing::TestWithParam<std::string>
{};

TEST_P(DispatchSuite, BlockCountsMatchTheInterpreter)
{
    // At -O0 every IR block survives translation under its own name,
    // so with exact counting the simulator's block-entry profile
    // (IDs hashed once at translation time) must equal the
    // interpreter's (IDs hashed from the IR) count for count.
    // Instruction selection splits each invoke's normal and unwind
    // edges into blocks of their own; only those may appear on the
    // simulator side alone.
    auto m = buildWorkload(GetParam(), 1);
    verifyOrDie(*m);

    EdgeProfile ref;
    {
        ExecutionContext ctx(*m);
        Interpreter interp(ctx);
        interp.setProfile(&ref);
        interp.setInstructionLimit(200000000);
        ASSERT_TRUE(interp.run(m->getFunction("main")).ok());
    }
    ASSERT_FALSE(ref.empty());

    std::set<BlockId> known;
    for (const auto &f : m->functions()) {
        for (const auto &bb : *f) {
            known.insert(blockId(bb.get()));
            for (const char *suffix : {".invret", ".invuw"})
                known.insert({functionId(f->name()),
                              fnv1a(bb->name() + suffix)});
        }
    }

    for (const std::string &target : targetNames()) {
        CodeGenOptions opts;
        opts.optLevel = 0;
        ExecutionContext ctx(*m);
        CodeManager cm(*getTarget(target), opts);
        MachineSimulator sim(ctx, cm);
        EdgeProfile profile;
        sim.setProfile(&profile);
        ASSERT_TRUE(sim.run(m->getFunction("main")).ok()) << target;

        for (const auto &f : m->functions())
            for (const auto &bb : *f)
                EXPECT_EQ(profile.blockCount(bb.get()),
                          ref.blockCount(bb.get()))
                    << target << " " << f->name() << ":" << bb->name();
        for (const auto &[id, count] : profile.blocks)
            EXPECT_TRUE(known.count(id))
                << target << ": block " << id.block << " of function "
                << id.fn << " (" << count
                << " entries) has no IR counterpart";
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
    // to future calls.
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

    ExecutionContext ctx(*m);
    CodeManager cm(*getTarget("x86"), adaptiveOpts());
    EdgeProfile profile;
    cm.setAdaptive(&profile, 500);
    MachineSimulator sim(ctx, cm);
    sim.setProfile(&profile);

    auto r = sim.run(m->getFunction("main"));
    ASSERT_TRUE(r.ok());
    // Future invocations see the replacement...
    EXPECT_EQ(static_cast<int64_t>(r.value.i), 7);
    ASSERT_GE(cm.promotions(), 1u);
    // ...and the promoted body's chain was built, then severed by
    // the SMC retirement.
    EXPECT_GE(cm.chainsUnlinked(), 1u);
}

// --- Sampled, decaying profiling -------------------------------------

TEST(SampledProfile, WeightedSamplesEstimateExactCounts)
{
    auto m = parseAssembly(kHotCalls).orDie();
    verifyOrDie(*m);
    auto bc = writeBytecode(*m);

    LLEEResult exact = runLLEE(bc, "x86", adaptiveOpts(), 1);
    ASSERT_TRUE(exact.exec.ok());

    constexpr uint64_t kInterval = 8;
    LLEEResult sampled = runLLEE(bc, "x86", adaptiveOpts(), kInterval);
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

// --- Operand-specialized handlers vs their generic handlers ----------

namespace {

constexpr uint64_t kSpecMemSize = 64 << 10;

/** One instruction shape: opcode, operand kinds and width. */
struct Shape
{
    std::string name;
    uint16_t opcode;
    /** Per operand: 'd'/'r' integer register, 'f' FP register, 'i'
     *  immediate, 's' stack-slot offset, 'g' global. */
    std::string ops;
    uint8_t width = 8;
    bool signExt = false;
};

/** The instruction shapes every target specializes. */
std::vector<Shape>
specializedShapes(const std::string &target, uint16_t base)
{
    using namespace cmn;
    std::vector<Shape> v = {
        {"copy r<-r", kOpCopy, "dr"},
        {"copy r<-imm", kOpCopy, "di"},
        {"spill", kOpSpill, "rs"},
        {"reload", kOpReload, "ds"},
        {"storestack", uint16_t(base | kStoreStack), "rs"},
        {"loadstack", uint16_t(base | kLoadStack), "ds"},
        {"load64", uint16_t(base | kLoad), "dr"},
        {"store64", uint16_t(base | kStore), "rr"},
    };
    static const char *const alu[] = {"add", "sub", "mul", "div",
                                      "rem", "and", "or",  "xor",
                                      "shl", "shr"};
    for (unsigned op : {kAdd, kSub, kMul, kAnd, kOr, kXor, kShl})
        for (const char *b : {"drr", "dri"})
            v.push_back({std::string(alu[op]) + "64 " + b,
                         uint16_t(base | op), b});
    static const char *const cc[] = {"eq", "ne", "lt",
                                     "gt", "le", "ge"};
    // Flags-style setcc (x86) reads only its def; the extra operands
    // give the compare-into-register form its sources.
    for (unsigned op = kSetEq; op <= kSetGe; ++op)
        for (bool sign : {false, true})
            for (const char *b : {"drr", "dri"})
                v.push_back({std::string("set") + cc[op - kSetEq] +
                                 (sign ? "s " : "u ") + b,
                             uint16_t(base | op), b, 8, sign});
    if (target == "x86") // the flags-setting integer compare
        for (const char *b : {"rr", "ri"})
            v.push_back({std::string("cmp64 ") + b,
                         uint16_t(base | kTargetOp0), b});
    return v;
}

/** Shapes that must keep the generic handler. */
std::vector<Shape>
genericShapes(uint16_t base)
{
    using namespace cmn;
    return {
        {"copy f<-f", kOpCopy, "ff"},
        {"copy r<-global", kOpCopy, "dg"},
        {"spill fp", kOpSpill, "fs"},
        {"reload fp", kOpReload, "fs"},
        {"add32", uint16_t(base | kAdd), "drr", 4},
        {"div64", uint16_t(base | kDiv), "drr"},
        {"rem64", uint16_t(base | kRem), "dri"},
        {"shr64", uint16_t(base | kShr), "drr", 8, true},
        {"add64 r<-global", uint16_t(base | kAdd), "drg"},
        {"load32", uint16_t(base | kLoad), "dr", 4, true},
        {"loadfp", uint16_t(base | kLoad), "fr"},
        {"store16", uint16_t(base | kStore), "rr", 2},
        {"storefp", uint16_t(base | kStore), "fr"},
    };
}

/** A fresh instruction of \p shape with random registers and
 *  immediates; 'r' registers may alias each other and the def. */
std::unique_ptr<MachineInstr>
makeInstr(const Shape &shape, bool trapEnabled, std::mt19937_64 &rng)
{
    std::vector<MOperand> ops;
    for (char k : shape.ops) {
        switch (k) {
          case 'd':
          case 'r': ops.push_back(MOperand::makeReg(rng() % 32)); break;
          case 'f':
            ops.push_back(MOperand::makeReg(32 + rng() % 32));
            break;
          case 'i':
            // Small, negative and full-width immediates.
            ops.push_back(MOperand::makeImm(
                rng() % 2 ? int64_t(rng() % 128) - 64
                          : int64_t(rng())));
            break;
          case 's':
            ops.push_back(
                MOperand::makeImm(int64_t(rng() % 512) - 256));
            break;
          case 'g':
            ops.push_back(MOperand::makeGlobal(nullptr));
            break;
        }
    }
    auto mi = std::make_unique<MachineInstr>(
        shape.opcode, std::move(ops),
        shape.ops[0] == 'd' || shape.ops[0] == 'f' ? 1u : 0u);
    mi->width = shape.width;
    mi->signExt = shape.signExt;
    mi->trapEnabled = trapEnabled;
    return mi;
}

/** An address that is valid, in the null guard page, straddling the
 *  end of memory, or wrapping past 2^64. */
uint64_t
randomAddress(std::mt19937_64 &rng)
{
    switch (rng() % 6) {
      case 0: return 4096 + rng() % (kSpecMemSize - 4096 - 8);
      case 1: return 4096 + 8 * (rng() % 1024);
      case 2: return rng() % 4096;
      case 3: return kSpecMemSize - 8 + rng() % 8;
      case 4: return ~uint64_t(0) - rng() % 8;
      default: return rng();
    }
}

/** Randomize registers, condition state and sp; every register holds
 *  either an address or arbitrary bits. */
void
randomizeState(SimState &s, std::mt19937_64 &rng)
{
    for (auto &r : s.ireg)
        r = rng() % 2 ? randomAddress(rng) : rng();
    for (auto &f : s.freg)
        f = double(int64_t(rng() % 2001) - 1000) / 8;
    s.ccSA = int64_t(rng());
    s.ccSB = rng() % 4 ? int64_t(rng()) : s.ccSA;
    s.ccUA = rng();
    s.ccUB = rng() % 4 ? rng() : s.ccUA;
    s.ccFA = double(rng() % 7);
    s.ccFB = double(rng() % 7);
    s.ccFP = rng() % 4 == 0;
    s.sp = randomAddress(rng);
}

std::vector<uint8_t>
memoryImage(const Memory &mem)
{
    ByteWriter w;
    mem.serialize(w);
    return w.bytes();
}

void
expectSameState(const SimState &a, const SimState &b,
                const std::string &what)
{
    EXPECT_EQ(a.ireg, b.ireg) << what;
    EXPECT_EQ(0, std::memcmp(a.freg.data(), b.freg.data(),
                             sizeof(a.freg)))
        << what;
    EXPECT_EQ(a.ccSA, b.ccSA) << what;
    EXPECT_EQ(a.ccSB, b.ccSB) << what;
    EXPECT_EQ(a.ccUA, b.ccUA) << what;
    EXPECT_EQ(a.ccUB, b.ccUB) << what;
    EXPECT_EQ(a.ccFP, b.ccFP) << what;
    EXPECT_EQ(a.sp, b.sp) << what;
    EXPECT_EQ(a.next, b.next) << what;
    EXPECT_EQ(a.trapKind, b.trapKind) << what;
}

} // namespace

TEST(SpecializedHandlers, MatchGenericHandlersOnRandomStates)
{
    std::mt19937_64 rng(20031203);
    for (const std::string &name : targetNames()) {
        auto *target =
            dynamic_cast<const cmn::CommonTarget *>(getTarget(name));
        ASSERT_NE(target, nullptr) << name;
        // One memory per side, kept identical across trials by the
        // handlers under test.
        Memory memSpec(kSpecMemSize), memGen(kSpecMemSize);
        for (int i = 0; i < 256; ++i) {
            uint64_t addr = 4096 + rng() % (kSpecMemSize - 4096 - 8);
            uint64_t v = rng();
            memSpec.writeRaw(addr, &v, 8);
            memGen.writeRaw(addr, &v, 8);
        }
        for (const Shape &shape :
             specializedShapes(name, target->opcodeBase())) {
            for (bool trapEnabled : {false, true}) {
                std::string what = name + " " + shape.name +
                                   (trapEnabled ? " ee" : " !ee");
                for (int trial = 0; trial < 200; ++trial) {
                    auto mi = makeInstr(shape, trapEnabled, rng);
                    ExecFn spec = target->handlerFor(*mi);
                    ExecFn gen = target->genericHandlerFor(*mi);
                    // A silent fallback to the generic handler would
                    // make the comparison below vacuous.
                    ASSERT_NE(spec, gen) << what;

                    SimState a;
                    randomizeState(a, rng);
                    SimState b = a;
                    a.mem = &memSpec;
                    b.mem = &memGen;
                    a.next = b.next = SimState::Next::Fall;
                    spec(*mi, a);
                    gen(*mi, b);
                    expectSameState(a, b, what);
                    EXPECT_EQ(memSpec.lastTrap(), TrapKind::None)
                        << what;
                    EXPECT_EQ(memGen.lastTrap(), TrapKind::None)
                        << what;
                }
                // Whole images, once per batch: a divergent store
                // would have to be overwritten identically on both
                // sides to hide.
                ASSERT_EQ(memoryImage(memSpec), memoryImage(memGen))
                    << what;
            }
        }
        for (const Shape &shape : genericShapes(target->opcodeBase())) {
            auto mi = makeInstr(shape, true, rng);
            EXPECT_EQ(target->handlerFor(*mi),
                      target->genericHandlerFor(*mi))
                << name << " " << shape.name;
        }
    }
}
