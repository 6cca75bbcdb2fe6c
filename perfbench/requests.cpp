#include "requests.h"

#include <map>

#include "bytecode/bytecode.h"
#include "llee/envelope.h"
#include "llee/mcode_io.h"
#include "support/error.h"
#include "support/hashing.h"
#include "support/thread_pool.h"
#include "trace/profile.h"
#include "transforms/pass.h"
#include "verifier/verifier.h"
#include "workloads/workloads.h"

using namespace llva;

namespace perfbench {

namespace {

/** LLEE's private cache name; the replay must read the same
 *  entries LLEE::execute wrote. */
constexpr const char *kCacheName = "llee-native-cache";

Target &
x86()
{
    return *getTarget("x86");
}

/** The compatibility key LLEE stamps on every cache entry (mirrors
 *  the file-local compatKey in llee.cpp). */
TranslationKey
compatKey(const CodeGenOptions &opts, const std::string &fnName,
          uint64_t moduleHash)
{
    TranslationKey k;
    k.targetName = x86().name();
    k.allocator = static_cast<uint8_t>(opts.allocator);
    k.coalesce = opts.coalesce ? 1 : 0;
    k.optLevel = opts.optLevel;
    k.sourceHash =
        fnv1a(reinterpret_cast<const uint8_t *>(fnName.data()),
              fnName.size(), moduleHash);
    return k;
}

} // namespace

CodeGenOptions
benchOptions()
{
    CodeGenOptions opts;
    opts.optLevel = 2;
    opts.adaptive = true;
    opts.promoteWatermark = 500;
    return opts;
}

Program
makeProgram(const std::string &name, int scale, bool corruptReference)
{
    Program p;
    p.name = name;
    p.scale = scale;
    std::unique_ptr<Module> m = buildWorkload(name, scale);
    PassManager pm;
    addStandardPasses(pm, 2);
    pm.run(*m);
    verifyOrDie(*m);
    p.bytecode = writeBytecode(*m);
    p.hash = fnv1a(p.bytecode);
    for (const auto &f : m->functions())
        if (!f->isDeclaration())
            ++p.definedFunctions;
    p.ref = interpretReference(*m);
    if (corruptReference)
        p.ref.output += "<deliberately wrong reference>";
    return p;
}

std::unique_ptr<Module>
decode(const Program &p)
{
    return readBytecode(p.bytecode).orDie();
}

size_t
coldNativeBytes(const Program &p)
{
    const CodeGenOptions opts = benchOptions();
    std::unique_ptr<Module> m = decode(p);
    EdgeProfile profile;
    CodeManager cm(x86(), opts);
    cm.setAdaptive(&profile, opts.promoteWatermark);
    ExecutionContext ctx(*m);
    MachineSimulator sim(ctx, cm);
    sim.setProfile(&profile);
    sim.run(m->getFunction("main"));
    return cm.totalEncodedBytes();
}

Outcome
lleeRequest(const Program &p, StorageAPI *storage)
{
    Outcome out;
    try {
        LLEE llee(x86(), storage, benchOptions());
        LLEEResult r = llee.execute(p.bytecode);
        out.exec = r.exec;
        out.output = std::move(r.output);
        out.cacheHits = r.cacheHits;
        out.cacheLookups = storage ? r.cacheHits + r.cacheMisses : 0;
        out.cacheInvalid = r.cacheInvalid;
        out.functionsTranslated = r.functionsTranslatedOnline;
        out.instructions = r.machineInstructionsExecuted;
        out.ok = matches(out.exec, out.output, p.ref);
    } catch (const std::exception &) {
        out.threw = true;
    }
    return out;
}

Outcome
lleeReplay(const Program &p, StorageAPI *inner, Tracer &tracer)
{
    const CodeGenOptions opts = benchOptions();
    Outcome out;
    ScopedSpan request(&tracer, "request");
    std::unique_ptr<TracedStorage> storage;
    if (inner)
        storage = std::make_unique<TracedStorage>(*inner, tracer);
    try {
        std::unique_ptr<LLEE> llee;
        std::unique_ptr<Module> m;
        std::unique_ptr<CodeManager> cm;
        std::unique_ptr<EdgeProfile> profile;
        std::unique_ptr<ThreadPool> pool;
        std::unique_ptr<ExecutionContext> ctx;
        std::unique_ptr<MachineSimulator> sim;
        uint64_t moduleHash = 0;
        std::string progKey;
        {
            ScopedSpan s(&tracer, "llee.setup");
            llee = std::make_unique<LLEE>(x86(), storage.get(), opts);
            moduleHash = fnv1a(p.bytecode);
            progKey = LLEE::programKey(p.bytecode);
        }
        {
            ScopedSpan s(&tracer, "bytecode.read");
            m = readBytecode(p.bytecode).orDie();
            out.bytecodeBytes = p.bytecode.size();
        }
        {
            ScopedSpan s(&tracer, "llee.setup");
            cm = std::make_unique<CodeManager>(x86(), opts);
            profile = std::make_unique<EdgeProfile>();
            pool = std::make_unique<ThreadPool>(1);
        }
        {
            ScopedSpan s(&tracer, "llee.profile_load");
            llee->readProfile(p.bytecode, *profile);
        }
        cm->setAdaptive(profile.get(), opts.promoteWatermark,
                        pool.get());

        std::map<const Function *, uint8_t> loadedTier;
        for (const auto &f : m->functions()) {
            if (f->isDeclaration() || !storage)
                continue;
            ScopedSpan s(&tracer, "llee.cache_load");
            ++out.cacheLookups;
            std::vector<uint8_t> cached;
            if (!storage->read(kCacheName,
                               LLEE::translationKey(progKey, *f, x86(),
                                                    opts),
                               cached))
                continue;
            std::vector<uint8_t> payload;
            uint8_t tier = 0;
            if (openTranslation(cached,
                                compatKey(opts, f->name(), moduleHash),
                                payload, &tier) != EnvelopeStatus::Ok) {
                ++out.cacheInvalid;
                continue;
            }
            if (tier == kTierInterpreter && payload.empty()) {
                cm->markInterpreted(f.get());
                ++out.cacheHits;
                continue;
            }
            auto mf = readMachineFunction(payload, *m, f.get());
            if (!mf.ok()) {
                ++out.cacheInvalid;
                continue;
            }
            cm->install(f.get(), mf.take(), tier);
            loadedTier[f.get()] = tier;
            ++out.cacheHits;
        }

        {
            ScopedSpan s(&tracer, "vm.setup");
            ctx = std::make_unique<ExecutionContext>(*m);
            sim = std::make_unique<MachineSimulator>(*ctx, *cm);
            sim->setProfile(profile.get());
        }
        const Function *entry = m->getFunction("main");
        {
            ScopedSpan s(&tracer, "vm.execute");
            double t0 = nowMs();
            double x0 = cm->totalTranslateSeconds();
            out.exec = sim->run(entry);
            double ms = (cm->totalTranslateSeconds() - x0) * 1e3;
            tracer.add("codegen.translate", t0, t0 + ms);
        }
        out.output = ctx->output();
        out.functionsTranslated = cm->functionsTranslated();
        out.instructions = sim->instructionsExecuted();
        out.instructionsInterpreted = sim->instructionsInterpreted();
        out.chainedFunctions = cm->chainedFunctions();

        if (storage) {
            // LLEE's write-back: new or promoted translations, then
            // the accumulated profile.
            ScopedSpan s(&tracer, "llee.writeback");
            for (const auto &f : m->functions()) {
                if (f->isDeclaration())
                    continue;
                const bool interp = cm->isInterpreted(f.get());
                if (!interp && !cm->has(f.get()))
                    continue;
                uint8_t achieved =
                    interp ? kTierInterpreter : cm->tierOf(f.get());
                auto lt = loadedTier.find(f.get());
                const bool promoted =
                    achieved == kTierTrace &&
                    (lt == loadedTier.end() || lt->second != kTierTrace);
                std::string name =
                    LLEE::translationKey(progKey, *f, x86(), opts);
                if (!promoted &&
                    storage->timestamp(kCacheName, name) != 0)
                    continue;
                TranslationKey k =
                    compatKey(opts, f->name(), moduleHash);
                k.tier = achieved;
                if (achieved == kTierTrace)
                    k.profileHash = profileHash(*profile);
                storage->write(
                    kCacheName, name,
                    sealTranslation(
                        k, interp ? std::vector<uint8_t>{}
                                  : writeMachineFunction(
                                        *cm->get(f.get()))));
            }
            if (!profile->empty())
                llee->writeProfile(p.bytecode, *profile, *m);
        }

        ScopedSpan s(&tracer, "vm.teardown");
        sim.reset();
        ctx.reset();
        pool.reset();
        cm.reset();
        profile.reset();
        m.reset();
        llee.reset();
    } catch (const std::exception &) {
        out.threw = true;
    }
    if (storage)
        out.storageBytesRead = storage->bytesRead();
    out.ok = !out.threw && matches(out.exec, out.output, p.ref);
    return out;
}

Outcome
warmRun(const Module &m, CodeManager &cm, EdgeProfile *attached,
        ProfileUse use, bool sharedManager, const Reference &ref,
        Tracer *tracer)
{
    Outcome out;
    ScopedSpan request(tracer, "request");
    try {
        std::unique_ptr<ExecutionContext> ctx;
        std::unique_ptr<MachineSimulator> sim;
        EdgeProfile local;
        {
            ScopedSpan s(tracer, "vm.setup");
            if (sharedManager) {
                // Context construction walks module constants that
                // a concurrent translation may be optimizing in
                // place; take the reader lock the interpreter tier
                // takes for the same reason.
                auto lock = cm.readLock();
                ctx = std::make_unique<ExecutionContext>(m);
            } else {
                ctx = std::make_unique<ExecutionContext>(m);
            }
            sim = std::make_unique<MachineSimulator>(*ctx, cm);
            sim->setProfile(use == ProfileUse::Attached ? attached
                                                        : &local);
            sim->setProfileSampleInterval(kSampleInterval);
        }
        {
            ScopedSpan s(tracer, "vm.execute");
            double t0 = nowMs();
            double x0 = sharedManager ? 0 : cm.totalTranslateSeconds();
            size_t n0 = sharedManager ? 0 : cm.functionsTranslated();
            out.exec = sim->run(m.getFunction("main"));
            if (!sharedManager) {
                out.functionsTranslated = cm.functionsTranslated() - n0;
                double ms = (cm.totalTranslateSeconds() - x0) * 1e3;
                if (tracer)
                    tracer->add("codegen.translate", t0, t0 + ms);
            }
        }
        out.output = ctx->output();
        out.instructions = sim->instructionsExecuted();
        out.instructionsInterpreted = sim->instructionsInterpreted();
        out.chainedFunctions = cm.chainedFunctions();
        ScopedSpan s(tracer, "vm.teardown");
        if (use == ProfileUse::LocalMerged)
            cm.mergeProfile(local);
        sim.reset();
        ctx.reset();
    } catch (const std::exception &) {
        out.threw = true;
    }
    out.ok = !out.threw && matches(out.exec, out.output, ref);
    return out;
}

} // namespace perfbench
