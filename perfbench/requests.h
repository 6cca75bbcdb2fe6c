/**
 * @file
 * The requests the benchmark times, written against the public
 * entry points only: an LLEE execution (untraced, through
 * LLEE::execute), its traced replay (the same public calls
 * LLEE::execute makes, one span per layer), and a run of a program
 * from an already-warm CodeManager (hot_loop and live_update).
 */

#ifndef LLVA_PERFBENCH_REQUESTS_H
#define LLVA_PERFBENCH_REQUESTS_H

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "llee/llee.h"

namespace perfbench {

/** -O2, adaptive, the watermark the repo's other benches use. */
llva::CodeGenOptions benchOptions();

/** Profile sampling interval of the warm executors (1 in N block
 *  events, weight N), as in bench_throughput. */
constexpr uint64_t kSampleInterval = 32;

/** A workload program: generated once, then handed to the system
 *  under test only as bytecode. */
struct Program
{
    std::string name;
    int scale = 0;
    std::vector<uint8_t> bytecode;
    uint64_t hash = 0;
    size_t definedFunctions = 0;
    Reference ref;
    /** Encoded native bytes of the code that serves a request
     *  (Table 2's code size); measured untimed, traced runs only. */
    size_t nativeBytes = 0;
};

/** Build, optimize (-O2 link-time pipeline) and verify workload
 *  \p name at \p scale, serialize it, and run the oracle on the
 *  workload builder's module. \p corruptReference makes the recorded
 *  reference deliberately wrong (self-test of the failure path). */
Program makeProgram(const std::string &name, int scale,
                    bool corruptReference);

/** Decode a program's bytecode (the system's own reader). */
std::unique_ptr<llva::Module> decode(const Program &p);

/** Encoded size of the code a cold run of \p p leaves installed:
 *  an untimed run equivalent to lleeRequest without storage. */
size_t coldNativeBytes(const Program &p);

/** Outcome of one request. */
struct Outcome
{
    bool ok = false;       ///< output and value match the oracle
    bool threw = false;    ///< FatalError or other exception
    /** Right result, but the workload's precondition did not hold
     *  (a warm request that did not run entirely from the cache). */
    bool refused = false;
    llva::ExecResult exec;
    std::string output;
    size_t bytecodeBytes = 0; ///< bytes handed to readBytecode
    size_t cacheHits = 0;
    size_t cacheLookups = 0;
    size_t cacheInvalid = 0;
    size_t functionsTranslated = 0;
    uint64_t instructions = 0;
    uint64_t instructionsInterpreted = 0;
    size_t chainedFunctions = 0;
    uint64_t storageBytesRead = 0;
};

/** Untraced: LLEE::execute on a fresh LLEE over \p storage. */
Outcome lleeRequest(const Program &p, llva::StorageAPI *storage);

/**
 * Traced replay of lleeRequest: the calls LLEE::execute makes, in
 * its order — readBytecode; per function storage read →
 * openTranslation → readMachineFunction → install; readProfile;
 * ExecutionContext; MachineSimulator::run; write-back; destruction
 * — each inside a span on \p tracer.
 */
Outcome lleeReplay(const Program &p, llva::StorageAPI *storage,
                   Tracer &tracer);

/** Where a warm run's profile goes. */
enum class ProfileUse
{
    /** Record straight into the manager's attached profile. */
    Attached,
    /** Record thread-locally, merge after the run (concurrent
     *  executors sharing one manager). */
    LocalMerged,
};

/**
 * One run of main from \p cm's warm cache: ExecutionContext
 * construction, MachineSimulator::run, teardown. With \p tracer,
 * each phase is a span. \p sharedManager marks a manager other
 * threads mutate: the context is built under its reader lock, and
 * translate time is not read (another thread owns it).
 */
Outcome warmRun(const llva::Module &m, llva::CodeManager &cm,
                llva::EdgeProfile *attached, ProfileUse use,
                bool sharedManager, const Reference &ref,
                Tracer *tracer);

} // namespace perfbench

#endif // LLVA_PERFBENCH_REQUESTS_H
