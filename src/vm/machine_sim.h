/**
 * @file
 * MachineSimulator: the simulated hardware processor. Executes
 * translated machine code (x86-like or sparc-like) against the same
 * ExecutionContext as the interpreter, translating callees on demand
 * through the CodeManager — i.e. this is the JIT execution engine of
 * paper Section 5.2, with the hardware replaced by a functional
 * simulator so translated code actually runs and can be verified.
 *
 * Dispatch is direct-threaded: each instruction's handler is
 * resolved once and cached on it, and the live trace-tier body of a
 * function runs as chained superblocks (code_manager.h).
 *
 * Live-update support: every activation pins the CodeManager's
 * reclamation epoch for its duration (its call frames hold raw
 * MachineFunction pointers into bodies that a concurrent SMC
 * replacement may retire). Execution can also be paused
 * cooperatively — at an instruction-count watermark (setPauseAt) or
 * on request from another thread (requestPause) — which suspends
 * the activation at a block boundary; the suspended state is
 * resumable in-process (resume()) or serializable into a VM
 * checkpoint (serializeSuspended/restoreSuspended).
 */

#ifndef LLVA_VM_MACHINE_SIM_H
#define LLVA_VM_MACHINE_SIM_H

#include <atomic>

#include "support/byte_io.h"
#include "vm/code_manager.h"
#include "vm/interpreter.h" // ExecResult
#include "vm/runtime.h"

namespace llva {

class MachineSimulator
{
  public:
    MachineSimulator(ExecutionContext &ctx, CodeManager &code)
        : ctx_(ctx), code_(code)
    {}

    /** Releases the epoch pin of a still-suspended activation. */
    ~MachineSimulator();

    /** Run \p f to completion (JIT-translating on demand). */
    ExecResult run(const Function *f,
                   const std::vector<RtValue> &args = {});

    /**
     * Sampled profiling: record every Nth block-entry event with
     * weight N (1 = exact counting, the default). Estimated totals
     * stay in execution units, so the promotion watermark needs no
     * rescaling, at 1/N the profile-map traffic.
     */
    void
    setProfileSampleInterval(uint64_t n)
    {
        sampleInterval_ = n ? n : 1;
        sampleCountdown_ = sampleInterval_;
    }

    /**
     * Collect an edge profile of the *translated* code while
     * executing (nullptr = off). Counts are keyed by stable block
     * IDs — machine blocks carry their source blocks' names through
     * instruction selection and the mcode cache — so the same
     * profile can seed trace formation on the IR and be persisted
     * across runs. Every profile event also gives the CodeManager a
     * chance to promote the hot function to the trace tier.
     */
    void setProfile(EdgeProfile *profile) { profile_ = profile; }

    /** Machine instructions executed across all run() calls
     *  (includes instructions interpreted via tier fallback). */
    uint64_t instructionsExecuted() const { return executed_; }

    /** Instructions executed by the interpreter tier of last resort
     *  on behalf of functions with no native translation. */
    uint64_t instructionsInterpreted() const { return interpreted_; }

    /** Cap on executed machine instructions (0 = unlimited). */
    void setInstructionLimit(uint64_t limit) { limit_ = limit; }

    // --- Cooperative pause / suspend --------------------------------------

    /**
     * Arm a pause once the cumulative executed-instruction count
     * reaches \p n (absolute, against instructionsExecuted(); 0
     * disarms). The pause lands at the next dispatch boundary —
     * run() then returns with ExecResult::paused set and the
     * activation saved for resume(). Instructions interpreted via
     * tier fallback are not pause points (the interpreter runs its
     * call to completion).
     */
    void
    setPauseAt(uint64_t n)
    {
        pauseAt_.store(n, std::memory_order_relaxed);
    }

    /** Request a pause from another thread (same landing rules as
     *  setPauseAt; cleared when the pause is taken). */
    void
    requestPause()
    {
        pauseFlag_.store(true, std::memory_order_relaxed);
    }

    /** True while an activation is suspended awaiting resume(). */
    bool paused() const { return suspended_.valid; }

    /** Continue a paused activation to completion (or to the next
     *  pause). Only valid while paused(). */
    ExecResult resume();

    /**
     * Serialize the suspended activation (registers, call frames,
     * current position) for a VM checkpoint. Frames are recorded by
     * function name + block/instruction index, validated against
     * block and instruction counts so a restore onto retranslated
     * code detects any shape mismatch. Only valid while paused().
     */
    void serializeSuspended(ByteWriter &w) const;

    /**
     * Rebuild a suspended activation from checkpoint bytes:
     * functions are resolved by name through the context's module
     * and (re)translated via the CodeManager, which must produce
     * bodies of the recorded shape — translation is deterministic
     * per (target, tier). Returns false (leaving the simulator not
     * paused) on any mismatch.
     */
    bool restoreSuspended(ByteReader &r);

  private:
    struct Frame
    {
        const MachineFunction *mf = nullptr;
        MachineBasicBlock *block = nullptr;
        size_t index = 0;      ///< instruction index of the call site
        uint64_t spAtCall = 0; ///< sp when the call was made
    };

    /** A paused activation, held between run() and resume(). */
    struct Suspended
    {
        bool valid = false;
        const Function *f = nullptr;
        SimState state;
        std::vector<Frame> frames;
        const MachineFunction *mf = nullptr;
        MachineBasicBlock *block = nullptr;
        size_t index = 0;
    };

    ExecResult runInternal(const Function *f,
                           const std::vector<RtValue> &args);

    /** Interpret \p f (no native translation) with allocas carved
     *  below \p stackBase; merges instruction accounting. */
    ExecResult interpretFallback(const Function *f,
                                 const std::vector<RtValue> &args,
                                 uint64_t stackBase);

    ExecutionContext &ctx_;
    CodeManager &code_;
    uint64_t executed_ = 0;
    uint64_t interpreted_ = 0;
    uint64_t limit_ = 0;
    EdgeProfile *profile_ = nullptr;
    uint64_t sampleInterval_ = 1;
    uint64_t sampleCountdown_ = 1;

    // Pause/suspend state. The flag and watermark are atomics so a
    // chaos/control thread can arm them mid-run; everything else is
    // touched only by the executing thread.
    std::atomic<bool> pauseFlag_{false};
    std::atomic<uint64_t> pauseAt_{0};
    Suspended suspended_;
    bool resuming_ = false;
    uint64_t pausedPin_ = 0; ///< epoch pin carried across a pause
    bool hasPausedPin_ = false;
};

} // namespace llva

#endif // LLVA_VM_MACHINE_SIM_H
