/**
 * @file
 * Reference interpreter for LLVA virtual object code. Used as the
 * semantic oracle: the machine-code simulators must produce the same
 * outputs and return values for every program.
 *
 * Implements the paper's execution semantics directly: precise
 * exceptions with the per-instruction ExceptionsEnabled attribute
 * (Section 3.3), invoke/unwind stack unwinding, SMC redirects that
 * affect only future invocations (Section 3.4), and trap-handler
 * dispatch (Section 3.5).
 */

#ifndef LLVA_VM_INTERPRETER_H
#define LLVA_VM_INTERPRETER_H

#include "trace/profile.h" // EdgeProfile
#include "vm/runtime.h"

namespace llva {

/** Outcome of executing a function or whole program. */
struct ExecResult
{
    RtValue value;
    bool unwound = false; ///< unwind escaped past the entry function
    TrapKind trap = TrapKind::None;
    size_t instructionsExecuted = 0;
    /** Execution paused cooperatively (MachineSimulator only); the
     *  activation is suspended, not finished — value is not set. */
    bool paused = false;

    bool ok() const { return !unwound && trap == TrapKind::None; }
};

// EdgeProfile — the profile information the trace-formation
// machinery of Section 4.2 consumes, and what LLEE persists to
// offline storage — lives in trace/profile.h, keyed by stable block
// IDs so it survives CFG-mutating passes and process restarts.

class Interpreter
{
  public:
    explicit Interpreter(ExecutionContext &ctx)
        : ctx_(ctx)
    {}

    /** Collect an edge profile while executing (nullptr = off). */
    void setProfile(EdgeProfile *profile) { profile_ = profile; }

    /** Execute \p f with \p args; traps dispatch to registered
     *  handlers before the result is returned. */
    ExecResult run(const Function *f,
                   const std::vector<RtValue> &args = {});

    /**
     * Execute one function as a fallback from native execution (the
     * tier of last resort): allocas carve down from \p stackBase
     * (the caller's native stack pointer; 0 = top of stack), and
     * traps are returned to the caller undispatched — the machine
     * simulator owns trap-handler policy.
     */
    ExecResult invoke(const Function *f,
                      const std::vector<RtValue> &args,
                      uint64_t stackBase = 0);

    /** Cap on interpreted instructions (0 = unlimited). */
    void setInstructionLimit(size_t limit) { limit_ = limit; }

  private:
    struct CallOutcome
    {
        RtValue value;
        bool unwound = false;
        TrapKind trap = TrapKind::None;
    };

    CallOutcome call(const Function *f,
                     const std::vector<RtValue> &args, unsigned depth);

    ExecutionContext &ctx_;
    size_t executed_ = 0;
    size_t limit_ = 0;
    uint64_t stackBrk_ = 0;
    /** Host stack address below which a guest call traps (read on
     *  the thread that entered run()/invoke()). */
    uintptr_t stackFloor_ = 0;
    EdgeProfile *profile_ = nullptr;
};

} // namespace llva

#endif // LLVA_VM_INTERPRETER_H
