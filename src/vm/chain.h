/**
 * @file
 * Superblock chaining for the trace tier (ROADMAP item 3, after the
 * shape of JCPU's block-chaining VM). Once a function reaches
 * `-O2+traces`, its machine blocks — the trace-laid-out superblocks
 * — are flattened into arrays of (instruction, resolved handler)
 * pairs, and each side exit is linked directly to its successor's
 * chained form the first time it is taken. Hot paths then run
 * dispatch-loop-free: one indirect call per instruction, one
 * pointer hop per block transition, no map lookups and no name
 * hashing.
 *
 * Links are intra-function and patched lazily; invalidate()/SMC
 * retirement unlinks the whole chained function (every patched
 * side exit and fallthrough is severed) so no future execution can
 * chain into a retired body. The ChainedFunction itself is retired,
 * not destroyed, for the same reason MachineFunctions are: a live
 * activation may still be executing inside it.
 *
 * Thread safety: several simulator threads may execute through one
 * chain while another builds blocks, patches links, or unlinks it
 * (concurrent SMC replacement). Link fields are atomic pointers —
 * a reader either sees a fully built successor (release-published)
 * or null and falls back to the slow resolution path — and all
 * structural mutation (lazy block build, link patching, unlink) is
 * serialized by an internal mutex.
 */

#ifndef LLVA_VM_CHAIN_H
#define LLVA_VM_CHAIN_H

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "codegen/target.h"
#include "trace/profile.h"

namespace llva {

class ChainedFunction;
struct ChainedBlock;

/** One instruction slot of a chained superblock. */
struct ChainedInstr
{
    const MachineInstr *mi = nullptr;
    ExecFn fn = nullptr; ///< resolved at chain-build time
    /** Patched side-exit successor (atomic: raced by executors). */
    std::atomic<ChainedBlock *> link{nullptr};

    ChainedInstr() = default;
    ChainedInstr(const ChainedInstr &o)
        : mi(o.mi), fn(o.fn),
          link(o.link.load(std::memory_order_relaxed))
    {}
    ChainedInstr &
    operator=(const ChainedInstr &o)
    {
        mi = o.mi;
        fn = o.fn;
        link.store(o.link.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
        return *this;
    }
};

/** The chained form of one machine basic block. */
struct ChainedBlock
{
    MachineBasicBlock *mbb = nullptr;
    BlockId id; ///< cached stable profile ID
    std::vector<ChainedInstr> code;
    /** Patched fallthrough successor (atomic: raced by executors). */
    std::atomic<ChainedBlock *> fall{nullptr};
};

/**
 * The chained form of one trace-tier MachineFunction. Blocks are
 * built lazily on first entry; side exits and fallthroughs are
 * patched on first traversal and counted so tests (and -stats) can
 * observe the linking protocol.
 */
class ChainedFunction
{
  public:
    ChainedFunction(const MachineFunction *mf, Target &target);

    const MachineFunction *function() const { return mf_; }

    /** Chained form of \p mbb, building it on first use. */
    ChainedBlock *blockFor(MachineBasicBlock *mbb);

    /** Resolve + patch the fallthrough successor of \p cb (the next
     *  block in layout order, the elided-jump convention). */
    ChainedBlock *linkFallthrough(ChainedBlock *cb);

    /** Resolve + patch the side exit of \p ci to \p target. */
    ChainedBlock *linkBranch(ChainedInstr &ci,
                             MachineBasicBlock *target);

    /** Patched links currently live (side exits + fallthroughs). */
    size_t
    linkCount() const
    {
        return links_.load(std::memory_order_relaxed);
    }

    /** Sever every patched link (invalidate()/SMC retirement). */
    void unlink();

    bool
    unlinked() const
    {
        return unlinked_.load(std::memory_order_acquire);
    }

  private:
    /** blocks_[i] publication point for executor threads; built
     *  blocks are owned by owned_ under mu_. */
    ChainedBlock *buildBlock(MachineBasicBlock *mbb);

    const MachineFunction *mf_;
    Target &target_;
    std::mutex mu_; ///< serializes build/link/unlink
    std::vector<std::atomic<ChainedBlock *>> blocks_; ///< by index
    std::vector<std::unique_ptr<ChainedBlock>> owned_;
    std::atomic<size_t> links_{0};
    std::atomic<bool> unlinked_{false};
};

} // namespace llva

#endif // LLVA_VM_CHAIN_H
