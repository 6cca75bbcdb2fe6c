/**
 * @file
 * The simulated physical memory of the I-ISA machine: one flat
 * little-endian address space shared by the LLVA interpreter and the
 * machine-code simulators, so results are directly comparable across
 * execution engines.
 *
 * Layout: a null guard page, a code stub region (function
 * "addresses" for indirect calls), the global data image, the heap,
 * and a downward-growing stack at the top.
 *
 * The image is one demand-zero anonymous mapping: the kernel supplies
 * a zero page on first touch, so creating a Memory costs no more than
 * the pages the program actually uses. A one-bit-per-4-KiB-page dirty
 * bitmap records every page that may hold a non-zero byte; it bounds
 * checkpoint serialize/restore to the touched pages.
 */

#ifndef LLVA_CODEGEN_MEMORY_H
#define LLVA_CODEGEN_MEMORY_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/module.h"
#include "support/byte_io.h"

namespace llva {

/** Kinds of runtime traps (paper Section 3.3 exception conditions). */
enum class TrapKind : uint8_t {
    None,
    NullAccess,
    OutOfBounds,
    Misaligned,
    DivByZero,
    StackOverflow,
    OutOfMemory,
    BadIndirectCall,
    PrivilegeViolation,
};

const char *trapKindName(TrapKind k);

class Memory
{
  public:
    explicit Memory(uint64_t size = 64ull << 20);
    ~Memory();

    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    uint64_t size() const { return size_; }

    // --- Checked access (sets trap on failure) -------------------------

    // Defined inline: every simulated load, store, spill and reload
    // lands here, so the 1/2/4/8-byte copies must fold into the
    // caller.

    bool
    load(uint64_t addr, unsigned width, uint64_t &out)
    {
        if (!check(addr, width))
            return false;
        out = readInt(bytes_ + addr, width);
        return true;
    }

    bool
    store(uint64_t addr, unsigned width, uint64_t value)
    {
        if (!check(addr, width))
            return false;
        markDirtySmall(addr, width);
        writeInt(bytes_ + addr, width, value);
        return true;
    }

    bool
    loadFP(uint64_t addr, bool fp32, double &out)
    {
        if (!check(addr, fp32 ? 4 : 8))
            return false;
        if (fp32) {
            float f;
            std::memcpy(&f, bytes_ + addr, 4);
            out = f;
        } else {
            std::memcpy(&out, bytes_ + addr, 8);
        }
        return true;
    }

    bool
    storeFP(uint64_t addr, bool fp32, double value)
    {
        if (!check(addr, fp32 ? 4 : 8))
            return false;
        markDirtySmall(addr, fp32 ? 4 : 8);
        if (fp32) {
            float f = static_cast<float>(value);
            std::memcpy(bytes_ + addr, &f, 4);
        } else {
            std::memcpy(bytes_ + addr, &value, 8);
        }
        return true;
    }

    TrapKind lastTrap() const { return trap_; }
    void clearTrap() { trap_ = TrapKind::None; }

    // --- Unchecked raw access (for loaders/runtime) ---------------------

    void writeRaw(uint64_t addr, const void *data, uint64_t n);
    std::string readCString(uint64_t addr, uint64_t max = 1 << 20);

    // --- Allocation ------------------------------------------------------

    /** Bump-allocate in the global data region (image layout). */
    uint64_t allocateGlobal(uint64_t size, uint64_t align);

    /** Heap allocation with a first-fit free list. */
    uint64_t malloc(uint64_t size);
    void free(uint64_t addr);

    /** Top-of-stack address (stacks grow downward from here). */
    uint64_t stackTop() const { return size_; }
    uint64_t stackLimit() const { return stackLimit_; }

    /** Function "addresses" for indirect calls. */
    uint64_t functionAddress(const Function *f);
    const Function *functionAt(uint64_t addr) const;

    /** Total bytes handed out by malloc (statistics). */
    uint64_t heapBytesAllocated() const { return heapAllocated_; }

    // --- Checkpoint ------------------------------------------------------

    /**
     * Serialize the memory image and allocator state. The byte
     * image is written sparsely (only non-zero 4 KiB pages, found
     * among the dirty ones), and function addresses by function
     * name — heap pointers stored in memory stay valid because the
     * restored image reproduces the exact same address space.
     */
    void serialize(ByteWriter &w) const;

    /** Rebuild from checkpoint bytes; function names are resolved
     *  against \p m. Returns false on a size mismatch or a function
     *  that no longer exists. */
    bool restore(ByteReader &r, const Module &m);

  private:
    bool
    check(uint64_t addr, unsigned width)
    {
        if (addr < kGuardSize) {
            trap_ = TrapKind::NullAccess;
            return false;
        }
        // Written so that no sum can wrap: a guest pointer near 2^64
        // must fail here, not index past the mapping.
        if (width > size_ || addr > size_ - width) {
            trap_ = TrapKind::OutOfBounds;
            return false;
        }
        return true;
    }

    /** Little-endian integer of \p width bytes (host order, like
     *  the image). The fixed widths compile to one move each. */
    static uint64_t
    readInt(const uint8_t *p, unsigned width)
    {
        switch (width) {
          case 1: return *p;
          case 2: { uint16_t v; std::memcpy(&v, p, 2); return v; }
          case 4: { uint32_t v; std::memcpy(&v, p, 4); return v; }
          case 8: { uint64_t v; std::memcpy(&v, p, 8); return v; }
          default: {
            uint64_t v = 0;
            std::memcpy(&v, p, width);
            return v;
          }
        }
    }

    static void
    writeInt(uint8_t *p, unsigned width, uint64_t value)
    {
        switch (width) {
          case 1: *p = static_cast<uint8_t>(value); break;
          case 2: {
            auto v = static_cast<uint16_t>(value);
            std::memcpy(p, &v, 2);
            break;
          }
          case 4: {
            auto v = static_cast<uint32_t>(value);
            std::memcpy(p, &v, 4);
            break;
          }
          case 8: std::memcpy(p, &value, 8); break;
          default: std::memcpy(p, &value, width); break;
        }
    }

    /** Record that the \p n > 0 bytes at \p addr may now be
     *  non-zero. Every writer calls this before writing. */
    void
    markDirty(uint64_t addr, uint64_t n)
    {
        uint64_t last = (addr + n - 1) >> kPageShift;
        for (uint64_t page = addr >> kPageShift; page <= last; ++page)
            dirty_[page >> 6] |= 1ull << (page & 63);
    }

    /** markDirty for an access of at most one page (every checked
     *  access): it touches one page or two, so mark both ends. */
    void
    markDirtySmall(uint64_t addr, unsigned n)
    {
        if (!n) // nothing written; addr may be size_
            return;
        uint64_t first = addr >> kPageShift;
        uint64_t last = (addr + n - 1) >> kPageShift;
        dirty_[first >> 6] |= 1ull << (first & 63);
        dirty_[last >> 6] |= 1ull << (last & 63);
    }

    /** Call \p fn(addr, len) for each dirty page in address order
     *  (len is short only for a partial last page). */
    template <typename Fn>
    void
    forEachDirtyPage(Fn fn) const
    {
        for (size_t w = 0; w < dirty_.size(); ++w) {
            for (uint64_t bits = dirty_[w]; bits; bits &= bits - 1) {
                uint64_t p = (w * 64 + __builtin_ctzll(bits))
                             << kPageShift;
                fn(p, std::min(kPageSize, size_ - p));
            }
        }
    }

    static constexpr unsigned kPageShift = 12;
    static constexpr uint64_t kPageSize = 1ull << kPageShift;
    static constexpr uint64_t kGuardSize = 4096;
    static constexpr uint64_t kCodeBase = 4096;
    static constexpr uint64_t kCodeSize = 1 << 16;

    uint64_t size_;
    std::vector<uint64_t> dirty_; ///< one bit per page
    // The mapping is initialized after every member that can throw,
    // so a failed construction never leaks it.
    uint8_t *bytes_;
    uint64_t globalBrk_;
    uint64_t heapBase_ = 0;
    uint64_t heapBrk_ = 0;
    uint64_t stackLimit_;
    uint64_t heapAllocated_ = 0;
    TrapKind trap_ = TrapKind::None;

    struct HeapBlock
    {
        uint64_t size;
        bool free;
    };
    std::map<uint64_t, HeapBlock> heapBlocks_; // addr -> block
    /** Addresses of the free blocks in heapBlocks_: first fit scans
     *  only these. Derived state, rebuilt on restore. */
    std::set<uint64_t> freeBlocks_;

    std::map<const Function *, uint64_t> funcAddrs_;
    std::map<uint64_t, const Function *> addrFuncs_;
};

/**
 * Lay out a module's globals in \p mem and return their addresses.
 * Initializers (including nested aggregates, strings, and pointers
 * to other globals/functions) are written into the image.
 */
std::map<const GlobalVariable *, uint64_t>
layoutGlobals(const Module &m, Memory &mem);

} // namespace llva

#endif // LLVA_CODEGEN_MEMORY_H
