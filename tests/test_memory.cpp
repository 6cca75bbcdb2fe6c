/**
 * @file
 * VM memory tests: the demand-zero image reads zero wherever nothing
 * was written, the dirty-page bitmap bounds checkpoint
 * serialize/restore without changing a byte of the format, a
 * restore clears every page dirtied after the capture, no address,
 * however close to 2^64, gets past the bounds check, and malloc's
 * free-block index keeps plain first-fit placement.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "codegen/memory.h"
#include "parser/parser.h"
#include "support/hashing.h"

using namespace llva;

namespace {

constexpr uint64_t kPage = 4096;

std::unique_ptr<Module>
smallModule()
{
    return parseAssembly(R"(
long %f() {
entry:
    ret long 1
}
)").orDie();
}

std::vector<uint8_t>
serialized(const Memory &mem)
{
    ByteWriter w;
    mem.serialize(w);
    return w.bytes();
}

/** Number of image pages recorded in a serialized Memory. */
uint64_t
imagePages(const std::vector<uint8_t> &blob)
{
    ByteReader r(blob);
    r.readU64(); // size
    return r.readVaruint();
}

uint64_t
load64(Memory &mem, uint64_t addr)
{
    uint64_t v = ~0ull;
    EXPECT_TRUE(mem.load(addr, 8, v)) << "load at " << addr;
    return v;
}

} // namespace

TEST(Memory, FreshMemoryReadsZero)
{
    Memory mem;
    // Just past the null guard page, in the heap, and at the top of
    // the stack: every untouched byte reads zero.
    EXPECT_EQ(load64(mem, kPage), 0u);
    uint64_t heap = mem.malloc(64);
    ASSERT_NE(heap, 0u);
    EXPECT_EQ(load64(mem, heap), 0u);
    EXPECT_EQ(load64(mem, mem.stackTop() - 8), 0u);
    double d = 1;
    ASSERT_TRUE(mem.loadFP(mem.stackLimit(), false, d));
    EXPECT_EQ(d, 0.0);

    // The guard page and the end of the space still trap.
    uint64_t v;
    EXPECT_FALSE(mem.load(kPage - 8, 8, v));
    EXPECT_EQ(mem.lastTrap(), TrapKind::NullAccess);
    mem.clearTrap();
    EXPECT_FALSE(mem.load(mem.stackTop() - 4, 8, v));
    EXPECT_EQ(mem.lastTrap(), TrapKind::OutOfBounds);
}

TEST(Memory, AccessesNearTopOfAddressSpaceAreOutOfBounds)
{
    // addr + width wraps past zero for these addresses: the check
    // must reject them without forming that sum.
    Memory mem;
    auto expectOutOfBounds = [&](bool ok, const char *what,
                                 uint64_t addr) {
        EXPECT_FALSE(ok) << what << " at 2^64-" << (0 - addr);
        EXPECT_EQ(mem.lastTrap(), TrapKind::OutOfBounds)
            << what << " at 2^64-" << (0 - addr);
        mem.clearTrap();
    };
    for (uint64_t back = 1; back <= 8; ++back) {
        const uint64_t addr = 0 - back;
        for (unsigned width : {1u, 2u, 4u, 8u}) {
            uint64_t v = 0;
            expectOutOfBounds(mem.load(addr, width, v), "load", addr);
            expectOutOfBounds(mem.store(addr, width, 0x1234), "store",
                              addr);
        }
        for (bool fp32 : {false, true}) {
            double d = 0;
            expectOutOfBounds(mem.loadFP(addr, fp32, d), "loadFP",
                              addr);
            expectOutOfBounds(mem.storeFP(addr, fp32, 2.5), "storeFP",
                              addr);
        }
    }
    // Nothing was written, or marked dirty.
    EXPECT_EQ(imagePages(serialized(mem)), 0u);
}

TEST(Memory, MallocIsFirstFitOverAllBlocksInAddressOrder)
{
    // The free-block index must not change which block malloc picks:
    // replay a random malloc/free mix against the plain model (scan
    // every block in address order, take the first free one that
    // fits, else bump) and compare every returned address.
    struct Block
    {
        uint64_t size;
        bool free;
    };
    std::map<uint64_t, Block> model;
    uint64_t brk = 0;
    Memory mem;
    std::mt19937_64 rng(7);
    std::vector<uint64_t> live;
    for (int step = 0; step < 4000; ++step) {
        if (!live.empty() && rng() % 3 == 0) {
            size_t i = rng() % live.size();
            mem.free(live[i]);
            model.at(live[i]).free = true;
            live.erase(live.begin() + static_cast<ptrdiff_t>(i));
            continue;
        }
        uint64_t size = 16 * (1 + rng() % 20); // malloc rounds to 16
        uint64_t expect = 0;
        for (auto &[addr, blk] : model) {
            if (blk.free && blk.size >= size) {
                blk.free = false;
                expect = addr;
                break;
            }
        }
        uint64_t got = mem.malloc(size);
        if (!expect) {
            if (!brk)
                brk = got; // the heap's base
            expect = brk;
            brk += size;
            model[expect] = {size, false};
        }
        ASSERT_EQ(got, expect) << "step " << step;
        live.push_back(got);
    }
}

TEST(Memory, UntouchedMemorySerializesNoPages)
{
    Memory mem;
    EXPECT_EQ(imagePages(serialized(mem)), 0u);

    // A page written back to zero is dirty but still all-zero, so it
    // is skipped exactly as the full scan skipped it.
    ASSERT_TRUE(mem.store(5 * kPage, 8, 42));
    ASSERT_TRUE(mem.store(5 * kPage, 8, 0));
    EXPECT_EQ(imagePages(serialized(mem)), 0u);
}

TEST(Memory, PageStraddlingStoreRoundTripsExactly)
{
    auto m = smallModule();
    const uint64_t addr = 300 * kPage + 4094; // 2 bytes, then 6 more
    const uint64_t value = 0x8877665544332211ull;

    Memory src;
    ASSERT_TRUE(src.store(addr, 8, value));
    auto blob = serialized(src);
    EXPECT_EQ(imagePages(blob), 2u);

    Memory dst;
    ByteReader r(blob);
    ASSERT_TRUE(dst.restore(r, *m));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(load64(dst, addr), value);
    for (unsigned i = 0; i < 8; ++i) {
        uint64_t b;
        ASSERT_TRUE(dst.load(addr + i, 1, b));
        EXPECT_EQ(b, (value >> (8 * i)) & 0xff) << "byte " << i;
    }
    EXPECT_EQ(load64(dst, addr - 8), 0u);
    EXPECT_EQ(load64(dst, addr + 8), 0u);
    // The restored pages are dirty again: a re-capture is identical.
    EXPECT_EQ(serialized(dst), blob);
}

TEST(Memory, RestoreClearsPagesDirtiedAfterCapture)
{
    auto m = smallModule();
    Memory mem;
    const uint64_t kept = 20 * kPage + 16;
    ASSERT_TRUE(mem.store(kept, 8, 42));
    auto blob = serialized(mem);

    // Dirty other pages, and the captured page, after the capture.
    const uint64_t a = 1000 * kPage + 8;
    const uint64_t b = 2000 * kPage + 4093;
    const uint64_t c = mem.stackTop() - 16;
    ASSERT_TRUE(mem.store(a, 8, 7));
    mem.writeRaw(b, "straddle", 8);
    ASSERT_TRUE(mem.storeFP(c, false, 1.5));
    ASSERT_TRUE(mem.store(kept + 8, 8, 9));

    ByteReader r(blob);
    ASSERT_TRUE(mem.restore(r, *m));
    EXPECT_EQ(load64(mem, kept), 42u);
    EXPECT_EQ(load64(mem, kept + 8), 0u);
    EXPECT_EQ(load64(mem, a), 0u);
    EXPECT_EQ(load64(mem, b), 0u);
    EXPECT_EQ(load64(mem, b + 3), 0u);
    double d = 1;
    ASSERT_TRUE(mem.loadFP(c, false, d));
    EXPECT_EQ(d, 0.0);
    EXPECT_EQ(serialized(mem), blob);
}

TEST(Memory, RestoreRejectsOutOfRangePage)
{
    auto m = smallModule();
    Memory mem;
    ByteWriter w;
    w.writeU64(mem.size());
    w.writeVaruint(1);
    w.writeU64(~0ull - 8); // p + n wraps around
    w.writeVaruint(16);
    ByteReader r(w.bytes());
    EXPECT_FALSE(mem.restore(r, *m));
}

TEST(Memory, SerializedFormatMatchesGolden)
{
    // One store sequence covering every writer (store, storeFP at
    // both widths, writeRaw), a page-straddling store, a zero page
    // that was written, the heap allocator and a function address.
    // The golden size and hash were captured from the dense-vector
    // implementation that scanned all 64 MiB: the sparse scan must
    // emit the same bytes, so the checkpoint format keeps its
    // version.
    auto m = smallModule();
    Memory mem;
    uint64_t g = mem.allocateGlobal(24, 8);
    ASSERT_TRUE(mem.store(g, 8, 0x1122334455667788ull));
    mem.writeRaw(g + 8, "llva", 5);
    uint64_t h = mem.malloc(100);
    ASSERT_TRUE(mem.storeFP(h, false, 3.25));
    ASSERT_TRUE(mem.storeFP(h + 8, true, -0.5));
    uint64_t big = mem.malloc(5000);
    mem.free(big);
    uint64_t straddle = (big / kPage + 2) * kPage + 4094;
    ASSERT_TRUE(mem.store(straddle, 8, 0xdeadbeefcafef00dull));
    ASSERT_TRUE(mem.store(900 * kPage, 4, 0xffffffffu));
    ASSERT_TRUE(mem.store(900 * kPage, 4, 0));
    ASSERT_TRUE(mem.store(mem.stackTop() - 8, 8,
                          mem.functionAddress(m->getFunction("f"))));

    auto blob = serialized(mem);
    EXPECT_EQ(imagePages(blob), 5u);
    EXPECT_EQ(blob.size(), 20625u);
    EXPECT_EQ(fnv1a(blob), 0xae6527a50fa5120full);
}
