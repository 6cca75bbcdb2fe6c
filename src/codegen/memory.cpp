#include "codegen/memory.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "ir/instructions.h"

namespace llva {

const char *
trapKindName(TrapKind k)
{
    switch (k) {
      case TrapKind::None: return "none";
      case TrapKind::NullAccess: return "null access";
      case TrapKind::OutOfBounds: return "out of bounds";
      case TrapKind::Misaligned: return "misaligned access";
      case TrapKind::DivByZero: return "division by zero";
      case TrapKind::StackOverflow: return "stack overflow";
      case TrapKind::OutOfMemory: return "out of memory";
      case TrapKind::BadIndirectCall: return "bad indirect call";
      case TrapKind::PrivilegeViolation: return "privilege violation";
    }
    return "unknown";
}

namespace {

/** Map \p len bytes of demand-zero memory: the kernel supplies a zero
 *  page on first touch, so untouched pages cost neither time nor
 *  RSS. */
uint8_t *
mapDemandZero(uint64_t len)
{
    void *p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return static_cast<uint8_t *>(p);
}

} // namespace

Memory::Memory(uint64_t size)
    : size_(size),
      dirty_(((size + kPageSize - 1) / kPageSize + 63) / 64, 0),
      bytes_(mapDemandZero(size))
{
    globalBrk_ = kCodeBase + kCodeSize;
    // Reserve the top 1/4 for stacks.
    stackLimit_ = size_ - size_ / 4;
}

Memory::~Memory()
{
    ::munmap(bytes_, size_);
}

void
Memory::writeRaw(uint64_t addr, const void *data, uint64_t n)
{
    LLVA_ASSERT(addr + n <= size_, "writeRaw out of range");
    if (!n)
        return;
    markDirty(addr, n);
    std::memcpy(bytes_ + addr, data, n);
}

std::string
Memory::readCString(uint64_t addr, uint64_t max)
{
    std::string s;
    while (addr < size_ && s.size() < max) {
        char c = static_cast<char>(bytes_[addr++]);
        if (!c)
            break;
        s += c;
    }
    return s;
}

uint64_t
Memory::allocateGlobal(uint64_t size, uint64_t align)
{
    if (align == 0)
        align = 1;
    globalBrk_ = (globalBrk_ + align - 1) / align * align;
    uint64_t addr = globalBrk_;
    globalBrk_ += size ? size : 1;
    heapBase_ = heapBrk_ =
        (globalBrk_ + 4095) / 4096 * 4096; // heap follows globals
    return addr;
}

uint64_t
Memory::malloc(uint64_t size)
{
    if (size == 0)
        size = 1;
    size = (size + 15) / 16 * 16;

    // First fit over the free blocks, in address order.
    for (auto it = freeBlocks_.begin(); it != freeBlocks_.end();
         ++it) {
        uint64_t addr = *it;
        HeapBlock &blk = heapBlocks_.at(addr);
        if (blk.size >= size) {
            blk.free = false;
            freeBlocks_.erase(it);
            heapAllocated_ += size;
            return addr;
        }
    }
    if (heapBase_ == 0)
        heapBase_ = heapBrk_ = kCodeBase + kCodeSize;
    uint64_t addr = heapBrk_;
    if (addr + size > stackLimit_) {
        trap_ = TrapKind::OutOfMemory;
        return 0;
    }
    heapBrk_ += size;
    heapBlocks_[addr] = {size, false};
    heapAllocated_ += size;
    return addr;
}

void
Memory::free(uint64_t addr)
{
    if (addr == 0)
        return;
    auto it = heapBlocks_.find(addr);
    if (it != heapBlocks_.end()) {
        it->second.free = true;
        freeBlocks_.insert(addr);
    }
}

uint64_t
Memory::functionAddress(const Function *f)
{
    auto it = funcAddrs_.find(f);
    if (it != funcAddrs_.end())
        return it->second;
    uint64_t addr = kCodeBase + 16 * (funcAddrs_.size() + 1);
    LLVA_ASSERT(addr < kCodeBase + kCodeSize, "code region exhausted");
    funcAddrs_[f] = addr;
    addrFuncs_[addr] = f;
    return addr;
}

const Function *
Memory::functionAt(uint64_t addr) const
{
    auto it = addrFuncs_.find(addr);
    return it == addrFuncs_.end() ? nullptr : it->second;
}

void
Memory::serialize(ByteWriter &w) const
{
    w.writeU64(size_);
    // Sparse image: only non-zero pages, and only dirty pages can be
    // non-zero, so the scan is O(touched pages) — typically a few
    // hundred KiB of a 64 MiB space.
    std::vector<uint64_t> live;
    forEachDirtyPage([&](uint64_t p, uint64_t n) {
        if (std::any_of(bytes_ + p, bytes_ + p + n,
                        [](uint8_t b) { return b != 0; }))
            live.push_back(p);
    });
    w.writeVaruint(live.size());
    for (uint64_t p : live) {
        uint64_t n = std::min(kPageSize, size_ - p);
        w.writeU64(p);
        w.writeVaruint(n);
        w.writeBytes(bytes_ + p, n);
    }
    w.writeU64(globalBrk_);
    w.writeU64(heapBase_);
    w.writeU64(heapBrk_);
    w.writeU64(stackLimit_);
    w.writeU64(heapAllocated_);
    w.writeVaruint(heapBlocks_.size());
    for (const auto &[addr, blk] : heapBlocks_) {
        w.writeU64(addr);
        w.writeU64(blk.size);
        w.writeByte(blk.free ? 1 : 0);
    }
    // Function "addresses" by name: the restoring process assigns
    // its own Function pointers but must reproduce the exact same
    // numeric addresses (they are stored as data in the image).
    w.writeVaruint(funcAddrs_.size());
    for (const auto &[f, addr] : funcAddrs_) {
        w.writeString(f->name());
        w.writeU64(addr);
    }
}

bool
Memory::restore(ByteReader &r, const Module &m)
{
    uint64_t size = r.readU64();
    if (size != size_)
        return false;
    // Pages never written are still zero: clearing the dirty ones
    // yields an all-zero image.
    forEachDirtyPage(
        [&](uint64_t p, uint64_t n) { std::memset(bytes_ + p, 0, n); });
    std::fill(dirty_.begin(), dirty_.end(), 0);
    uint64_t pages = r.readVaruint();
    for (uint64_t i = 0; i < pages; ++i) {
        uint64_t p = r.readU64();
        uint64_t n = r.readVaruint();
        if (p > size_ || n > size_ - p)
            return false;
        if (!n)
            continue;
        markDirty(p, n);
        r.readBytes(bytes_ + p, n);
    }
    globalBrk_ = r.readU64();
    heapBase_ = r.readU64();
    heapBrk_ = r.readU64();
    stackLimit_ = r.readU64();
    heapAllocated_ = r.readU64();
    heapBlocks_.clear();
    freeBlocks_.clear();
    uint64_t nBlocks = r.readVaruint();
    for (uint64_t i = 0; i < nBlocks; ++i) {
        uint64_t addr = r.readU64();
        HeapBlock blk;
        blk.size = r.readU64();
        blk.free = r.readByte() != 0;
        heapBlocks_[addr] = blk;
    }
    for (const auto &[addr, blk] : heapBlocks_)
        if (blk.free)
            freeBlocks_.insert(addr);
    funcAddrs_.clear();
    addrFuncs_.clear();
    uint64_t nFuncs = r.readVaruint();
    for (uint64_t i = 0; i < nFuncs; ++i) {
        std::string name = r.readString();
        uint64_t addr = r.readU64();
        const Function *f = m.getFunction(name);
        if (!f)
            return false;
        funcAddrs_[f] = addr;
        addrFuncs_[addr] = f;
    }
    // functionAddress() hands out kCodeBase + 16*(n+1): restoring N
    // entries keeps future assignments past every restored address
    // only if the checkpointing process assigned them the same way —
    // which it did, so the next fresh address is collision-free.
    trap_ = TrapKind::None;
    return true;
}

namespace {

/** Write one constant into the image at \p addr. */
void
writeConstant(Memory &mem, const Module &m,
              const std::map<const GlobalVariable *, uint64_t> &addrs,
              const Constant *c, uint64_t addr)
{
    unsigned ps = m.pointerSize();
    Type *t = c->type();
    if (auto *ci = dyn_cast<ConstantInt>(c)) {
        mem.store(addr, static_cast<unsigned>(t->sizeInBytes(ps)),
                  ci->zext());
    } else if (auto *cf = dyn_cast<ConstantFP>(c)) {
        mem.storeFP(addr, t->kind() == TypeKind::Float, cf->value());
    } else if (isa<ConstantNull>(c) || isa<ConstantUndef>(c)) {
        // Image is zero-initialized.
    } else if (auto *cs = dyn_cast<ConstantString>(c)) {
        mem.writeRaw(addr, cs->data().data(), cs->data().size());
    } else if (auto *ca = dyn_cast<ConstantAggregate>(c)) {
        if (auto *at = dyn_cast<ArrayType>(t)) {
            uint64_t esz = at->element()->sizeInBytes(ps);
            for (size_t i = 0; i < ca->numElements(); ++i)
                writeConstant(mem, m, addrs, ca->element(i),
                              addr + i * esz);
        } else {
            auto *st = cast<StructType>(t);
            for (size_t i = 0; i < ca->numElements(); ++i)
                writeConstant(mem, m, addrs, ca->element(i),
                              addr + st->fieldOffset(i, ps));
        }
    } else if (auto *gv = dyn_cast<GlobalVariable>(c)) {
        mem.store(addr, ps, addrs.at(gv));
    } else if (auto *f = dyn_cast<Function>(c)) {
        mem.store(addr, ps, mem.functionAddress(f));
    } else {
        panic("unwritable constant in global image");
    }
}

} // namespace

std::map<const GlobalVariable *, uint64_t>
layoutGlobals(const Module &m, Memory &mem)
{
    std::map<const GlobalVariable *, uint64_t> addrs;
    unsigned ps = m.pointerSize();
    for (const auto &gv : m.globals()) {
        Type *t = gv->containedType();
        addrs[gv.get()] =
            mem.allocateGlobal(t->sizeInBytes(ps), t->alignment(ps));
    }
    for (const auto &gv : m.globals())
        if (gv->initializer())
            writeConstant(mem, m, addrs, gv->initializer(),
                          addrs[gv.get()]);
    return addrs;
}

} // namespace llva
