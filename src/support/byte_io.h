/**
 * @file
 * Byte-level serialization helpers used by the virtual object code
 * writer/reader and the LLEE offline cache.
 *
 * All multi-byte quantities are stored little-endian regardless of
 * host order; variable-length integers use LEB128, matching the
 * "self-extending" encoding strategy of the LLVA paper (Section 3.1).
 */

#ifndef LLVA_SUPPORT_BYTE_IO_H
#define LLVA_SUPPORT_BYTE_IO_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/error.h"

namespace llva {

/** Append-only little-endian byte buffer. */
class ByteWriter
{
  public:
    void writeByte(uint8_t v) { bytes_.push_back(v); }

    void
    writeU32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    writeU64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    /** Unsigned LEB128 (self-extending encoding). */
    void
    writeVaruint(uint64_t v)
    {
        do {
            uint8_t b = v & 0x7f;
            v >>= 7;
            if (v)
                b |= 0x80;
            bytes_.push_back(b);
        } while (v);
    }

    /** Signed LEB128. */
    void
    writeVarint(int64_t v)
    {
        bool more = true;
        while (more) {
            uint8_t b = v & 0x7f;
            v >>= 7;
            if ((v == 0 && !(b & 0x40)) || (v == -1 && (b & 0x40)))
                more = false;
            else
                b |= 0x80;
            bytes_.push_back(b);
        }
    }

    void
    writeDouble(double d)
    {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        writeU64(bits);
    }

    /** Length-prefixed string. */
    void
    writeString(const std::string &s)
    {
        writeVaruint(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    void
    writeBytes(const uint8_t *data, size_t n)
    {
        bytes_.insert(bytes_.end(), data, data + n);
    }

    /** Patch a previously written 32-bit slot (for back-patching). */
    void
    patchU32(size_t offset, uint32_t v)
    {
        LLVA_ASSERT(offset + 4 <= bytes_.size(), "patch out of range");
        for (int i = 0; i < 4; ++i)
            bytes_[offset + i] = static_cast<uint8_t>(v >> (8 * i));
    }

    size_t size() const { return bytes_.size(); }
    const std::vector<uint8_t> &bytes() const { return bytes_; }
    std::vector<uint8_t> takeBytes() { return std::move(bytes_); }

  private:
    std::vector<uint8_t> bytes_;
};

/** Sequential reader over a byte buffer; throws FatalError on overrun. */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    explicit ByteReader(const std::vector<uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {}

    bool atEnd() const { return pos_ == size_; }
    size_t position() const { return pos_; }
    size_t remaining() const { return size_ - pos_; }

    /** Reposition to an absolute offset (forward or backward). */
    void
    seek(size_t pos)
    {
        LLVA_ASSERT(pos <= size_, "seek out of range");
        pos_ = pos;
    }

    uint8_t
    readByte()
    {
        need(1);
        return data_[pos_++];
    }

    uint32_t
    readU32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        return v;
    }

    uint64_t
    readU64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }

    uint64_t
    readVaruint()
    {
        uint64_t v = 0;
        int shift = 0;
        while (true) {
            uint8_t b = readByte();
            v |= static_cast<uint64_t>(b & 0x7f) << shift;
            if (!(b & 0x80))
                break;
            shift += 7;
            if (shift >= 64)
                fatal("malformed varuint");
        }
        return v;
    }

    int64_t
    readVarint()
    {
        // Accumulate and sign-fill in uint64_t: shifting into or
        // negating at the sign bit of an int64_t is undefined.
        uint64_t v = 0;
        int shift = 0;
        uint8_t b;
        do {
            b = readByte();
            if (shift < 64)
                v |= static_cast<uint64_t>(b & 0x7f) << shift;
            shift += 7;
            if (shift > 70)
                fatal("malformed varint");
        } while (b & 0x80);
        if (shift < 64 && (b & 0x40))
            v |= ~uint64_t(0) << shift;
        return static_cast<int64_t>(v);
    }

    double
    readDouble()
    {
        uint64_t bits = readU64();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return d;
    }

    std::string
    readString()
    {
        uint64_t n = readVaruint();
        need(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    void
    readBytes(uint8_t *out, size_t n)
    {
        need(n);
        if (n) // an empty reader's data_ may be null
            std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

  private:
    void
    need(size_t n)
    {
        if (n > size_ - pos_) // pos_ + n could wrap
            fatal("object file truncated (need %zu bytes at %zu/%zu)",
                  n, pos_, size_);
    }

    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
};

} // namespace llva

#endif // LLVA_SUPPORT_BYTE_IO_H
