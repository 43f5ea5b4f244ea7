/**
 * @file
 * The trace container's integer encodings — LEB128 varints and the
 * zigzag mapping for signed deltas. This header is their only home (the
 * contract lint's varint-home rule enforces it): encodeTrace() and the
 * SYNCDUR image header write through one VarintWriter, which encodes
 * into a fixed byte buffer and hands the stream one write per full
 * chunk, and every decode — the SYNCTRC TraceDecoder and the SYNCDUR
 * header — reads through the bounds-checked VarintCursor over a byte
 * buffer or an mmap'd file.
 */

#ifndef SYNCRON_TRACE_VARINT_HH
#define SYNCRON_TRACE_VARINT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>

#include "common/log.hh"

namespace syncron::trace {

/**
 * Buffered varint writer over a stream — the write primitive under
 * every container encoder. Bytes are encoded into a fixed kChunk-byte
 * buffer that goes to the stream in one write each time it fills, so
 * encoding costs no per-byte stream call and memory stays flat however
 * long the container is. flush() writes the tail and checks the
 * stream; call it once the container is complete (@p what names the
 * output in its fatal).
 */
class VarintWriter
{
  public:
    /** Bytes handed to the stream per write. */
    static constexpr std::size_t kChunk = std::size_t{1} << 16;

    VarintWriter(std::ostream &os, const char *what)
        : os_(os), what_(what), buf_(new char[kChunk])
    {
    }

    VarintWriter(const VarintWriter &) = delete;
    VarintWriter &operator=(const VarintWriter &) = delete;

    /** Appends @p v as a LEB128 varint. */
    void
    put(std::uint64_t v)
    {
        // A varint is at most 10 bytes; make room for the longest.
        if (len_ > kChunk - 10)
            drain();
        char *out = buf_.get() + len_;
        while (v >= 0x80) {
            *out++ = static_cast<char>((v & 0x7f) | 0x80);
            v >>= 7;
        }
        *out++ = static_cast<char>(v);
        len_ = static_cast<std::size_t>(out - buf_.get());
    }

    /** Appends @p n raw bytes (a container magic). */
    void
    bytes(const char *data, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i) {
            if (len_ == kChunk)
                drain();
            buf_[len_++] = data[i];
        }
    }

    /** Writes the buffered tail; fatal() on a stream error. */
    void
    flush()
    {
        drain();
        os_.flush();
        if (!os_)
            SYNCRON_FATAL("stream error while writing " << what_);
    }

  private:
    void
    drain()
    {
        os_.write(buf_.get(), static_cast<std::streamsize>(len_));
        len_ = 0;
    }

    std::ostream &os_;
    const char *what_;
    std::unique_ptr<char[]> buf_;
    std::size_t len_ = 0;
};

/** Maps a signed delta onto the varint-friendly zigzag encoding. */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1)
           ^ static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzag(). */
inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1)
           ^ -static_cast<std::int64_t>(v & 1);
}

/**
 * Bounds-checked varint cursor over a borrowed byte range — the
 * allocation-free read primitive under every container decoder. Every
 * read is range-checked against the end of the buffer; @p what names
 * the input in the truncation fatal so each corrupt file produces a
 * self-describing error.
 */
class VarintCursor
{
  public:
    VarintCursor(const unsigned char *begin, const unsigned char *end,
                 const char *what)
        : cur_(begin), end_(end), what_(what)
    {
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end_ - cur_);
    }

    bool atEnd() const { return cur_ == end_; }

    /** Current position (where the next read starts). */
    const unsigned char *position() const { return cur_; }

    /** Reads one varint; fatal() when the buffer ends inside it. */
    std::uint64_t
    get()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (cur_ == end_)
                SYNCRON_FATAL(what_ << " truncated inside a varint");
            const unsigned char byte = *cur_++;
            // The tenth byte holds bit 63 only; more payload would be
            // dropped by the shift, not decoded.
            if (shift == 63 && (byte & 0x7f) > 1)
                break;
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return v;
        }
        SYNCRON_FATAL(what_ << " varint longer than 64 bits (corrupt)");
    }

  private:
    const unsigned char *cur_;
    const unsigned char *end_;
    const char *what_;
};

} // namespace syncron::trace

#endif // SYNCRON_TRACE_VARINT_HH
