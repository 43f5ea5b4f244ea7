/**
 * @file
 * The trace container's integer encodings — LEB128 varints and the
 * zigzag mapping for signed deltas. This header is their only home (the
 * contract lint's varint-home rule enforces it): encodeTrace() and the
 * SYNCDUR image header write through putVarint(), and every decode —
 * the SYNCTRC TraceDecoder and the SYNCDUR header — reads through the
 * bounds-checked VarintCursor over a byte buffer or an mmap'd file.
 */

#ifndef SYNCRON_TRACE_VARINT_HH
#define SYNCRON_TRACE_VARINT_HH

#include <cstddef>
#include <cstdint>
#include <ostream>

#include "common/log.hh"

namespace syncron::trace {

/** Appends @p v to @p os as a LEB128 varint. */
inline void
putVarint(std::ostream &os, std::uint64_t v)
{
    while (v >= 0x80) {
        os.put(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    os.put(static_cast<char>(v));
}

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
