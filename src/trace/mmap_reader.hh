/**
 * @file
 * Zero-copy trace reading: the `SYNCTRC` container mapped into the
 * address space and decoded in place.
 *
 * The streaming TraceReader materializes a whole Trace on the heap —
 * one vector push per record — which is fine for small capture files
 * but wrong for multi-gigabyte corpora: a corpus replay would spend its
 * time in allocator traffic before the first simulated tick.
 * MappedTraceReader mmap()s the file read-only and runs the container's
 * one decoder (trace::TraceDecoder) over the mapping: the header and
 * primitive table are validated once at open, and records come out of
 * a cursor that does nothing but bounds-checked pointer arithmetic —
 * no per-record allocation, no copy of the record stream, and the
 * file's pages are faulted in lazily as the cursor walks them.
 *
 * Because both readers are the same decoder, the rejection surface is
 * the streaming reader's by construction; tests still pin it (every
 * truncation, bad magic and version, trailing bytes, dangling refs).
 */

#ifndef SYNCRON_TRACE_MMAP_READER_HH
#define SYNCRON_TRACE_MMAP_READER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "trace/format.hh"

namespace syncron::trace {

/** mmap-backed `SYNCTRC` reader; records decode in place, zero-copy. */
class MappedTraceReader
{
  public:
    /**
     * Opens and maps @p path, then validates magic, version, machine
     * shape, and the complete primitive table. fatal()s on IO errors,
     * empty or short files, and every header-level format violation.
     * Record-level validation happens as the cursor walks (so a
     * multi-GB file never needs a full up-front pass); validateAll()
     * forces it eagerly.
     */
    explicit MappedTraceReader(const std::string &path);

    MappedTraceReader(const MappedTraceReader &) = delete;
    MappedTraceReader &operator=(const MappedTraceReader &) = delete;

    // -- Header (validated at open)
    std::uint32_t numUnits() const { return decoder_.numUnits(); }
    std::uint32_t clientCoresPerUnit() const
    {
        return decoder_.clientCoresPerUnit();
    }
    const std::vector<TracePrimitive> &primitives() const
    {
        return decoder_.primitives();
    }
    std::uint64_t recordCount() const { return decoder_.recordCount(); }

    /** Allocation-free record cursor over the mapping. */
    using RecordCursor = TraceDecoder::Cursor;

    /** A fresh cursor positioned at the first record. */
    RecordCursor records() const { return decoder_.records(); }

    /**
     * Walks every record once, discarding them — forces the full
     * record-level validation pass (corpus validation uses this).
     * @return the per-OpKind operation counts of the stream
     */
    std::array<std::uint64_t, kNumSyncOpKinds> validateAll() const;

    /**
     * Copies the mapped trace into an owning Trace — the bridge to
     * consumers of the Trace API (Replayer, analyzers).
     */
    Trace materialize() const { return decoder_.decode(); }

  private:
    /** The read-only whole-file mapping; unmapped on destruction. */
    struct Mapping
    {
        explicit Mapping(const std::string &path);
        ~Mapping();
        Mapping(const Mapping &) = delete;
        Mapping &operator=(const Mapping &) = delete;

        const unsigned char *base = nullptr;
        std::size_t bytes = 0;
    };

    Mapping map_; ///< declared before decoder_, which borrows it
    TraceDecoder decoder_;
};

} // namespace syncron::trace

#endif // SYNCRON_TRACE_MMAP_READER_HH
