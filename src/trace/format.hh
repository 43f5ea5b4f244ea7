/**
 * @file
 * The synchronization-operation trace format — the first subsystem whose
 * input is data rather than code.
 *
 * A Trace is a machine-shape header (NDP units, client cores per unit),
 * a table of the synchronization primitives the traced run used (kind,
 * home unit, creation parameter), and a time-ordered stream of operation
 * records `{issue tick, completion tick, client core, OpKind, primitive
 * id, associated primitive}`. Primitive ids are dense indices into the
 * table, not simulated addresses, so a trace replays on a freshly built
 * system whose allocator hands out different lines.
 *
 * On disk the container is a compact varint encoding (decided contract,
 * see ROADMAP):
 *
 *   magic "SYNCTRC\0" | varint version (= 2)
 *   varint numUnits | varint clientCoresPerUnit
 *   varint primitive count | per primitive: kind, home, param, scope
 *   varint record count   | per record:
 *       zigzag(issue delta vs previous record) | latency (completed -
 *       issued) | core | OpKind | primitive id
 *       | associated lock (cond_wait records only)
 *
 * All multi-byte fields are LEB128 varints (trace/varint.hh, their
 * only home); issue ticks are delta-encoded against the previous record
 * (zigzag, so capture order — completion order — need not be
 * issue-ordered).
 *
 * One encoder and one decoder serve every container that carries this
 * layout. encodeTrace() writes it from borrowed spans; TraceDecoder
 * reads it from a borrowed byte range. TraceWriter/TraceReader, the
 * file helpers, the mmap'd MappedTraceReader and the SYNCDUR persisted
 * image (which embeds a SYNCTRC container after its own header) are
 * thin wrappers around these two. The round trip is lossless; the
 * decoder rejects bad magic, unknown versions, truncation, trailing
 * garbage, and records referencing out-of-range primitives or cores.
 *
 * v1 -> v2: v1 wrote an associated-primitive varint on EVERY record
 * (always 0 outside cond_wait) and did not require writers to populate
 * it, so offline consumers could not rely on the field. v2 makes the
 * associated lock a mandatory, writer-validated field of cond_wait
 * records and drops the dead varint everywhere else — the deadlock
 * analyzer (analysis::analyzeTrace) depends on it. Readers reject v1
 * traces; recapture them with this build.
 */

#ifndef SYNCRON_TRACE_FORMAT_HH
#define SYNCRON_TRACE_FORMAT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "sync/opcodes.hh"
#include "sync/request.hh"
#include "trace/varint.hh"

namespace syncron::trace {

/** Trace container version written/accepted by this build. */
inline constexpr std::uint64_t kTraceVersion = 2;

/** 8-byte container magic ("SYNCTRC\0"). */
inline constexpr std::array<char, 8> kTraceMagic = {'S', 'Y', 'N', 'C',
                                                    'T', 'R', 'C', '\0'};

/** Kind of a traced synchronization primitive. */
enum class PrimKind : std::uint8_t
{
    Lock,
    Barrier,
    Semaphore,
    CondVar,
};

/** Printable name for @p kind. */
const char *primKindName(PrimKind kind);

/** Kind of primitive @p kind operates on (every OpKind has one). */
PrimKind primKindOf(sync::OpKind kind);

/** One entry of the trace's primitive table. */
struct TracePrimitive
{
    PrimKind kind = PrimKind::Lock;
    UnitId home = 0; ///< NDP unit the primitive was homed in
    /** Barrier participant count / semaphore initial resources. */
    std::uint32_t param = 0;
    sync::BarrierScope scope = sync::BarrierScope::AcrossUnits;

    friend bool operator==(const TracePrimitive &,
                           const TracePrimitive &) = default;
};

/** One captured (or synthesized) synchronization operation. */
struct TraceRecord
{
    Tick issued = 0;    ///< tick the request was issued to the backend
    Tick completed = 0; ///< tick the core observed completion
    std::uint32_t core = 0; ///< dense client-core index
    sync::OpKind kind = sync::OpKind::LockAcquire;
    std::uint32_t prim = 0; ///< index into Trace::primitives
    /** CondWait's associated lock (primitive id); 0 otherwise. */
    std::uint32_t assocPrim = 0;

    Tick latency() const { return completed - issued; }

    friend bool operator==(const TraceRecord &,
                           const TraceRecord &) = default;
};

/** A complete synchronization-operation trace. */
struct Trace
{
    std::uint32_t numUnits = 0;
    std::uint32_t clientCoresPerUnit = 0;
    std::vector<TracePrimitive> primitives;
    std::vector<TraceRecord> records;

    /** Client cores of the traced machine (record::core < this). */
    std::uint32_t
    numClientCores() const
    {
        return numUnits * clientCoresPerUnit;
    }

    /** Operation count per sync::OpKind over the whole stream. */
    std::array<std::uint64_t, kNumSyncOpKinds> opCounts() const;

    /**
     * Share of lock operations going to the most-operated-on lock —
     * the contention-skew statistic the Zipfian scenario tests assert
     * on. Returns 0 when the trace has no lock operations.
     */
    double hottestLockShare() const;

    friend bool operator==(const Trace &, const Trace &) = default;
};

/**
 * Appends one complete container — header, primitive table, records —
 * to @p out from borrowed spans; the caller flushes @p out (a SYNCDUR
 * image writes its own header into the same writer first). fatal()s
 * on cond_wait records without a valid associated lock (and
 * associated locks on any other kind); panics on a record that
 * completes before it issues.
 */
void encodeTrace(VarintWriter &out, std::uint32_t numUnits,
                 std::uint32_t clientCoresPerUnit,
                 std::span<const TracePrimitive> primitives,
                 std::span<const TraceRecord> records);

/**
 * The container decoder, over a borrowed byte range that must outlive
 * it. Construction decodes and validates everything before the first
 * record (magic, version, machine shape, primitive table, record
 * count); records() then decodes the stream in place, one record at a
 * time. @p what names the input in every error message ("trace",
 * "mapped trace", "persisted image"), so a corrupt file says what it
 * was.
 */
class TraceDecoder
{
  public:
    TraceDecoder(const unsigned char *begin, const unsigned char *end,
                 const char *what);

    std::uint32_t numUnits() const { return numUnits_; }
    std::uint32_t clientCoresPerUnit() const { return coresPerUnit_; }
    std::uint32_t
    numClientCores() const
    {
        return numUnits_ * coresPerUnit_;
    }
    const std::vector<TracePrimitive> &primitives() const
    {
        return primitives_;
    }
    /** Record count from the header (the stream must hold exactly
     *  this many records and nothing after them). */
    std::uint64_t recordCount() const { return recordCount_; }

    /**
     * Allocation-free forward iteration over the records. Borrows the
     * decoder (which must outlive it); fatal()s on any record-level
     * violation at the exact offending record index.
     */
    class Cursor
    {
      public:
        /**
         * Decodes the next record into @p out. Returns false once all
         * recordCount() records have been yielded, after checking that
         * no bytes follow the last one.
         */
        bool next(TraceRecord &out);

        /** Records yielded so far. */
        std::uint64_t index() const { return index_; }

      private:
        friend class TraceDecoder;
        explicit Cursor(const TraceDecoder &dec)
            : dec_(dec), cur_(dec.records_, dec.end_, dec.what_)
        {
        }

        const TraceDecoder &dec_;
        VarintCursor cur_;
        std::uint64_t index_ = 0;
        Tick prevIssued_ = 0;
    };

    /** A fresh cursor positioned at the first record. */
    Cursor records() const { return Cursor(*this); }

    /** Decodes every record into an owning Trace. */
    Trace decode() const;

  private:
    const char *what_;
    const unsigned char *records_ = nullptr; ///< first record byte
    const unsigned char *end_ = nullptr;
    std::uint32_t numUnits_ = 0;
    std::uint32_t coresPerUnit_ = 0;
    std::uint64_t recordCount_ = 0;
    std::vector<TracePrimitive> primitives_;
};

/** Serializes traces into the varint container format. */
class TraceWriter
{
  public:
    /** Writes to @p os; the stream must outlive the writer. */
    explicit TraceWriter(std::ostream &os) : os_(os) {}

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Emits one complete trace (see encodeTrace()). */
    void write(const Trace &trace);

  private:
    std::ostream &os_;
};

/** Reads the container from a stream through TraceDecoder. */
class TraceReader
{
  public:
    /** Reads from @p is; the stream must outlive the reader. */
    explicit TraceReader(std::istream &is) : is_(is) {}

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * Reads the rest of the stream and decodes it as one complete
     * trace; fatal()s on any format violation (see TraceDecoder).
     */
    Trace read();

  private:
    std::istream &is_;
};

/** Every byte left in @p is; the buffer the stream readers decode. */
std::string readAllBytes(std::istream &is);

/** Writes @p trace to @p path; fatal() when the file cannot be written. */
void writeTraceFile(const Trace &trace, const std::string &path);

/** Reads a trace from @p path; fatal() on IO or format errors. */
Trace readTraceFile(const std::string &path);

} // namespace syncron::trace

#endif // SYNCRON_TRACE_FORMAT_HH
