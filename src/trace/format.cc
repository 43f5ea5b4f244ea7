#include "trace/format.hh"

#include <algorithm>
#include <climits>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <mutex>
#include <ostream>

#include "common/log.hh"
#include "trace/varint.hh"

namespace syncron::trace {

const char *
primKindName(PrimKind kind)
{
    switch (kind) {
      case PrimKind::Lock: return "lock";
      case PrimKind::Barrier: return "barrier";
      case PrimKind::Semaphore: return "semaphore";
      case PrimKind::CondVar: return "condvar";
    }
    return "?";
}

PrimKind
primKindOf(sync::OpKind kind)
{
    switch (kind) {
      case sync::OpKind::LockAcquire:
      case sync::OpKind::LockRelease:
        return PrimKind::Lock;
      case sync::OpKind::BarrierWaitWithinUnit:
      case sync::OpKind::BarrierWaitAcrossUnits:
        return PrimKind::Barrier;
      case sync::OpKind::SemWait:
      case sync::OpKind::SemPost:
        return PrimKind::Semaphore;
      case sync::OpKind::CondWait:
      case sync::OpKind::CondSignal:
      case sync::OpKind::CondBroadcast:
        return PrimKind::CondVar;
    }
    SYNCRON_PANIC("unknown OpKind " << static_cast<unsigned>(kind));
}

std::array<std::uint64_t, kNumSyncOpKinds>
Trace::opCounts() const
{
    std::array<std::uint64_t, kNumSyncOpKinds> counts{};
    for (const TraceRecord &r : records)
        ++counts[static_cast<unsigned>(r.kind)];
    return counts;
}

double
Trace::hottestLockShare() const
{
    std::vector<std::uint64_t> perPrim(primitives.size(), 0);
    std::uint64_t lockOps = 0;
    for (const TraceRecord &r : records) {
        if (r.kind != sync::OpKind::LockAcquire)
            continue;
        ++perPrim[r.prim];
        ++lockOps;
    }
    if (lockOps == 0)
        return 0.0;
    std::uint64_t hottest = 0;
    for (std::uint64_t c : perPrim)
        hottest = std::max(hottest, c);
    return static_cast<double>(hottest) / static_cast<double>(lockOps);
}

namespace {

/**
 * A primitive takes at least 4 bytes on the wire and a record at least
 * 5, so a count that the remaining bytes cannot hold is corrupt: reserve
 * only what the buffer could carry, and let the decode loop report the
 * truncation.
 */
constexpr std::size_t kMinPrimitiveBytes = 4;
constexpr std::size_t kMinRecordBytes = 5;

/** Bounds-checks an enum read from the container. */
template <typename Enum>
Enum
checkedEnum(std::uint64_t raw, std::uint64_t last, const char *field,
            const char *what)
{
    if (raw > last)
        SYNCRON_FATAL(what << " contains out-of-range " << field
                           << " value " << raw);
    return static_cast<Enum>(raw);
}

} // namespace

void
encodeTrace(VarintWriter &out, std::uint32_t numUnits,
            std::uint32_t clientCoresPerUnit,
            std::span<const TracePrimitive> primitives,
            std::span<const TraceRecord> records)
{
    out.bytes(kTraceMagic.data(), kTraceMagic.size());
    out.put(kTraceVersion);
    out.put(numUnits);
    out.put(clientCoresPerUnit);

    out.put(primitives.size());
    for (const TracePrimitive &p : primitives) {
        out.put(static_cast<std::uint64_t>(p.kind));
        out.put(p.home);
        out.put(p.param);
        out.put(static_cast<std::uint64_t>(p.scope));
    }

    out.put(records.size());
    Tick prevIssued = 0;
    for (const TraceRecord &r : records) {
        SYNCRON_ASSERT(r.completed >= r.issued,
                       "record completed before it was issued");
        out.put(zigzag(static_cast<std::int64_t>(r.issued)
                       - static_cast<std::int64_t>(prevIssued)));
        out.put(r.completed - r.issued);
        out.put(r.core);
        out.put(static_cast<std::uint64_t>(r.kind));
        out.put(r.prim);
        // v2: the associated lock is a mandatory cond_wait-only field;
        // consumers (the offline deadlock analyzer) rely on it, so an
        // unset or dangling value is a writer error, not a reader one.
        if (r.kind == sync::OpKind::CondWait) {
            if (r.assocPrim >= primitives.size()
                || primitives[r.assocPrim].kind != PrimKind::Lock) {
                SYNCRON_FATAL("cond_wait record without a valid "
                              "associated lock (assocPrim "
                              << r.assocPrim << ")");
            }
            out.put(r.assocPrim);
        } else if (r.assocPrim != 0) {
            SYNCRON_FATAL("record carries an associated primitive but "
                          "is not a cond_wait ("
                          << sync::opKindName(r.kind) << ")");
        }
        prevIssued = r.issued;
    }
}

TraceDecoder::TraceDecoder(const unsigned char *begin,
                           const unsigned char *end, const char *what)
    : what_(what), end_(end)
{
    if (static_cast<std::size_t>(end - begin) < kTraceMagic.size()
        || std::memcmp(begin, kTraceMagic.data(), kTraceMagic.size())
               != 0) {
        SYNCRON_FATAL(what << " is not a SynCron trace (bad magic)");
    }
    VarintCursor cur(begin + kTraceMagic.size(), end, what);
    const std::uint64_t version = cur.get();
    if (version == 1) {
        // v1's associated-primitive field was unreliable (see the
        // changelog above); silently accepting it would hand the
        // deadlock analyzer cond_waits with no lock.
        SYNCRON_FATAL(what << " is trace version 1, which is no longer "
                              "readable (its cond_wait records carry no "
                              "reliable associated lock); recapture the "
                              "trace with this build");
    }
    if (version != kTraceVersion) {
        SYNCRON_FATAL(what << " has unsupported trace version " << version
                           << " (this build reads " << kTraceVersion
                           << ")");
    }

    const std::uint64_t units = cur.get();
    const std::uint64_t coresPerUnit = cur.get();
    if (units == 0 || coresPerUnit == 0)
        SYNCRON_FATAL(what << " header describes a machine with no cores");
    if (units > UINT32_MAX || coresPerUnit > UINT32_MAX / units)
        SYNCRON_FATAL(what << " header describes " << units << " units x "
                           << coresPerUnit
                           << " cores, at least 2^32 client cores");
    numUnits_ = static_cast<std::uint32_t>(units);
    coresPerUnit_ = static_cast<std::uint32_t>(coresPerUnit);

    const std::uint64_t primCount = cur.get();
    primitives_.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        primCount, cur.remaining() / kMinPrimitiveBytes)));
    for (std::uint64_t i = 0; i < primCount; ++i) {
        TracePrimitive p;
        p.kind = checkedEnum<PrimKind>(
            cur.get(), static_cast<std::uint64_t>(PrimKind::CondVar),
            "PrimKind", what);
        // Wide fields are range-checked before they are narrowed, so a
        // corrupt value cannot wrap into range.
        const std::uint64_t home = cur.get();
        if (home >= numUnits_)
            SYNCRON_FATAL(what << " primitive " << i << " homed in unit "
                               << home << " of a " << numUnits_
                               << "-unit machine");
        p.home = static_cast<UnitId>(home);
        const std::uint64_t param = cur.get();
        if (param > UINT32_MAX)
            SYNCRON_FATAL(what << " primitive " << i
                               << " has an out-of-range parameter "
                               << param);
        p.param = static_cast<std::uint32_t>(param);
        p.scope = checkedEnum<sync::BarrierScope>(
            cur.get(),
            static_cast<std::uint64_t>(sync::BarrierScope::AcrossUnits),
            "BarrierScope", what);
        primitives_.push_back(p);
    }

    recordCount_ = cur.get();
    records_ = cur.position();
}

bool
TraceDecoder::Cursor::next(TraceRecord &out)
{
    const TraceDecoder &d = dec_;
    if (index_ == d.recordCount_) {
        if (!cur_.atEnd())
            SYNCRON_FATAL("trailing bytes after the last " << d.what_
                                                           << " record");
        return false;
    }

    // Issue ticks stay in [0, 2^63) (prevIssued_ is one), so neither
    // the delta sum nor the latency sum below can overflow.
    const auto prev = static_cast<std::int64_t>(prevIssued_);
    const std::int64_t delta = unzigzag(cur_.get());
    if (delta < -prev || delta > INT64_MAX - prev)
        SYNCRON_FATAL(d.what_ << " record " << index_
                              << " has an issue tick outside [0, 2^63)");
    out.issued = static_cast<Tick>(prev + delta);
    const std::uint64_t latency = cur_.get();
    if (latency > UINT64_MAX - out.issued)
        SYNCRON_FATAL(d.what_ << " record " << index_
                              << " completes past the last tick");
    out.completed = out.issued + latency;
    const std::uint64_t core = cur_.get();
    if (core >= d.numClientCores())
        SYNCRON_FATAL(d.what_ << " record " << index_ << " issued by core "
                              << core << " of a " << d.numClientCores()
                              << "-core machine");
    out.core = static_cast<std::uint32_t>(core);
    out.kind = checkedEnum<sync::OpKind>(
        cur_.get(), static_cast<std::uint64_t>(sync::OpKind::CondBroadcast),
        "OpKind", d.what_);
    const std::uint64_t prim = cur_.get();
    if (prim >= d.primitives_.size())
        SYNCRON_FATAL(d.what_ << " record " << index_
                              << " names unknown primitive " << prim);
    out.prim = static_cast<std::uint32_t>(prim);
    if (primKindOf(out.kind) != d.primitives_[out.prim].kind) {
        SYNCRON_FATAL(d.what_
                      << " record " << index_ << " applies "
                      << sync::opKindName(out.kind) << " to a "
                      << primKindName(d.primitives_[out.prim].kind));
    }
    out.assocPrim = 0;
    if (out.kind == sync::OpKind::CondWait) {
        const std::uint64_t assoc = cur_.get();
        if (assoc >= d.primitives_.size()
            || d.primitives_[assoc].kind != PrimKind::Lock) {
            SYNCRON_FATAL(d.what_ << " record " << index_
                                  << " is a cond_wait without a valid "
                                     "associated lock");
        }
        out.assocPrim = static_cast<std::uint32_t>(assoc);
    }
    prevIssued_ = out.issued;
    ++index_;
    return true;
}

Trace
TraceDecoder::decode() const
{
    Trace t;
    t.numUnits = numUnits_;
    t.clientCoresPerUnit = coresPerUnit_;
    t.primitives = primitives_;
    t.records.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        recordCount_,
        static_cast<std::size_t>(end_ - records_) / kMinRecordBytes)));
    Cursor cur = records();
    TraceRecord rec;
    while (cur.next(rec))
        t.records.push_back(rec);
    return t;
}

void
TraceWriter::write(const Trace &trace)
{
    VarintWriter out(os_, "trace");
    encodeTrace(out, trace.numUnits, trace.clientCoresPerUnit,
                trace.primitives, trace.records);
    out.flush();
}

std::string
readAllBytes(std::istream &is)
{
    // A seekable stream (a file, a string stream) reports how much is
    // left, so the buffer is sized once and filled by one read; the
    // chunk loop then only confirms the end (and carries the whole
    // input for a stream that cannot seek, such as a pipe).
    std::string bytes;
    const std::istream::pos_type here = is.tellg();
    if (here != std::istream::pos_type(-1)) {
        // tellg() succeeds only on a good stream, so clearing the
        // state a failed probe left restores it as it was.
        is.seekg(0, std::ios::end);
        const std::istream::pos_type end = is.tellg();
        is.clear();
        is.seekg(here);
        if (end != std::istream::pos_type(-1) && end > here) {
            bytes.resize(static_cast<std::size_t>(end - here));
            is.read(bytes.data(),
                    static_cast<std::streamsize>(bytes.size()));
            bytes.resize(static_cast<std::size_t>(is.gcount()));
            if (!is.bad())
                is.clear();
        }
    }
    char chunk[1 << 16];
    while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0)
        bytes.append(chunk, static_cast<std::size_t>(is.gcount()));
    if (is.bad())
        SYNCRON_FATAL("stream error while reading");
    return bytes;
}

Trace
TraceReader::read()
{
    const std::string bytes = readAllBytes(is_);
    const auto *begin = reinterpret_cast<const unsigned char *>(bytes.data());
    return TraceDecoder(begin, begin + bytes.size(), "trace").decode();
}

void
writeTraceFile(const Trace &trace, const std::string &path)
{
    // A multi-cell bench run with --trace-out builds one system per
    // grid cell, and every cell's run() lands here with the same path:
    // the file then holds only the last cell's stream. That is legal
    // (and sequential — the --jobs=1 guard rules out races) but easy
    // to mistake for a whole-bench capture, so the overwrite warns.
    {
        static std::mutex mutex;
        static std::map<std::string, unsigned> writes;
        std::lock_guard<std::mutex> lock(mutex);
        if (++writes[path] == 2) {
            SYNCRON_WARN("rewriting trace file '"
                         << path
                         << "' (multi-cell bench? the file keeps only "
                            "the last run's stream)");
        }
    }

    std::ofstream f(path, std::ios::binary);
    if (!f)
        SYNCRON_FATAL("cannot write trace file '" << path << "'");
    TraceWriter(f).write(trace);
}

Trace
readTraceFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        SYNCRON_FATAL("cannot read trace file '" << path << "'");
    return TraceReader(f).read();
}

} // namespace syncron::trace
