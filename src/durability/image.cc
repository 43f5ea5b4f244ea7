#include "durability/image.hh"

#include <algorithm>
#include <climits>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "common/log.hh"
#include "trace/varint.hh"

namespace syncron::durability {

void
writeImage(std::ostream &os, const PersistedImage &img)
{
    SYNCRON_ASSERT(img.appended >= img.records.size(),
                   "image appended count " << img.appended
                                           << " below durable count "
                                           << img.records.size());
    trace::VarintWriter out(os, "persisted image");
    out.bytes(kImageMagic, sizeof(kImageMagic));
    out.put(kImageVersion);
    out.put(static_cast<std::uint64_t>(img.mode));
    out.put(img.epochOps);
    out.put(img.crashTick);
    out.put(img.appended);
    trace::encodeTrace(out, img.numUnits, img.clientCoresPerUnit,
                       img.primitives, img.records);
    out.flush();
}

PersistedImage
readImage(std::istream &is)
{
    const std::string bytes = trace::readAllBytes(is);
    const auto *begin =
        reinterpret_cast<const unsigned char *>(bytes.data());
    const unsigned char *end = begin + bytes.size();
    if (bytes.size() < sizeof(kImageMagic)
        || !std::equal(kImageMagic, kImageMagic + sizeof(kImageMagic),
                       bytes.data()))
        SYNCRON_FATAL("not a SynCron persisted image (bad magic)");

    trace::VarintCursor cur(begin + sizeof(kImageMagic), end,
                            "persisted image");
    const std::uint64_t version = cur.get();
    if (version != kImageVersion) {
        SYNCRON_FATAL("unsupported persisted-image version "
                      << version << " (this build reads version "
                      << kImageVersion << ")");
    }

    PersistedImage img;
    const std::uint64_t mode = cur.get();
    if (mode > static_cast<std::uint64_t>(PersistMode::Epoch))
        SYNCRON_FATAL("persisted image contains out-of-range persist "
                      "mode value "
                      << mode);
    img.mode = static_cast<PersistMode>(mode);
    const std::uint64_t epochOps = cur.get();
    if (epochOps > UINT32_MAX)
        SYNCRON_FATAL("persisted image contains out-of-range epoch size "
                      << epochOps);
    img.epochOps = static_cast<std::uint32_t>(epochOps);
    img.crashTick = cur.get();
    img.appended = cur.get();

    trace::Trace wal =
        trace::TraceDecoder(cur.position(), end, "persisted image")
            .decode();
    if (img.appended < wal.records.size())
        SYNCRON_FATAL("image appended count " << img.appended
                                              << " below durable count "
                                              << wal.records.size());
    img.numUnits = wal.numUnits;
    img.clientCoresPerUnit = wal.clientCoresPerUnit;
    img.primitives = std::move(wal.primitives);
    img.records = std::move(wal.records);
    return img;
}

} // namespace syncron::durability
