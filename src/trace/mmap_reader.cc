#include "trace/mmap_reader.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hh"

namespace syncron::trace {

namespace {

/**
 * RAII file descriptor so every fatal() path between open and mmap
 * still closes the fd (fatal throws, it does not exit).
 */
struct ScopedFd
{
    int fd = -1;
    ~ScopedFd()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

} // namespace

MappedTraceReader::Mapping::Mapping(const std::string &path)
{
    ScopedFd f;
    f.fd = ::open(path.c_str(), O_RDONLY);
    if (f.fd < 0)
        SYNCRON_FATAL("cannot open trace file '" << path << "': "
                                                 << std::strerror(errno));
    struct stat st{};
    if (::fstat(f.fd, &st) != 0)
        SYNCRON_FATAL("cannot stat trace file '" << path << "': "
                                                 << std::strerror(errno));
    if (st.st_size == 0) {
        // mmap(len = 0) is EINVAL; reject explicitly so an empty file
        // reads as a format error, not a system error.
        SYNCRON_FATAL("not a SynCron trace (empty file '" << path
                                                          << "')");
    }
    const std::size_t len = static_cast<std::size_t>(st.st_size);
    void *map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, f.fd, 0);
    if (map == MAP_FAILED)
        SYNCRON_FATAL("cannot mmap trace file '" << path << "': "
                                                 << std::strerror(errno));
    base = static_cast<const unsigned char *>(map);
    bytes = len;
}

MappedTraceReader::Mapping::~Mapping()
{
    ::munmap(const_cast<unsigned char *>(base), bytes);
}

MappedTraceReader::MappedTraceReader(const std::string &path)
    : map_(path),
      decoder_(map_.base, map_.base + map_.bytes, "mapped trace")
{
}

std::array<std::uint64_t, kNumSyncOpKinds>
MappedTraceReader::validateAll() const
{
    std::array<std::uint64_t, kNumSyncOpKinds> counts{};
    RecordCursor cur = records();
    TraceRecord rec;
    while (cur.next(rec))
        ++counts[static_cast<unsigned>(rec.kind)];
    return counts;
}

} // namespace syncron::trace
