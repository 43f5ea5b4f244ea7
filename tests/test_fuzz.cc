/**
 * @file
 * Seeded mutation fuzz of the container decoders and of replay.
 *
 * Two seed inputs come from one live run: the SYNCTRC file its capture
 * wrote and the SYNCDUR image of its eager write-ahead log. A
 * deterministic mutator derives a few hundred variants of each — byte
 * flips, truncations, insertions, and overlong varints — and every
 * variant must end cleanly:
 *
 *   - each reader either decodes it or throws std::runtime_error (any
 *     other exception, a signal or std::terminate fails the test);
 *   - the streaming reader and the mmap reader agree on accept versus
 *     reject, and on the decoded Trace when both accept;
 *   - an accepted trace replays on Central and on SynCron to the end
 *     or throws a std::exception;
 *   - an accepted image re-encodes and decodes to itself.
 *
 * The mutator is in-tree (no libFuzzer); the sanitizer CI matrix runs
 * this test under ASan+UBSan and TSan like every other ctest binary.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.hh"
#include "durability/image.hh"
#include "durability/manager.hh"
#include "harness/runner.hh"
#include "system/system.hh"
#include "trace/format.hh"
#include "trace/mmap_reader.hh"
#include "trace/replay.hh"
#include "workloads/replication/replication.hh"

namespace syncron {
namespace {

constexpr int kTraceMutants = 500;
constexpr int kImageMutants = 300;

/** The two seed inputs, both from one small captured run. */
struct Seeds
{
    std::string trace; ///< SYNCTRC file bytes
    std::string image; ///< SYNCDUR image bytes
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return trace::readAllBytes(f);
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good()) << "cannot write " << path;
}

Seeds
captureSeeds()
{
    const std::string path = "test_fuzz_seed.trc";
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 2);
    cfg.tracePath = path;
    cfg.persistMode = durability::PersistMode::Eager;
    workloads::ReplicationParams params;
    params.epochs = 2;
    params.opsPerEpoch = 2;

    Seeds seeds;
    NdpSystem sys(cfg);
    workloads::ReplicationWorkload w(sys, params);
    sys.run();
    seeds.trace = fileBytes(path);
    std::remove(path.c_str());
    std::ostringstream os;
    durability::writeImage(os, sys.durability()->snapshot());
    seeds.image = os.str();
    return seeds;
}

/**
 * Applies one mutation to @p bytes and returns its description. The
 * overlong-varint mutation sets the continuation bit on one byte and
 * follows it with a run of zero-payload continuation bytes: at the end
 * of a varint that is a valid but overlong encoding of the same value,
 * and past ten bytes it is a varint longer than 64 bits.
 */
std::string
mutate(std::string &bytes, Rng &rng)
{
    const auto pos = [&](std::size_t extra) {
        return static_cast<std::size_t>(rng.below(bytes.size() + extra));
    };
    std::ostringstream what;
    // An empty buffer (a truncation to 0 bytes) can only grow.
    switch (bytes.empty() ? 2 : rng.below(4)) {
      case 0: {
        const unsigned flips = 1 + static_cast<unsigned>(rng.below(3));
        what << "flip";
        for (unsigned i = 0; i < flips; ++i) {
            const std::size_t at = pos(0);
            const auto mask = static_cast<char>(1 + rng.below(255));
            bytes[at] = static_cast<char>(bytes[at] ^ mask);
            what << " @" << at;
        }
        break;
      }
      case 1: {
        const std::size_t len = pos(0);
        what << "truncate to " << len;
        bytes.resize(len);
        break;
      }
      case 2: {
        const std::size_t at = pos(1);
        std::string junk(1 + rng.below(8), '\0');
        for (char &c : junk)
            c = static_cast<char>(rng.below(256));
        what << "insert " << junk.size() << " @" << at;
        bytes.insert(at, junk);
        break;
      }
      default: {
        const std::size_t at = pos(0);
        const std::size_t run = 1 + rng.below(11);
        what << "overlong x" << run << " @" << at;
        bytes[at] = static_cast<char>(bytes[at] | 0x80);
        bytes.insert(at + 1, std::string(run, '\x80') + '\0');
        break;
      }
    }
    return what.str();
}

std::optional<trace::Trace>
streamingDecode(const std::string &path)
{
    try {
        return trace::readTraceFile(path);
    } catch (const std::runtime_error &) {
        return std::nullopt;
    }
}

std::optional<trace::Trace>
mappedDecode(const std::string &path)
{
    try {
        const trace::MappedTraceReader reader(path);
        reader.validateAll();
        return reader.materialize();
    } catch (const std::runtime_error &) {
        return std::nullopt;
    }
}

std::optional<durability::PersistedImage>
imageDecode(const std::string &bytes)
{
    std::istringstream is(bytes);
    try {
        return durability::readImage(is);
    } catch (const std::runtime_error &) {
        return std::nullopt;
    }
}

class CodecFuzz : public ::testing::Test
{
  protected:
    static void SetUpTestSuite() { seeds_ = captureSeeds(); }

    static Seeds seeds_;
};

Seeds CodecFuzz::seeds_;

TEST_F(CodecFuzz, SeedsDecode)
{
    const std::string path = "test_fuzz_seed_check.trc";
    writeBytes(path, seeds_.trace);
    const auto streamed = streamingDecode(path);
    const auto mapped = mappedDecode(path);
    std::remove(path.c_str());
    ASSERT_TRUE(streamed.has_value());
    ASSERT_TRUE(mapped.has_value());
    EXPECT_EQ(*streamed, *mapped);
    EXPECT_FALSE(streamed->records.empty());
    EXPECT_TRUE(imageDecode(seeds_.image).has_value());
}

TEST_F(CodecFuzz, TraceMutantsDecodeOrRejectAndReplayCleanly)
{
    const std::string path = "test_fuzz_mutant.trc";
    Rng rng(0x5c7c0de);
    int accepted = 0;
    int replayedCentral = 0;
    int replayedSynCron = 0;
    for (int i = 0; i < kTraceMutants; ++i) {
        std::string bytes = seeds_.trace;
        std::string what = mutate(bytes, rng);
        if (rng.chance(0.2))
            what += ", " + mutate(bytes, rng);
        SCOPED_TRACE("trace mutant " + std::to_string(i) + ": " + what);
        writeBytes(path, bytes);

        const auto streamed = streamingDecode(path);
        const auto mapped = mappedDecode(path);
        ASSERT_EQ(streamed.has_value(), mapped.has_value());
        if (!streamed)
            continue;
        ASSERT_EQ(*streamed, *mapped);
        ++accepted;
        for (const auto &[scheme, replayed] :
             {std::pair{Scheme::Central, &replayedCentral},
              std::pair{Scheme::SynCron, &replayedSynCron}}) {
            SCOPED_TRACE(std::string("replay on ") + schemeName(scheme));
            try {
                harness::runTrace(trace::replayConfig(*streamed, scheme),
                                  *streamed);
                ++*replayed;
            } catch (const std::exception &) {
                // A clean rejection by the replay path is a pass.
            }
        }
    }
    std::remove(path.c_str());
    // Not vacuous: some mutants survive decoding (overlong varints,
    // flips inside tick deltas) and some of those replay to the end.
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kTraceMutants);
    EXPECT_GT(replayedCentral, 0);
    EXPECT_GT(replayedSynCron, 0);
}

TEST_F(CodecFuzz, ImageMutantsDecodeOrReject)
{
    Rng rng(0xd0ab1e);
    int accepted = 0;
    for (int i = 0; i < kImageMutants; ++i) {
        std::string bytes = seeds_.image;
        std::string what = mutate(bytes, rng);
        if (rng.chance(0.2))
            what += ", " + mutate(bytes, rng);
        SCOPED_TRACE("image mutant " + std::to_string(i) + ": " + what);

        const auto img = imageDecode(bytes);
        if (!img)
            continue;
        ++accepted;
        // An accepted image is a valid one: it re-encodes, and the
        // re-encoding decodes to the same image.
        std::ostringstream os;
        durability::writeImage(os, *img);
        const auto again = imageDecode(os.str());
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(*again, *img);
    }
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, kImageMutants);
}

} // namespace
} // namespace syncron
