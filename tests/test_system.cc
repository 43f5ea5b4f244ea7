/**
 * @file
 * System-level tests: configuration validation, NdpSystem assembly,
 * SyncApi variable management, deadlock detection, energy model, core
 * memory-kind policies, and the pinned digests of simulated output.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "sync/registry.hh"
#include "system/energy.hh"
#include "system/system.hh"

namespace syncron {
namespace {

TEST(SystemConfig, ValidationRejectsBadTopologies)
{
    SystemConfig cfg;
    cfg.numUnits = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = SystemConfig{};
    cfg.clientCoresPerUnit = cfg.coresPerUnit + 1;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    cfg = SystemConfig{};
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_EQ(cfg.totalClientCores(), 60u);
    EXPECT_EQ(cfg.totalCores(), 64u);
}

TEST(SystemConfig, SchemeNamesAreDistinct)
{
    EXPECT_STREQ(schemeName(Scheme::SynCron), "SynCron");
    EXPECT_STRNE(schemeName(Scheme::Hier), schemeName(Scheme::Central));
}

TEST(NdpSystem, CoresAreDistributedRoundRobinByUnit)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 4, 15));
    EXPECT_EQ(sys.numClientCores(), 60u);
    for (unsigned i = 0; i < 60; ++i) {
        EXPECT_EQ(sys.clientCore(i).unit(), i / 15);
        EXPECT_EQ(sys.clientCore(i).localId(), i % 15);
        EXPECT_EQ(sys.clientCore(i).id(),
                  (i / 15) * 16 + (i % 15)); // 16 cores per unit
    }
}

TEST(NdpSystem, BackendMatchesScheme)
{
    for (Scheme s : {Scheme::Ideal, Scheme::Central, Scheme::Hier,
                     Scheme::SynCron, Scheme::SynCronFlat}) {
        NdpSystem sys(SystemConfig::make(s, 2, 4));
        EXPECT_STREQ(sys.backend().name(), schemeName(s));
        const bool engineBased =
            s == Scheme::SynCron || s == Scheme::Hier;
        EXPECT_EQ(sys.syncronBackend() != nullptr, engineBased);
    }
}

TEST(SyncApi, PrimitivesAreLineAlignedAndHomed)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 4, 4));
    sync::Lock a = sys.api().createLock(2);
    EXPECT_EQ(a.home(), 2u);
    EXPECT_EQ(a.addr % kCacheLineBytes, 0u);

    // destroy + create recycles the line.
    sys.api().destroy(a);
    sync::Lock b = sys.api().createLock(2);
    EXPECT_EQ(b.addr, a.addr);

    // interleaved creation round-robins homes.
    UnitId expect = 0;
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(sys.api().createLockInterleaved().home(), expect);
        expect = (expect + 1) % 4;
    }
}

TEST(SyncApi, LockSetPlacementPolicies)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 4, 4));

    // Empty homes: round-robin across all units.
    sync::LockSet rr = sys.api().createLockSet(8);
    ASSERT_EQ(rr.size(), 8u);
    for (std::size_t i = 0; i < rr.size(); ++i)
        EXPECT_EQ(rr[i].home(), i % 4);

    // Explicit homes are cycled.
    sync::LockSet homed = sys.api().createLockSet(4, {3, 1});
    EXPECT_EQ(homed[0].home(), 3u);
    EXPECT_EQ(homed[1].home(), 1u);
    EXPECT_EQ(homed[2].home(), 3u);
    EXPECT_EQ(homed[3].home(), 1u);

    // By-address: each lock homed with the datum it protects.
    std::vector<Addr> data;
    for (UnitId u : {2u, 0u, 3u})
        data.push_back(sys.machine().addrSpace().allocIn(u, 8, 8));
    sync::LockSet byAddr = sys.api().createLockSetByAddr(data);
    ASSERT_EQ(byAddr.size(), 3u);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_EQ(byAddr[i].home(), mem::unitOfAddr(data[i]));

    // destroy(LockSet&) releases every line and empties the set.
    sys.api().destroy(byAddr);
    EXPECT_TRUE(byAddr.empty());
}

sim::Process
neverGranted(core::Core &c, sync::SyncApi &api, sync::Lock lock)
{
    co_await api.acquire(c, lock);
    co_await api.acquire(c, lock); // self-deadlock: never granted
}

TEST(NdpSystem, DeadlockIsDetectedNotHung)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 1, 2));
    sync::Lock lock = sys.api().createLock(0);
    sys.spawn(neverGranted(sys.clientCore(0), sys.api(), lock));
    EXPECT_THROW(sys.run(), std::runtime_error);
}

sim::Process
memKinds(core::Core &c, Addr privAddr, Addr rwAddr, Tick *privT,
         Tick *rwT)
{
    // Warm the cacheable private line, then time a hit vs an uncached
    // shared-RW access.
    co_await c.load(privAddr, 8, core::MemKind::Private);
    const Tick t0 = c.machine().eq().now();
    co_await c.load(privAddr, 8, core::MemKind::Private);
    *privT = c.machine().eq().now() - t0;
    const Tick t1 = c.machine().eq().now();
    co_await c.load(rwAddr, 8, core::MemKind::SharedRW);
    *rwT = c.machine().eq().now() - t1;
}

TEST(Core, SharedRwBypassesTheL1)
{
    NdpSystem sys(SystemConfig::make(Scheme::Ideal, 1, 2));
    Addr privAddr = sys.machine().addrSpace().allocIn(0, 64);
    Addr rwAddr = sys.machine().addrSpace().allocIn(0, 64);
    Tick privT = 0, rwT = 0;
    sys.spawn(memKinds(sys.clientCore(0), privAddr, rwAddr, &privT,
                       &rwT));
    sys.run();
    // Cached hit: 4 core cycles = 1.6 ns. Uncached: full DRAM round
    // trip, at least several ns.
    EXPECT_EQ(privT, 4 * 400u);
    EXPECT_GT(rwT, privT * 3);
    EXPECT_GT(sys.stats().l1Hits, 0u);
}

TEST(Energy, BreakdownTracksConfigCoefficients)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 2);
    SystemStats stats;
    stats.l1Hits = 1000;
    stats.l1Misses = 100;
    stats.xbarBitHops = 1'000'000;
    stats.linkBits = 10'000;
    stats.dramReads = 50;
    stats.dramWrites = 50;

    EnergyBreakdown e = computeEnergy(stats, cfg);
    EXPECT_DOUBLE_EQ(e.cacheJ, (1000 * 23.0 + 100 * 47.0) * 1e-12);
    EXPECT_DOUBLE_EQ(e.networkJ,
                     (1'000'000 * 0.4 + 10'000 * 4.0) * 1e-12);
    EXPECT_DOUBLE_EQ(e.memoryJ, 100 * 64 * 8 * 7.0 * 1e-12);
    EXPECT_DOUBLE_EQ(e.total(), e.cacheJ + e.networkJ + e.memoryJ);

    // DDR4 memory energy per access is higher.
    cfg.dramTech = mem::DramTech::Ddr4;
    EXPECT_GT(computeEnergy(stats, cfg).memoryJ, e.memoryJ);
}

TEST(Opcodes, ClassificationIsConsistent)
{
    using namespace sync;
    EXPECT_TRUE(isAcquireType(OpKind::LockAcquire));
    EXPECT_TRUE(isReleaseType(OpKind::LockRelease));
    EXPECT_TRUE(isAcquireType(OpKind::CondWait));
    EXPECT_TRUE(isReleaseType(OpKind::CondBroadcast));
    EXPECT_TRUE(isGlobalOp(Op::LockAcquireGlobal));
    EXPECT_TRUE(isOverflowOp(Op::SemGrantOverflow));
    EXPECT_FALSE(isOverflowOp(Op::SemGrantGlobal));
    EXPECT_TRUE(isAcquireOp(Op::BarrierWaitOverflow));
    EXPECT_TRUE(isReleaseOp(Op::CondBroadOverflow));
    // Every opcode has a printable, non-"?" name.
    for (int op = 0;
         op <= static_cast<int>(Op::DecreaseIndexingCounter); ++op)
        EXPECT_STRNE(opName(static_cast<Op>(op)), "?");
}

// -- Pinned simulated output -------------------------------------------

/** FNV-1a over the 8 little-endian bytes of @p value. */
std::uint64_t
digestMix(std::uint64_t h, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xffU;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Everything a run simulated: final tick, operation count, every
 * SystemStats counter by name, the full per-OpKind latency histograms,
 * and the open-loop accounting. Host-side counters are left out.
 */
std::uint64_t
digestOf(const harness::RunOutput &out)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = digestMix(h, out.time);
    h = digestMix(h, out.ops);
    out.stats.forEach([&h](const std::string &name, double value) {
        for (char c : name)
            h = digestMix(h, static_cast<unsigned char>(c));
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        h = digestMix(h, bits);
    });
    for (const SyncOpLatency &lat : out.stats.syncLatency) {
        h = digestMix(h, lat.count);
        h = digestMix(h, lat.totalTicks);
        h = digestMix(h, lat.minTicks);
        h = digestMix(h, lat.maxTicks);
        for (std::uint64_t b : lat.hist)
            h = digestMix(h, b);
    }
    for (std::uint64_t v : {out.offeredOps, out.issuedOps, out.droppedOps,
                            out.queuedOps, out.queueDelayTicks})
        h = digestMix(h, v);
    return h;
}

/** Small cell config; the analyzer rides along and must find nothing. */
SystemConfig
goldenCfg(Scheme scheme)
{
    SystemConfig cfg = SystemConfig::make(scheme, 4, 8);
    cfg.analyze = true;
    return cfg;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

TEST(SimulatedOutput, DigestIsFixed)
{
    // Any change to these constants is a change to what the simulator
    // computes — event order, timing, or a counter — and must be
    // deliberate. Host-speed work (kernel, transport, observers) has to
    // leave every one of them untouched.
    struct Golden
    {
        std::string cell;
        std::uint64_t digest;
    };
    const std::vector<Golden> golden = {
        {"lock/Central", 0x7eb623d6d9f0246cULL},
        {"lock/Hier", 0xdbb0e04c90ce011bULL},
        {"lock/Ideal", 0x467ac811db24fcc5ULL},
        {"lock/SynCron", 0xaecac3eb54d092edULL},
        {"lock/SynCron-flat", 0x9df0c2d968418722ULL},
        {"lock/SynCron_CentralOvrfl", 0xaecac3eb54d092edULL},
        {"lock/SynCron_DistribOvrfl", 0xaecac3eb54d092edULL},
        {"Stack/SynCron", 0xc05a59686487ed5dULL},
        {"Skip List/SynCron", 0xd19d61511143a244ULL},
        {"Stack/Central", 0xfffcc1ee58a55e31ULL},
        {"Skip List/Central", 0xda30fe4cfd1e21c8ULL},
        {"Skip List/SynCron_CentralOvrfl/st2", 0x84579c4459c2e8b7ULL},
        {"Skip List/SynCron_DistribOvrfl/st2", 0xee4999a30740e000ULL},
        {"openloop/SynCron", 0x9e64da9bf37fd749ULL},
        {"replication/SynCron", 0x6122bc801b1fab2fULL},
    };

    std::vector<Golden> got;
    for (const std::string &name : sync::BackendRegistry::instance().names()) {
        Scheme scheme;
        ASSERT_TRUE(schemeFromName(name, scheme)) << name;
        got.push_back({"lock/" + name,
                       digestOf(harness::runPrimitive(
                           goldenCfg(scheme), workloads::Primitive::Lock,
                           100, 12))});
    }
    for (Scheme scheme : {Scheme::SynCron, Scheme::Central}) {
        for (harness::DsKind kind :
             {harness::DsKind::Stack, harness::DsKind::SkipList}) {
            got.push_back({std::string(harness::dsName(kind)) + "/"
                               + schemeName(scheme),
                           digestOf(harness::runDataStructure(
                               goldenCfg(scheme), kind, 128, 12))});
        }
    }
    // The ablation backends only differ from SynCron once the ST
    // overflows; a two-entry ST makes the SkipList's locks spill.
    for (Scheme scheme :
         {Scheme::SynCronCentralOvrfl, Scheme::SynCronDistribOvrfl}) {
        SystemConfig cfg = goldenCfg(scheme);
        cfg.stEntries = 2;
        got.push_back({std::string("Skip List/") + schemeName(scheme)
                           + "/st2",
                       digestOf(harness::runDataStructure(
                           cfg, harness::DsKind::SkipList, 128, 12))});
    }
    load::LoadSpec spec;
    spec.ratePerUs = 4.0;
    spec.opsPerCore = 16;
    spec.numLocks = 8;
    got.push_back({"openloop/SynCron",
                   digestOf(harness::runOpenLoop(goldenCfg(Scheme::SynCron),
                                                 spec))});
    workloads::ReplicationParams params;
    params.epochs = 4;
    params.opsPerEpoch = 8;
    SystemConfig persisted = goldenCfg(Scheme::SynCron);
    persisted.persistMode = durability::PersistMode::Eager;
    got.push_back({"replication/SynCron",
                   digestOf(harness::runReplication(persisted, params))});

    std::string table;
    for (const Golden &g : got)
        table += "        {\"" + g.cell + "\", " + hex(g.digest) + "ULL},\n";
    ASSERT_EQ(got.size(), golden.size()) << table;
    for (std::size_t i = 0; i < golden.size(); ++i) {
        EXPECT_EQ(got[i].cell, golden[i].cell);
        EXPECT_EQ(hex(got[i].digest), hex(golden[i].digest))
            << got[i].cell << "; this run's table:\n" << table;
    }
}

} // namespace
} // namespace syncron
