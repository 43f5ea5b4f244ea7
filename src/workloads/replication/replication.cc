#include "workloads/replication/replication.hh"

#include "common/log.hh"
#include "common/rng.hh"
#include "system/system.hh"

namespace syncron::workloads {

using core::Core;

namespace {

/** Bursty upstream gap: short within a batch, long between batches. */
std::uint64_t
upstreamGap(Rng &rng, const ReplicationParams &p, unsigned op)
{
    const std::uint64_t mean = p.interval;
    const std::uint64_t jittered =
        mean / 2 + rng.below(mean == 0 ? 1 : mean) + 1;
    if (op != 0 && op % p.burstLen == 0)
        return jittered * 8; // idle gap before the next batch lands
    return jittered;
}

sim::Process
applyLoop(NdpSystem &sys, Core &c, sync::Lock lock, sync::Semaphore sem,
          const std::vector<sync::Barrier> &epochBarriers, Addr watermark,
          ReplicationParams params)
{
    sync::SyncApi &api = sys.api();
    Rng rng(params.seed * 0xd6e8feb86659fd93ULL + c.id() + 1);
    for (unsigned e = 0; e < params.epochs; ++e) {
        for (unsigned op = 0; op < params.opsPerEpoch; ++op) {
            co_await c.compute(upstreamGap(rng, params, op));
            // Admit the record into the bounded apply pipeline, then
            // advance the partition watermark under its lock.
            co_await api.wait(c, sem);
            co_await api.acquire(c, lock);
            api.accessHint(c, watermark, true);
            co_await c.compute(20);
            co_await api.release(c, lock);
            co_await api.post(c, sem);
        }
        co_await api.wait(c, epochBarriers[e]);
    }
}

} // namespace

ReplicationWorkload::ReplicationWorkload(NdpSystem &sys,
                                         const ReplicationParams &params)
{
    SYNCRON_ASSERT(params.epochs >= 1, "replication needs >= 1 epoch");
    SYNCRON_ASSERT(params.opsPerEpoch >= 1,
                   "replication needs >= 1 op per epoch");
    SYNCRON_ASSERT(params.burstLen >= 1,
                   "replication needs burstLen >= 1");
    SYNCRON_ASSERT(params.semResources >= 1,
                   "replication admission needs >= 1 resource");

    sync::SyncApi &api = sys.api();
    const unsigned n = sys.numClientCores();
    const unsigned partitions = sys.config().numUnits;

    // One watermark lock + admission semaphore per partition, homed with
    // the partition's data; the watermark line lives in the same unit.
    for (unsigned p = 0; p < partitions; ++p) {
        locks_.push_back(api.createLock(p));
        sems_.push_back(api.createSemaphore(p, params.semResources));
        watermarks_.push_back(
            sys.machine().addrSpace().allocIn(p, 16, 8));
    }
    for (unsigned e = 0; e < params.epochs; ++e)
        epochBarriers_.push_back(api.createBarrier(0, n));

    for (unsigned i = 0; i < n; ++i) {
        Core &c = sys.clientCore(i);
        const unsigned p = i % partitions;
        sys.spawn(applyLoop(sys, c, locks_[p], sems_[p], epochBarriers_,
                            watermarks_[p], params));
    }
}

} // namespace syncron::workloads
