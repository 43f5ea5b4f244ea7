#include "workloads/datastructures/structures.hh"

namespace syncron::workloads {

using core::Core;
using core::MemKind;

SimHashTable::SimHashTable(NdpSystem &sys, unsigned initialSize)
    : sys_(sys), heap_(sys, 32, false), keyRange_(initialSize * 2)
{
    // One bucket per ~4 elements, per-bucket locks homed with the bucket.
    const std::size_t numBuckets = std::max<std::size_t>(
        4, initialSize / 4);
    buckets_.resize(numBuckets);
    std::vector<UnitId> homes;
    homes.reserve(numBuckets);
    for (std::size_t b = 0; b < numBuckets; ++b)
        homes.push_back(static_cast<UnitId>(b % sys.config().numUnits));
    bucketLocks_ = sys.api().createLockSet(numBuckets, homes);

    Rng rng(sys.config().seed * 13 + 3);
    for (unsigned i = 0; i < initialSize; ++i) {
        const std::uint64_t key = rng.below(keyRange_);
        const std::size_t b = key % numBuckets;
        buckets_[b].emplace_back(
            key, heap_.alloc(static_cast<UnitId>(
                     b % sys.config().numUnits)));
    }
}

sim::Process
SimHashTable::worker(Core &c, unsigned ops)
{
    sync::SyncApi &api = sys_.api();
    for (unsigned i = 0; i < ops; ++i) {
        // 100% lookup: hash, lock the bucket, chase the chain.
        const std::uint64_t key = c.rng().below(keyRange_);
        const std::size_t b = key % buckets_.size();
        sync::ScopedLock guard = co_await api.scoped(c, bucketLocks_[b]);
        bool found = false;
        for (const auto &[k, addr] : buckets_[b]) {
            api.accessHint(c, addr, false);
            co_await c.load(addr, 16, MemKind::SharedRW);
            co_await c.compute(2);
            if (k == key) {
                found = true;
                break;
            }
        }
        if (found)
            ++hits_;
        co_await guard.unlock();
        co_await c.compute(10);
    }
}

} // namespace syncron::workloads
