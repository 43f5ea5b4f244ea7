#include "workloads/datastructures/structures.hh"

#include <bit>
#include <set>

namespace syncron::workloads {

using core::Core;
using core::MemKind;

SimBstDrachsler::SimBstDrachsler(NdpSystem &sys, unsigned initialSize)
    : sys_(sys), heap_(sys, 64, true) // distributed randomly
{
    Rng rng(sys.config().seed * 41 + 9);
    std::set<std::uint64_t> keys;
    while (keys.size() < initialSize)
        keys.insert(rng.next() >> 8);

    // Nodes distributed randomly; each node's lock homed with it.
    std::vector<Addr> addrs;
    addrs.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        addrs.push_back(heap_.alloc());
    const sync::LockSet locks = sys.api().createLockSetByAddr(addrs);
    std::size_t i = 0;
    for (std::uint64_t key : keys) {
        nodes_.emplace(key, Node{addrs[i], locks[i]});
        ++i;
    }
}

std::size_t
SimBstDrachsler::size() const
{
    std::lock_guard<std::mutex> lock(deletedMu_);
    return nodes_.size() - deleted_.size();
}

sim::Process
SimBstDrachsler::worker(Core &c, unsigned ops)
{
    // Drachsler-style deletion: the search descends the tree lock-free
    // (logical ordering), reads the node's payload, and only then locks
    // the victim and its predecessor for the physical unlink. Lock
    // traffic is a tiny fraction of the memory traffic, so all
    // synchronization schemes perform similarly here (Section 6.1.2).
    //
    // Victim choice depends only on this worker's rng stream, the
    // run-immutable node map, and its own past unlinks (see
    // SimSkipList).
    sync::SyncApi &api = sys_.api();
    std::set<std::uint64_t> mine; ///< keys this worker has unlinked
    for (unsigned i = 0; i < ops; ++i) {
        if (mine.size() + 2 > nodes_.size())
            break;
        // Snapshot key/victim/pred/path before the first suspension.
        auto it = nodes_.lower_bound(c.rng().next() >> 8);
        if (it == nodes_.end())
            it = std::prev(nodes_.end());
        while (mine.count(it->first) != 0) {
            ++it;
            if (it == nodes_.end())
                it = nodes_.begin();
        }
        const std::uint64_t key = it->first;
        const Node victim = it->second;
        auto predIt = it == nodes_.begin() ? it : std::prev(it);
        const bool havePred = predIt != it;
        const Node pred = predIt->second;
        const std::size_t pathLen =
            3 * (63 - std::countl_zero(nodes_.size() | 1));
        std::vector<Addr> path;
        path.reserve(pathLen);
        for (auto walk = it;; --walk) {
            path.push_back(walk->second.addr);
            if (path.size() >= pathLen || walk == nodes_.begin())
                break;
        }

        // Lock-free search: ~3 * log2(n) dependent reads (search +
        // logical-ordering validation), then the 64 B payload. These
        // reads are lock-free by design (the locked section
        // re-validates), so they carry no access hints.
        for (Addr hop : path)
            co_await c.load(hop, 16, MemKind::SharedRW);
        co_await c.load(victim.addr, 64, MemKind::SharedRW);
        co_await c.compute(60); // value processing

        if (havePred)
            co_await api.acquire(c, pred.lock);
        co_await api.acquire(c, victim.lock);
        // Unlink under the locks; a concurrent deleter of the same key
        // redoes the idempotent pointer writes (optimistic retry cost).
        // Reclamation is deferred to teardown.
        api.accessHint(c, victim.addr, true);
        co_await c.store(victim.addr, 16, MemKind::SharedRW);
        if (havePred) {
            api.accessHint(c, pred.addr, true);
            co_await c.store(pred.addr, 16, MemKind::SharedRW);
        }
        mine.insert(key);
        {
            std::lock_guard<std::mutex> lock(deletedMu_);
            deleted_.insert(key);
        }
        co_await api.release(c, victim.lock);
        if (havePred)
            co_await api.release(c, pred.lock);
        co_await c.compute(10);
    }
}

} // namespace syncron::workloads
