#include "workloads/datastructures/structures.hh"

#include <algorithm>
#include <bit>

#include "common/bits.hh"

namespace syncron::workloads {

using core::Core;
using core::MemKind;

SimSkipList::SimSkipList(NdpSystem &sys, unsigned initialSize)
    : sys_(sys), heap_(sys, 64, false)
{
    maxLevel_ = std::max(2u, log2Exact(std::bit_ceil(
                                  std::uint64_t{initialSize} + 1)));
    Rng rng(sys.config().seed * 31 + 7);
    std::map<std::uint64_t, unsigned> levels; ///< key -> tower height
    while (levels.size() < initialSize) {
        const std::uint64_t key = rng.next() >> 8;
        if (levels.count(key))
            continue;
        unsigned level = 1;
        while (level < maxLevel_ && rng.chance(0.5))
            ++level;
        levels.emplace(key, level);
    }

    // Nodes are partitioned by key; the per-node locks are created as
    // one set homed with each node's memory (distribute-by-address).
    std::vector<Addr> addrs;
    addrs.reserve(levels.size());
    for (const auto &[key, level] : levels) {
        addrs.push_back(heap_.alloc(
            static_cast<UnitId>(key % sys.config().numUnits)));
    }
    const sync::LockSet locks = sys.api().createLockSetByAddr(addrs);
    std::size_t i = 0;
    for (const auto &[key, level] : levels) {
        nodes_.emplace(key, Node{addrs[i], locks[i], level});
        ++i;
    }
}

std::size_t
SimSkipList::size() const
{
    return nodes_.size() - deleted_.size();
}

sim::Process
SimSkipList::worker(Core &c, unsigned ops)
{
    // Victim choice uses only this worker's rng stream, the
    // run-immutable node map, and this worker's own past unlinks —
    // never the instantaneous shared state — so the operation stream
    // does not depend on how other cores' operations interleave with
    // this one's. Other cores' concurrent
    // deletions stay invisible until the locked section, matching an
    // optimistic traversal over not-yet-reclaimed nodes.
    sync::SyncApi &api = sys_.api();
    std::set<std::uint64_t> mine; ///< keys this worker has unlinked
    for (unsigned i = 0; i < ops; ++i) {
        if (mine.size() >= nodes_.size())
            break;
        // Pick a random key this worker still considers present
        // (deterministic per-core stream); snapshot everything before
        // the first suspension.
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
        const Node pred = predIt->second;
        const bool havePred = predIt != it;
        std::vector<Addr> path;
        path.reserve(maxLevel_);
        for (auto walk = it;; --walk) {
            path.push_back(walk->second.addr);
            if (path.size() >= maxLevel_ || walk == nodes_.begin())
                break;
        }

        // Optimistic search: one dependent node load per level, walking
        // the predecessor towers (medium contention: different cores
        // traverse different regions). Lock-free by design — the locked
        // section re-validates — so these loads carry no access hints.
        for (Addr hop : path) {
            co_await c.load(hop, 16, MemKind::SharedRW);
            co_await c.compute(3);
        }

        // Locked deletion: predecessor + victim, then per-level unlink.
        if (havePred)
            co_await api.acquire(c, pred.lock);
        co_await api.acquire(c, victim.lock);

        // Unlink under the locks. A concurrent deleter of the same key
        // redoes the (idempotent) pointer writes — the optimistic
        // algorithm's retry cost, paid in full.
        for (unsigned lvl = 0; lvl < victim.level; ++lvl) {
            if (havePred) {
                api.accessHint(c, pred.addr + lvl * 8, true);
                co_await c.store(pred.addr + lvl * 8, 8,
                                 MemKind::SharedRW);
            }
            api.accessHint(c, victim.addr + lvl * 8, false);
            co_await c.load(victim.addr + lvl * 8, 8,
                            MemKind::SharedRW);
        }
        mine.insert(key);
        deleted_.insert(key);

        co_await api.release(c, victim.lock);
        if (havePred)
            co_await api.release(c, pred.lock);
        // Neither the victim's memory nor its lock variable is recycled
        // here: another core may still be traversing or queued on it —
        // the same reason ASCYLIB defers reclamation.
        co_await c.compute(10);
    }
}

} // namespace syncron::workloads
