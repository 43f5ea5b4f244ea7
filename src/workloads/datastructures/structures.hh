/**
 * @file
 * The nine lock-based concurrent data structures of the paper's Table 6,
 * reimplemented against the simulated-core API with the same lock
 * pattern and memory-access skeleton as their originals:
 *
 *   Structure        | Config (paper)     | Contention | Locking
 *   -----------------|--------------------|------------|------------------
 *   Stack            | 100 K, 100% push   | high       | one coarse Lock
 *   Queue            | 100 K, 100% pop    | high       | head/tail Locks
 *   Array Map        | 10, 100% lookup    | high       | coarse, larger CS
 *   Priority Queue   | 20 K, deleteMin    | high       | coarse (heap)
 *   Skip List        | 5 K, deletion      | medium     | per-node LockSet
 *   Hash Table       | 1 K, 100% lookup   | medium     | per-bucket LockSet
 *   Linked List      | 20 K, lookup       | low        | ScopedLock chain
 *   BST_FG           | 20 K, lookup       | low        | ScopedLock chain
 *   BST_Drachsler    | 10 K, deletion     | very low   | 2 locks/delete
 *
 * All locking goes through the typed handles: coarse structures hold one
 * sync::Lock, fine-grained structures create their whole per-node /
 * per-bucket population in one SyncApi::createLockSet[ByAddr]() call
 * (locks homed with the data they protect), and the hand-over-hand
 * traversals (linked list, BST_FG) are sync::ScopedLock chains — the
 * guard of the next node is acquired before the previous guard is
 * released.
 *
 * Every structure exposes worker(core, ops): a coroutine performing the
 * Table 6 operation mix, plus host-side shadow state for verification.
 * Data is statically partitioned across NDP units (nodes of the BSTs are
 * distributed randomly), mirroring Section 5.
 */

#ifndef SYNCRON_WORKLOADS_DATASTRUCTURES_STRUCTURES_HH
#define SYNCRON_WORKLOADS_DATASTRUCTURES_STRUCTURES_HH

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "workloads/datastructures/node_heap.hh"

namespace syncron::workloads {

/** Treiber-style stack protected by one coarse-grained lock. */
class SimStack
{
  public:
    SimStack(NdpSystem &sys, unsigned initialSize);
    /** 100% push. */
    sim::Process worker(core::Core &c, unsigned ops);
    std::size_t size() const { return shadow_.size(); }

  private:
    NdpSystem &sys_;
    NodeHeap heap_;
    sync::Lock lock_;
    Addr topAddr_;
    std::vector<Addr> shadow_;
};

/** Michael-Scott two-lock queue. */
class SimQueue
{
  public:
    SimQueue(NdpSystem &sys, unsigned initialSize);
    /** 100% pop (dequeue). */
    sim::Process worker(core::Core &c, unsigned ops);
    std::size_t size() const { return shadow_.size(); }
    std::uint64_t emptyPops() const { return emptyPops_; }

  private:
    NdpSystem &sys_;
    NodeHeap heap_;
    sync::Lock headLock_;
    sync::Lock tailLock_;
    Addr headAddr_;
    std::vector<Addr> shadow_; ///< front = head
    std::size_t headIdx_ = 0;
    std::uint64_t emptyPops_ = 0;
};

/** Small array map with one coarse lock and a larger critical section. */
class SimArrayMap
{
  public:
    SimArrayMap(NdpSystem &sys, unsigned entries = 10);
    /** 100% lookup (scans the whole array under the lock). */
    sim::Process worker(core::Core &c, unsigned ops);

  private:
    NdpSystem &sys_;
    sync::Lock lock_;
    Addr baseAddr_;
    unsigned entries_;
};

/** Binary min-heap priority queue under one coarse lock. */
class SimPriorityQueue
{
  public:
    SimPriorityQueue(NdpSystem &sys, unsigned initialSize);
    /** 100% deleteMin. */
    sim::Process worker(core::Core &c, unsigned ops);
    std::size_t size() const { return heapShadow_.size(); }
    bool popsWereOrdered() const { return ordered_; }

  private:
    NdpSystem &sys_;
    sync::Lock lock_;
    Addr baseAddr_;
    std::vector<std::uint64_t> heapShadow_;
    std::uint64_t lastPopped_ = 0;
    bool ordered_ = true;
};

/**
 * Skip list with per-node locks (optimistic search, locked delete).
 *
 * Determinism: the node map is immutable during the
 * run and each worker tracks its own unlinks privately, so a worker
 * traverses a stale-but-deterministic view of the list (it cannot see
 * other cores' deletions — the optimistic-search behavior over
 * not-yet-reclaimed nodes). Physical reclamation is deferred to
 * teardown, the same reason ASCYLIB defers it.
 */
class SimSkipList
{
  public:
    SimSkipList(NdpSystem &sys, unsigned initialSize);
    /** 100% deletion. */
    sim::Process worker(core::Core &c, unsigned ops);
    /** Nodes still logically present (valid at quiescence only). */
    std::size_t size() const;

  private:
    struct Node
    {
        Addr addr;
        sync::Lock lock;
        unsigned level;
    };

    NdpSystem &sys_;
    NodeHeap heap_;
    std::map<std::uint64_t, Node> nodes_; ///< key -> node; run-immutable
    unsigned maxLevel_;
    /// Keys unlinked by any worker — host bookkeeping for size() only,
    /// never read during the run.
    std::set<std::uint64_t> deleted_;
};

/** Chained hash table with per-bucket locks. */
class SimHashTable
{
  public:
    SimHashTable(NdpSystem &sys, unsigned initialSize);
    /** 100% lookup. */
    sim::Process worker(core::Core &c, unsigned ops);
    std::uint64_t hits() const { return hits_; }

  private:
    NdpSystem &sys_;
    NodeHeap heap_;
    sync::LockSet bucketLocks_;
    std::vector<std::vector<std::pair<std::uint64_t, Addr>>> buckets_;
    std::uint64_t keyRange_;
    /// Successful lookups; read at quiescence.
    std::uint64_t hits_ = 0;
};

/** Sorted singly-linked list with hand-over-hand (coupling) locking. */
class SimLinkedList
{
  public:
    SimLinkedList(NdpSystem &sys, unsigned initialSize);
    /** 100% lookup. */
    sim::Process worker(core::Core &c, unsigned ops);
    std::size_t size() const { return nodes_.size(); }

  private:
    struct Node
    {
        std::uint64_t key;
        Addr addr;
        sync::Lock lock;
    };

    NdpSystem &sys_;
    NodeHeap heap_;
    std::vector<Node> nodes_; ///< sorted by key; index = position
};

/** Internal BST with fine-grained hand-over-hand locking (BST_FG). */
class SimBstFg
{
  public:
    SimBstFg(NdpSystem &sys, unsigned initialSize);
    /** 100% lookup. */
    sim::Process worker(core::Core &c, unsigned ops);
    std::size_t size() const { return nodes_.size(); }
    unsigned depth() const;

  private:
    struct Node
    {
        std::uint64_t key;
        Addr addr;
        sync::Lock lock;
        int left = -1;
        int right = -1;
    };

    int insertShadow(std::uint64_t key, Addr addr, sync::Lock lock);

    NdpSystem &sys_;
    NodeHeap heap_;
    std::vector<Node> nodes_;
    int root_ = -1;
};

/**
 * Drachsler-style BST with logical ordering: lookups/searches are
 * lock-free; a deletion locks only the victim and its predecessor
 * (lock requests are ~0.1% of memory requests).
 *
 * Follows the same determinism discipline as SimSkipList: the
 * node map is run-immutable, deletions are tracked per worker, and
 * reclamation is deferred to teardown.
 */
class SimBstDrachsler
{
  public:
    SimBstDrachsler(NdpSystem &sys, unsigned initialSize);
    /** 100% deletion. */
    sim::Process worker(core::Core &c, unsigned ops);
    /** Nodes still logically present (valid at quiescence only). */
    std::size_t size() const;

  private:
    struct Node
    {
        Addr addr;
        sync::Lock lock;
    };

    NdpSystem &sys_;
    NodeHeap heap_;
    std::map<std::uint64_t, Node> nodes_; ///< run-immutable
    /// Unlinked keys — host bookkeeping for size(), quiescence only.
    std::set<std::uint64_t> deleted_;
};

} // namespace syncron::workloads

#endif // SYNCRON_WORKLOADS_DATASTRUCTURES_STRUCTURES_HH
