/**
 * @file
 * The sync-correctness analysis engine: three analyses over one
 * synchronization-operation event stream.
 *
 *  1. Eraser-style lockset race checker. Workloads report accesses to
 *     lock-protected shadow state through SyncApi::accessHint(); the
 *     checker refines, per address, the candidate set of locks that
 *     were held on every access, through the classic state machine
 *     (Virgin -> Exclusive -> Shared -> SharedModified, refining only
 *     once a second core appears so single-owner initialization never
 *     false-positives) and reports a write whose candidate set is
 *     empty, with the previous writer as witness.
 *
 *  2. Lock-order deadlock analyzer. Maintains each core's held-lock
 *     set from the operation stream (LockSet members are ordinary
 *     locks; ScopedLock scope-exit releases appear as detached release
 *     records; cond_wait counts as release of the associated lock at
 *     issue and reacquisition at completion) and accumulates the
 *     held-before graph: an edge A -> B for every acquire of B while
 *     holding A, with the first (core, ticks) witness kept per edge.
 *     finish() reports every cycle with its full witness path.
 *
 *  3. Misuse linter. Release-without-acquire and double-release
 *     (per-lock owner tracking), barrier arity vs the machine shape
 *     and vs the first-seen arity of the same barrier, semaphore
 *     underflow (waits granted beyond initial resources + posts, on a
 *     tick-ordered merge so asynchronous post completion never
 *     reorders the accounting), pending-operation leaks at teardown
 *     (live only: issue events have no offline counterpart), and locks
 *     still held at teardown.
 *
 * The engine is deliberately driven by plain OpEvent values rather
 * than live simulator types: the live path (analysis::LiveAnalyzer)
 * and the offline path (analysis::analyzeTrace) feed the same engine,
 * and tests can seed defect scenarios directly.
 *
 * Stream contract: events arrive in completion order, which equals
 * simulation-event order (per core this is program order — the cores
 * are in-order). Primitive identities are dense ids, never recycled
 * within one engine's lifetime.
 *
 * Both kinds of key are dense from 0 — core ids are client-core
 * indices, primitive ids the trace table's or the live observer's
 * minted ids — so per-core and per-primitive state lives in vectors
 * indexed by id (grown on first use) and the seen/stale sets are bit
 * vectors. Reports walk those vectors in id order, which is the order
 * the findings always came in.
 */

#ifndef SYNCRON_ANALYSIS_ANALYZERS_HH
#define SYNCRON_ANALYSIS_ANALYZERS_HH

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "analysis/report.hh"
#include "common/types.hh"
#include "sync/opcodes.hh"

namespace syncron::analysis {

/** Machine shape the analyzed stream ran on (barrier arity checks). */
struct MachineShape
{
    std::uint32_t numUnits = 0;
    std::uint32_t clientCoresPerUnit = 0;

    std::uint32_t
    totalClientCores() const
    {
        return numUnits * clientCoresPerUnit;
    }
};

/** One synchronization operation, decoupled from simulator types. */
struct OpEvent
{
    std::uint32_t core = 0; ///< dense client-core index
    sync::OpKind kind = sync::OpKind::LockAcquire;
    std::uint64_t prim = 0;  ///< primitive identity (dense id)
    std::uint64_t assoc = 0; ///< cond_wait's associated lock identity
    Tick issued = 0;
    Tick completed = 0;
    std::uint32_t participants = 0; ///< barrier arity (barrier_wait)
    std::uint32_t resources = 0;    ///< initial resources (sem_wait)
};

/** The combined analysis engine; see the file comment. */
class AnalysisEngine
{
  public:
    explicit AnalysisEngine(MachineShape shape);

    /** First witness of one held-before edge (public for reporting). */
    struct EdgeWitness
    {
        std::uint32_t core;
        Tick fromTick; ///< when the held (from) lock was acquired
        Tick toTick;   ///< when the new (to) lock was acquired/issued
    };

    /**
     * An operation was issued. Optional (traces carry completions
     * only); when fed, enables the pending-op-leak check and lets the
     * lock-order analyzer see acquires that never complete — the
     * in-flight half of an actual deadlock.
     */
    void onIssue(const OpEvent &ev);

    /** An operation completed. The main event. */
    void onComplete(const OpEvent &ev);

    /** A core touched shadow state (SyncApi::accessHint). */
    void onAccess(std::uint32_t core, Addr addr, bool isWrite, Tick tick);

    /**
     * The stream crossed a crash/recovery boundary at @p tick.
     * Primitives seen before this point are stale unless their identity
     * appears in @p reminted (recovery re-created them); any later
     * operation on a stale primitive is flagged as StaleGenerationUse —
     * post-crash code holding a pre-crash handle that recovery never
     * re-minted (once per primitive).
     */
    void noteCrashRecovery(Tick tick,
                           const std::set<std::uint64_t> &reminted);

    /**
     * Ends the stream: runs cycle detection, semaphore-balance replay,
     * and the teardown checks, and returns everything found. Call once.
     */
    AnalysisReport finish();

  private:
    // -- Dense-id state --------------------------------------------------
    /** The slot for dense id @p id, growing @p v to hold it. */
    template <typename T>
    static T &
    slot(std::vector<T> &v, std::uint64_t id)
    {
        if (id >= v.size())
            v.resize(static_cast<std::size_t>(id) + 1);
        return v[static_cast<std::size_t>(id)];
    }

    /** Whether bit @p id of @p bits is set (unset past the end). */
    static bool
    test(const std::vector<bool> &bits, std::uint64_t id)
    {
        return id < bits.size() && bits[static_cast<std::size_t>(id)];
    }

    /** Sets bit @p id of @p bits, growing it to hold the bit. */
    static void
    mark(std::vector<bool> &bits, std::uint64_t id)
    {
        if (id >= bits.size())
            bits.resize(static_cast<std::size_t>(id) + 1);
        bits[static_cast<std::size_t>(id)] = true;
    }

    /** A per-primitive count in one core's small pending list. */
    struct PrimCount
    {
        std::uint64_t prim;
        unsigned count;
    };
    using PrimCounts = std::vector<PrimCount>;

    static void bump(PrimCounts &counts, std::uint64_t prim);
    /** Decrements @p prim's count (dropping it at 0); false if absent. */
    static bool consume(PrimCounts &counts, std::uint64_t prim);
    static bool contains(const PrimCounts &counts, std::uint64_t prim);

    // -- Shared held-lock tracking -------------------------------------
    struct HeldLock
    {
        std::uint64_t prim;
        Tick since; ///< acquisition completion tick
    };

    /**
     * @p core's held locks. The reference lives until the next call
     * that can grow held_ — another heldOf() for a new core id.
     */
    std::vector<HeldLock> &heldOf(std::uint32_t core)
    {
        return slot(held_, core);
    }
    bool removeHeld(std::uint32_t core, std::uint64_t prim);

    // -- Lock-order analyzer -------------------------------------------
    void addOrderEdges(std::uint32_t core, std::uint64_t to, Tick toTick);
    void reportCycles(AnalysisReport &report);

    // -- Misuse linter --------------------------------------------------
    struct LockState
    {
        bool owned = false;
        std::uint32_t owner = 0;
        Tick ownedSince = 0;
        bool everReleased = false;
        std::uint32_t lastReleaser = 0;
        Tick lastReleaseTick = 0;
        /**
         * Former owners whose release record has not arrived yet. A
         * fire-and-forget release (req_async) commits SE-side at issue
         * but is recorded at future drop, so the next owner's acquire
         * can legitimately be recorded first; the displaced owner's
         * eventual release must then not be flagged. Counted, since a
         * core can be displaced again before its old record drains.
         */
        std::map<std::uint32_t, unsigned> pendingReleases;
    };

    /** Transfers @p s to @p core, displacing any current owner. */
    static void takeOwnership(LockState &s, std::uint32_t core,
                              Tick tick);

    /**
     * Processes a release at its SE-side commit point. When issue
     * events flow (live streams), that point is the release's ISSUE:
     * pipelined/batched release records complete out of order, but the
     * issue event sits at the exact simulated moment the SE commits the
     * release, keeping the held set — and therefore the order edges —
     * exact. A release issued while its own acquire is still in flight
     * (a coalesced acquire+release pair) is parked and consumed the
     * moment that acquire completes.
     */
    void commitRelease(std::uint32_t core, std::uint64_t prim,
                       Tick tick);

    struct BarrierState
    {
        bool seen = false;
        std::uint32_t participants = 0;
        bool reported = false;
    };

    struct SemState
    {
        bool initKnown = false;
        std::uint32_t initial = 0;
        std::vector<Tick> postTicks; ///< post issue ticks
        struct Grant
        {
            Tick tick; ///< wait completion tick
            std::uint32_t core;
        };
        std::vector<Grant> grants;
    };

    void lintAcquire(const OpEvent &ev);
    void lintRelease(const OpEvent &ev);
    void lintBarrier(const OpEvent &ev);
    void lintStaleGeneration(const OpEvent &ev, Tick tick);
    void checkSemaphores(AnalysisReport &report);

    // -- Lockset race checker ------------------------------------------
    enum class AccessState
    {
        Virgin,         ///< never accessed
        Exclusive,      ///< one core only so far (initialization)
        Shared,         ///< read-shared across cores
        SharedModified, ///< written while shared — races reportable
    };

    struct ShadowWord
    {
        AccessState state = AccessState::Virgin;
        std::uint32_t firstCore = 0;
        /** Candidate locks; meaningful once refined (past Exclusive). */
        std::set<std::uint64_t> candidates;
        bool reported = false;
        bool everWritten = false;
        std::uint32_t lastWriterCore = 0;
        Tick lastWriteTick = 0;
    };

    MachineShape shape_;
    AnalysisReport report_;
    bool finished_ = false;

    // Per core (dense client-core index).
    std::vector<std::vector<HeldLock>> held_;
    /// live only: outstanding (issued - completed) op count
    std::vector<std::int64_t> outstanding_;
    /// live only: lock -> acquires issued but not yet completed
    std::vector<PrimCounts> inflightAcquires_;
    /// live only: lock -> releases issued before their own acquire
    /// completed (coalesced pairs); consumed at that completion
    std::vector<PrimCounts> preIssuedReleases_;

    // Per primitive (dense id).
    std::vector<LockState> locks_;
    std::vector<BarrierState> barriers_;
    std::vector<SemState> sems_;
    /// held-before graph: from -> (to -> first witness); reports walk
    /// it in (from, to) order
    std::vector<std::map<std::uint64_t, EdgeWitness>> order_;

    /// Keyed by shadow address (not dense); looked up, never walked.
    std::unordered_map<Addr, ShadowWord> shadow_;
    bool sawIssues_ = false;

    // -- Crash/recovery generation tracking ----------------------------
    /// every primitive identity seen so far (issue or completion)
    std::vector<bool> seenPrims_;
    bool crashSeen_ = false;
    Tick crashTick_ = 0;
    /// identities live before the crash, minus those recovery re-minted
    std::vector<bool> stalePrims_;
    std::vector<bool> staleReported_;
};

} // namespace syncron::analysis

#endif // SYNCRON_ANALYSIS_ANALYZERS_HH
