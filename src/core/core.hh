/**
 * @file
 * Model of one in-order programmable NDP core (Table 5: 16 cores @
 * 2.5 GHz per unit, private 16 KB L1, one outstanding memory operation).
 *
 * Workloads run as coroutines and interact with the machine exclusively
 * through this class:
 *
 *   co_await core.compute(n);              // n instructions @ 1 IPC
 *   co_await core.load(addr, 8, MemKind::SharedRW);
 *   co_await core.store(addr, 8, MemKind::Private);
 *
 * The baseline architecture uses software-assisted coherence
 * (Section 2.1): thread-private and shared read-only data may be cached
 * in the L1; shared read-write data is uncacheable and always accesses
 * DRAM at the owning unit. The MemKind argument selects that policy.
 */

#ifndef SYNCRON_CORE_CORE_HH
#define SYNCRON_CORE_CORE_HH

#include <cstdint>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "sim/process.hh"
#include "system/machine.hh"

namespace syncron::core {

/** Sharing class of the data touched by a memory operation. */
enum class MemKind
{
    Private,  ///< thread-private: cacheable
    SharedRO, ///< shared read-only: cacheable
    SharedRW, ///< shared read-write: uncacheable (software coherence)
};

class Core;

/**
 * Awaitable memory operation returned by Core::load()/store().
 *
 * The access runs as a small state machine over Machine's asynchronous
 * transport, so a foreign unit's crossbar and DRAM are charged when the
 * message arrives there, in the cross-unit order that fixes the
 * simulated result: cache-hit legs advance synchronously, each miss fill
 * suspends until the (possibly remote) DRAM round trip completes,
 * and the coroutine resumes at the tick the last outstanding leg
 * finishes. The object lives in the co_await expression, so its address
 * is stable for the callbacks it parks.
 */
class MemOp
{
  public:
    MemOp(Core &core, Addr addr, std::uint32_t bytes, bool isWrite,
          MemKind kind)
        : core_(core), addr_(addr), bytes_(bytes), isWrite_(isWrite),
          kind_(kind)
    {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

  private:
    /** Walks lines from line_; issues at most one fill then suspends. */
    void stepLines();
    /** Continuation of stepLines() after a miss fill arrives. */
    void onFillDone();
    /** Schedules the coroutine resume at done_. */
    void finish();

    Core &core_;
    Addr addr_;
    std::uint32_t bytes_;
    bool isWrite_;
    MemKind kind_;
    std::coroutine_handle<> h_;
    Tick start_ = 0;
    Tick done_ = 0;
    Addr line_ = 0;
    Addr lastLine_ = 0;
};

/** One simulated NDP core. */
class Core
{
  public:
    /**
     * @param machine the platform this core lives on
     * @param id      system-wide core id
     * @param unit    NDP unit housing this core
     * @param localId index of this core within its unit (waitlist bit)
     */
    Core(Machine &machine, CoreId id, UnitId unit, unsigned localId);

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Executes @p instructions compute instructions at 1 IPC. */
    sim::Delay compute(std::uint64_t instructions);

    /** Loads @p bytes from @p addr. */
    MemOp load(Addr addr, std::uint32_t bytes = 8,
               MemKind kind = MemKind::SharedRW);

    /** Stores @p bytes to @p addr (completes before the next op). */
    MemOp store(Addr addr, std::uint32_t bytes = 8,
                MemKind kind = MemKind::SharedRW);

    CoreId id() const { return id_; }
    UnitId unit() const { return unit_; }
    unsigned localId() const { return localId_; }
    Machine &machine() { return machine_; }
    Rng &rng() { return rng_; }
    cache::Cache &l1() { return l1_; }

    /** Period of the core clock in ticks (400 ps @ 2.5 GHz). */
    Tick cyclePeriod() const { return kCoreClock.period(); }

  private:
    friend class MemOp;

    Machine &machine_;
    cache::Cache l1_;
    Rng rng_;
    CoreId id_;
    UnitId unit_;
    unsigned localId_;
};

} // namespace syncron::core

#endif // SYNCRON_CORE_CORE_HH
