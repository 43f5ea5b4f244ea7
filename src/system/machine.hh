/**
 * @file
 * The simulated hardware platform: the event queue, statistics, per-unit
 * crossbars and DRAM, inter-unit links, and the shared address space.
 *
 * Machine provides the two composite operations every agent (core, SE,
 * server core) uses:
 *   - routeMessage(): deliver a message between (possibly different)
 *     units through crossbar [+ link + crossbar];
 *   - memoryAccess(): a full uncached memory transaction — request
 *     message, DRAM access at the owning unit, response message.
 *
 * Both return the arrival tick and touch the destination synchronously.
 * The asynchronous forms — postMessage() / memoryAccessAsync() — run a
 * continuation at the arrival instead. A cross-unit leg pays the source
 * crossbar and link when sent, then goes into the event queue as a
 * post() on lane (source unit + 1), stamped with the link arrival; the
 * transport hook installed here pays the destination crossbar on
 * arrival. Same-tick posts follow the queue's order key over
 * lookahead()-tick windows (sim/event_queue.hh), not post order; that
 * order fixes where a delivery lands among the events already queued
 * on its tick, so changing it changes simulated output.
 */

#ifndef SYNCRON_SYSTEM_MACHINE_HH
#define SYNCRON_SYSTEM_MACHINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/allocator.hh"
#include "mem/dram.hh"
#include "net/crossbar.hh"
#include "net/link.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"

namespace syncron {

/** Bits in a request message header (command + address + ids). */
constexpr std::uint32_t kMemReqHeaderBits = 80;

/** Bits in a response message header. */
constexpr std::uint32_t kMemRespHeaderBits = 16;

/** One simulated NDP platform instance. */
class Machine
{
  public:
    using Callback = sim::EventQueue::Callback;

    explicit Machine(const SystemConfig &cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const SystemConfig &config() const { return cfg_; }

    /** The event queue all simulated activity runs on. */
    sim::EventQueue &eq() { return eq_; }

    SystemStats &stats() { return stats_; }
    const SystemStats &stats() const { return stats_; }

    mem::AddressSpace &addrSpace() { return addrSpace_; }

    net::Crossbar &xbar(UnitId unit);
    mem::Dram &dram(UnitId unit);
    net::LinkFabric &links() { return *links_; }

    /**
     * Order-key window length: the minimum number of ticks any
     * cross-unit message needs (source crossbar floor + link controller
     * + flight), > 0 for every constructible machine. Posts are always
     * stamped at least this far in the future, so none posted inside a
     * window can land inside it.
     */
    Tick lookahead() const { return lookahead_; }

    /**
     * Runs the queue until it drains, or until the next event lies past
     * @p until (bounded stepping for crash injection): events at ticks
     * <= until execute, later ones stay queued.
     */
    void run(Tick until = kTickNever) { eq_.run(until); }

    // -- Synchronous transport -----------------------------------------
    /**
     * Routes a @p bits -bit message from unit @p from to unit @p to,
     * starting at @p start. Same-unit messages traverse only the local
     * crossbar; cross-unit messages traverse source crossbar, serial
     * link, and destination crossbar.
     *
     * @return absolute arrival tick
     */
    Tick routeMessage(Tick start, UnitId from, UnitId to,
                      std::uint32_t bits);

    /**
     * Performs a complete uncached memory transaction issued by an agent
     * in unit @p from to address @p addr (request + DRAM + response).
     *
     * @return absolute tick at which the response reaches the requester
     */
    Tick memoryAccess(Tick start, UnitId from, Addr addr, bool isWrite,
                      std::uint32_t bytes);

    // -- Asynchronous transport ----------------------------------------
    /**
     * Delivers a @p bits -bit message from @p from to @p to and runs
     * @p cont at the arrival tick (after the destination-crossbar
     * traversal; read the arrival via eq().now()). Same-unit messages
     * schedule directly; cross-unit messages are post()ed.
     */
    void postMessage(Tick start, UnitId from, UnitId to,
                     std::uint32_t bits, Callback cont);

    /**
     * Asynchronous memoryAccess(): request message, DRAM access at the
     * owning unit, response message; runs @p onDone at the tick the
     * response arrives (read it via eq().now()).
     */
    void memoryAccessAsync(Tick start, UnitId from, Addr addr,
                           bool isWrite, std::uint32_t bytes,
                           Callback onDone);

    /** Fire-and-forget memoryAccessAsync() — models the occupancy of an
     *  off-critical-path access (e.g. a cache victim writeback). */
    void memoryAccessDetached(Tick start, UnitId from, Addr addr,
                              bool isWrite, std::uint32_t bytes);

    // -- Crash injection (durability) ----------------------------------
    /** Marks the machine torn down mid-run by the crash injector. */
    void markCrashed() { crashed_ = true; }

    /** True once the crash injector tore the machine down. */
    bool crashed() const { return crashed_; }

  private:
    std::uint32_t parkMemCallback(Callback cb);
    void completeMemOp(std::uint32_t idx);

    SystemConfig cfg_;
    Tick lookahead_ = 0;
    bool crashed_ = false;
    sim::EventQueue eq_;
    SystemStats stats_;
    /// Parked completion callbacks for in-flight async memory ops (the
    /// slot index rides the posts so nested captures never exceed the
    /// callback bound).
    std::vector<Callback> memPending_;
    std::vector<std::uint32_t> memPendingFree_;
    mem::AddressSpace addrSpace_;
    std::vector<std::unique_ptr<net::Crossbar>> xbars_;
    std::vector<std::unique_ptr<mem::Dram>> drams_;
    std::unique_ptr<net::LinkFabric> links_;
};

} // namespace syncron

#endif // SYNCRON_SYSTEM_MACHINE_HH
