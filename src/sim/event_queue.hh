/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global EventQueue orders all activity in the simulated NDP
 * system at picosecond resolution. Devices (DRAM, crossbars, links, SEs,
 * server cores) are modeled as busy-until resources that schedule
 * callbacks; simulated NDP cores are coroutines (sim/process.hh) that the
 * queue resumes when their pending operation completes.
 *
 * Events at the same tick execute in scheduling order (FIFO), which makes
 * every simulation deterministic and reproducible.
 *
 * Implementation: a near timing wheel at 1-tick granularity plus an
 * overflow min-heap for far-future events, backed by a free-list node
 * pool, so schedule()/pop are O(1) for the short crossbar/link/SE/DRAM
 * latencies that dominate and never allocate in steady state. Callbacks
 * are stored inline (common/inplace_callback.hh), so scheduling a
 * coroutine resume or a device callback performs zero heap allocations.
 *
 * Sliding horizon: the wheel always covers the kHorizon ticks
 * [now, now + kHorizon). An event inside that window goes straight into
 * slot `when mod kHorizon` (one FIFO list per slot, with a three-level
 * bitmap for O(1) next-slot scans); only events at or past
 * now + kHorizon wait in the overflow heap, ordered by (when, seq).
 * Whenever now advances, every heap entry that the window now reaches
 * moves into the wheel in (when, seq) order, before the next callback
 * runs. Same-tick FIFO holds by construction: a heap entry for tick T
 * was scheduled before now + kHorizon passed T, so it precedes every
 * event later inserted into T's slot directly.
 */

#ifndef SYNCRON_SIM_EVENT_QUEUE_HH
#define SYNCRON_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/inplace_callback.hh"
#include "common/types.hh"

namespace syncron::sim {

/** Global time-ordered queue of callbacks. */
class EventQueue
{
  public:
    /**
     * Inline capacity for event callbacks. 64 bytes holds every capture
     * in the tree — coroutine resumes (one handle) and the largest
     * device callbacks (engine/overflow: this + station ref + typed
     * request + core/var/gate) — with headroom; larger captures fail to
     * compile (capture pointers instead).
     */
    static constexpr std::size_t kCallbackBytes = 64;
    using Callback = common::InplaceCallback<kCallbackBytes>;

    /** Width of the near wheel's sliding window: an event scheduled
     *  less than kHorizon ticks ahead of now() goes straight into its
     *  wheel slot; later ones take the overflow heap. 2^17 ticks
     *  (131 ns) covers the common device latencies (core cycle 0.4 ns,
     *  SPU cycle 1 ns, links 40 ns, DRAM tens of ns) and most core
     *  compute bursts. */
    static constexpr Tick kHorizon = Tick{1} << 17;

    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedules @p cb at absolute tick @p when (must be >= now()). */
    void schedule(Tick when, Callback cb);

    /** Schedules @p cb @p delta ticks from now. */
    void scheduleIn(Tick delta, Callback cb) { schedule(now_ + delta, std::move(cb)); }

    /** Executes the next event; returns false when the queue is empty. */
    bool runOne();

    /**
     * Runs events until the queue is empty or simulated time would exceed
     * @p until. Returns the tick of the last executed event.
     */
    Tick run(Tick until = kTickNever);

    /** True when no events are pending. */
    bool empty() const { return pending_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return pending_; }

    /** Host-side count of events executed so far (perf accounting). */
    std::uint64_t executed() const { return executed_; }

    /** Host-side count of events scheduled at or past the horizon, i.e.
     *  through the overflow heap (perf accounting). */
    std::uint64_t heapPushes() const { return heapPushes_; }

    /**
     * Tick of the earliest pending event, or kTickNever when empty.
     * Pure (moves nothing out of the heap), so Machine::run() can read
     * the next window's start between bounded run(until) windows
     * without perturbing queue state.
     */
    Tick nextTime() const { return nextEventTime(); }

  private:
    // -- Geometry ------------------------------------------------------
    static constexpr std::size_t kWheelSlots =
        static_cast<std::size_t>(kHorizon);
    static constexpr Tick kSlotMask = kHorizon - 1;

    static constexpr std::uint32_t kNilIdx = ~std::uint32_t{0};

    /** Pooled event node. In the wheel, `next` links a slot's circular
     *  FIFO list; on the free list, the next free node. */
    struct Event
    {
        Callback cb;
        std::uint32_t next = kNilIdx;
    };

    /** Overflow-heap entry (min-heap on (when, seq)). */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq; ///< tie-breaker: FIFO among same ticks
        std::uint32_t idx; ///< pool index

        bool
        operator<(const HeapEntry &o) const
        {
            // std::push_heap builds a max-heap; invert for a min-heap.
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    // -- Pool ----------------------------------------------------------
    std::uint32_t allocNode(Callback &&cb);
    void freeNode(std::uint32_t idx);

    // -- Wheel ---------------------------------------------------------
    void pushSlot(std::uint32_t idx, Tick when);
    std::uint32_t popSlot(std::size_t slot);
    /** First non-empty slot index >= @p from, or kWheelSlots. */
    std::size_t nextSlotFrom(std::size_t from) const;
    bool slotOccupied(std::size_t slot) const;
    void markSlot(std::size_t slot);
    void clearSlot(std::size_t slot);

    /** Moves every heap entry inside [now_, now_ + kHorizon) into the
     *  wheel, in (when, seq) order. Called whenever now_ advances and
     *  the heap minimum falls inside that window. */
    void pullHeap();

    /** Tick of the next pending event, or kTickNever. */
    Tick nextEventTime() const;

    /** Advances to @p when (the nextEventTime()), pops and runs it. */
    void popAndRun(Tick when);

    std::vector<Event> pool_;
    std::uint32_t freeHead_ = kNilIdx;

    /** Per-slot tail of a circular FIFO list (tail->next is the head);
     *  meaningful only where the bitmap marks the slot occupied. */
    std::vector<std::uint32_t> tails_;
    static_assert(kWheelSlots * sizeof(std::uint32_t) <= 512 * 1024,
                  "wheel slot storage over its 512 KiB budget");
    /** Three-level occupancy bitmap over tails_ (64^3 >= 2^17). */
    std::vector<std::uint64_t> bitsL0_;          ///< 1 bit per slot
    std::array<std::uint64_t, kWheelSlots / 4096> bitsL1_{}; ///< per L0 word
    std::uint64_t bitsL2_ = 0;                   ///< 1 bit per L1 word

    std::vector<HeapEntry> heap_; ///< events at or past now_ + kHorizon

    Tick now_ = 0;
    std::size_t wheelCount_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t heapPushes_ = 0; ///< also the heap's FIFO sequence
};

} // namespace syncron::sim

#endif // SYNCRON_SIM_EVENT_QUEUE_HH
