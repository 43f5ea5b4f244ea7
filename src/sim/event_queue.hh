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
 * every simulation deterministic and reproducible. Cross-unit messages
 * (post()) take one exception to FIFO, described below.
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
 *
 * Cross-unit order key: post() queues a cross-unit message at its link
 * arrival. Popping an event at or past the open window's end (its first
 * tick + lookahead) opens the next window; run() closes it on return.
 * Among the events of one tick, a post sorts as if scheduled when its
 * window closed: after every schedule() of that window (even later
 * ones), before anything scheduled in a later window, and by lane (FIFO
 * within a lane) among that window's posts. Slot lists and the heap
 * stay sorted by (window, lane, insertion), with lane 0 for schedule();
 * an insert appends at its slot's tail unless the tail is an
 * open-window post ranked above it, and only then walks the list. At
 * its arrival a post runs the transport hook (the last leg), and the
 * same node waits for the returned tick as if schedule()d there.
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

    /**
     * Pays the last leg of a cross-unit message that reached unit
     * @p dest at @p arrival; returns the tick its continuation runs.
     */
    using Transport = Tick (*)(void *ctx, Tick arrival,
                               std::uint16_t dest, std::uint32_t bits);

    /**
     * Installs the cross-unit transport: windows of @p lookahead ticks
     * (> 0, at most the floor of any post's arrival - now) and the hook
     * every post() arrival runs.
     */
    void setTransport(Tick lookahead, void *ctx, Transport hook);

    /**
     * Posts a @p bits -bit cross-unit message from lane @p lane
     * (source unit + 1) that reaches unit @p dest at @p when, at least
     * a lookahead past the open window's start. At @p when the
     * transport hook runs; @p cb runs at the tick it returns. Same-tick
     * order follows the order key in the file comment.
     */
    void post(Tick when, std::uint16_t lane, std::uint16_t dest,
              std::uint32_t bits, Callback cb);

    /**
     * Runs events until the queue is empty or simulated time would exceed
     * @p until, then closes the open window. Returns the tick of the last
     * executed event.
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

    /** Order-key windows opened so far (host perf). */
    std::uint64_t windows() const { return windows_; }

    /** Cross-unit messages post()ed so far (host perf). */
    std::uint64_t posts() const { return posts_; }

    /** Tick of the earliest pending event, or kTickNever when empty.
     *  Pure: moves nothing out of the heap. */
    Tick nextTime() const;

  private:
    // -- Geometry ------------------------------------------------------
    static constexpr std::size_t kWheelSlots =
        static_cast<std::size_t>(kHorizon);
    static constexpr Tick kSlotMask = kHorizon - 1;

    static constexpr std::uint32_t kNilIdx = ~std::uint32_t{0};

    /** Pooled event node. In the wheel, `next` links a slot's circular
     *  list, sorted by (win, lane, insertion); on the free list, the
     *  next free node. The order key and the post fields fill the
     *  callback's alignment padding. */
    struct Event
    {
        Callback cb;
        std::uint32_t next = kNilIdx;
        std::uint32_t win = 0;   ///< window at insertion (low 32 bits)
        std::uint16_t lane = 0;  ///< 0: schedule(); > 0: post in flight
        std::uint16_t dest = 0;  ///< post: destination unit
        std::uint32_t bits = 0;  ///< post: message size
    };
    static_assert(sizeof(Event) == 96, "event node outgrew 96 bytes");

    /** Overflow-heap entry (min-heap on (when, win, lane, seq)). */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t win;
        std::uint64_t seq; ///< tie-breaker: FIFO within a lane
        std::uint32_t idx; ///< pool index
        std::uint16_t lane;

        bool
        operator<(const HeapEntry &o) const
        {
            // std::push_heap builds a max-heap; invert for a min-heap.
            if (when != o.when)
                return when > o.when;
            if (win != o.win)
                return win > o.win;
            if (lane != o.lane)
                return lane > o.lane;
            return seq > o.seq;
        }
    };

    // -- Pool ----------------------------------------------------------
    std::uint32_t allocNode(Callback &&cb);
    void freeNode(std::uint32_t idx);

    /** Stamps node @p idx with the open window and @p lane and queues
     *  it at @p when: in the wheel inside the horizon, else the heap. */
    void insert(std::uint32_t idx, Tick when, std::uint16_t lane);

    // -- Wheel ---------------------------------------------------------
    /** Links @p idx into its slot at its (win, lane) rank. */
    void pushSlot(std::uint32_t idx, Tick when);
    std::uint32_t popSlot(std::size_t slot);
    /** First non-empty slot index >= @p from, or kWheelSlots. */
    std::size_t nextSlotFrom(std::size_t from) const;
    bool slotOccupied(std::size_t slot) const;
    void markSlot(std::size_t slot);
    void clearSlot(std::size_t slot);

    /** Moves every heap entry inside [now_, now_ + kHorizon) into the
     *  wheel, in (when, win, lane, seq) order. Called whenever now_
     *  advances and the heap minimum falls inside that window. */
    void pullHeap();

    /** Advances to @p when (the nextTime()), pops and runs it. */
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

    // -- Cross-unit transport and order-key windows ---------------------
    Transport transport_ = nullptr;
    void *transportCtx_ = nullptr;
    Tick lookahead_ = 1;
    Tick winEnd_ = 0;       ///< end of the open window; 0 when closed
    std::uint64_t win_ = 0; ///< current window (a closed one counts too)
    std::uint64_t windows_ = 0;
    std::uint64_t posts_ = 0;
};

} // namespace syncron::sim

#endif // SYNCRON_SIM_EVENT_QUEUE_HH
