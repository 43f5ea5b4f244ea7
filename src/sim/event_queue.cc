#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/log.hh"

namespace syncron::sim {

namespace {

/** All-ones from bit @p b upward; 0 when @p b >= 64 (shift-safe). */
inline std::uint64_t
maskFrom(unsigned b)
{
    return b >= 64 ? 0 : (~std::uint64_t{0} << b);
}

} // namespace

EventQueue::EventQueue()
    : tails_(kWheelSlots), bitsL0_(kWheelSlots / 64, 0)
{
    pool_.reserve(256);
    heap_.reserve(64);
}

// --------------------------------------------------------------------
// Node pool
// --------------------------------------------------------------------

std::uint32_t
EventQueue::allocNode(Callback &&cb)
{
    if (freeHead_ != kNilIdx) {
        const std::uint32_t idx = freeHead_;
        freeHead_ = pool_[idx].next;
        pool_[idx].cb = std::move(cb);
        return idx;
    }
    pool_.push_back(Event{std::move(cb), kNilIdx});
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

void
EventQueue::freeNode(std::uint32_t idx)
{
    pool_[idx].next = freeHead_;
    freeHead_ = idx;
}

void
EventQueue::insert(std::uint32_t idx, Tick when, std::uint16_t lane)
{
    Event &e = pool_[idx];
    e.win = static_cast<std::uint32_t>(win_);
    e.lane = lane;
    if (when - now_ < kHorizon) {
        pushSlot(idx, when);
    } else {
        heap_.push_back(HeapEntry{when, win_, heapPushes_++, idx, lane});
        std::push_heap(heap_.begin(), heap_.end());
    }
}

// --------------------------------------------------------------------
// Near wheel
// --------------------------------------------------------------------

bool
EventQueue::slotOccupied(std::size_t slot) const
{
    return (bitsL0_[slot >> 6] >> (slot & 63)) & 1;
}

void
EventQueue::markSlot(std::size_t slot)
{
    const std::size_t word = slot >> 6;
    bitsL0_[word] |= std::uint64_t{1} << (slot & 63);
    bitsL1_[word >> 6] |= std::uint64_t{1} << (word & 63);
    bitsL2_ |= std::uint64_t{1} << (word >> 6);
}

void
EventQueue::clearSlot(std::size_t slot)
{
    const std::size_t word = slot >> 6;
    bitsL0_[word] &= ~(std::uint64_t{1} << (slot & 63));
    if (bitsL0_[word] == 0) {
        bitsL1_[word >> 6] &= ~(std::uint64_t{1} << (word & 63));
        if (bitsL1_[word >> 6] == 0)
            bitsL2_ &= ~(std::uint64_t{1} << (word >> 6));
    }
}

void
EventQueue::pushSlot(std::uint32_t idx, Tick when)
{
    const std::size_t slot = static_cast<std::size_t>(when & kSlotMask);
    std::uint32_t &tail = tails_[slot];
    Event &e = pool_[idx];
    // The list is sorted by (win, lane, insertion), and no entry is
    // from a later window than e, so the entries ranked above e are a
    // suffix: open-window posts on a higher lane. (The 32-bit stamp
    // does not alias: a wheel entry is under kHorizon ticks old, and
    // windows open at most once per tick.)
    const auto above = [&e](const Event &o) {
        return o.win == e.win && o.lane > e.lane;
    };
    ++wheelCount_;
    if (!slotOccupied(slot)) {
        e.next = idx;
        markSlot(slot);
        tail = idx;
    } else if (!above(pool_[tail])) {
        e.next = pool_[tail].next;
        pool_[tail].next = idx;
        tail = idx;
    } else {
        // Walk from the head to the first entry ranked above e (the
        // tail is one) and link e in front of it.
        std::uint32_t prev = tail;
        std::uint32_t cur = pool_[tail].next;
        while (!above(pool_[cur])) {
            prev = cur;
            cur = pool_[cur].next;
        }
        e.next = cur;
        pool_[prev].next = idx;
    }
}

std::uint32_t
EventQueue::popSlot(std::size_t slot)
{
    const std::uint32_t tail = tails_[slot];
    const std::uint32_t head = pool_[tail].next;
    if (head == tail)
        clearSlot(slot);
    else
        pool_[tail].next = pool_[head].next;
    --wheelCount_;
    return head;
}

std::size_t
EventQueue::nextSlotFrom(std::size_t from) const
{
    std::size_t word = from >> 6;
    std::uint64_t w = bitsL0_[word] & maskFrom(from & 63);
    if (w == 0) {
        // Climb the summary levels to the next non-empty L0 word.
        std::size_t l1w = word >> 6;
        std::uint64_t u =
            bitsL1_[l1w] & maskFrom(static_cast<unsigned>(word & 63) + 1);
        if (u == 0) {
            const std::uint64_t v =
                bitsL2_ & maskFrom(static_cast<unsigned>(l1w) + 1);
            if (v == 0)
                return kWheelSlots;
            l1w = static_cast<std::size_t>(std::countr_zero(v));
            u = bitsL1_[l1w];
        }
        word = l1w * 64
               + static_cast<std::size_t>(std::countr_zero(u));
        w = bitsL0_[word];
    }
    return word * 64 + static_cast<std::size_t>(std::countr_zero(w));
}

// --------------------------------------------------------------------
// Sliding horizon
// --------------------------------------------------------------------

void
EventQueue::pullHeap()
{
    // Heap pops come out ordered by (when, win, lane, seq), so
    // same-tick events append to their slot in key order. No event for
    // these ticks can be in the wheel yet: until now_ advanced, they lay
    // at or past the horizon, where insert() sends everything to the
    // heap.
    const Tick limit = now_ + kHorizon;
    while (!heap_.empty() && heap_.front().when < limit) {
        std::pop_heap(heap_.begin(), heap_.end());
        const HeapEntry e = heap_.back();
        heap_.pop_back();
        pushSlot(e.idx, e.when);
    }
}

Tick
EventQueue::nextTime() const
{
    if (wheelCount_ > 0) {
        // The wheel holds only ticks in [now_, now_ + kHorizon), and
        // every heap entry lies past them; scan circularly from now_.
        const std::size_t base = static_cast<std::size_t>(now_ & kSlotMask);
        std::size_t slot = nextSlotFrom(base);
        if (slot == kWheelSlots)
            slot = nextSlotFrom(0);
        SYNCRON_ASSERT(slot < kWheelSlots, "wheel count/bitmap disagree");
        return now_ + ((Tick{slot} - base) & kSlotMask);
    }
    if (!heap_.empty())
        return heap_.front().when;
    return kTickNever;
}

void
EventQueue::popAndRun(Tick when)
{
    if (when != now_) {
        now_ = when;
        if (!heap_.empty() && heap_.front().when < now_ + kHorizon)
            pullHeap();
    }
    if (when >= winEnd_) {
        ++win_;
        ++windows_;
        winEnd_ = when + lookahead_;
    }
    const std::uint32_t idx =
        popSlot(static_cast<std::size_t>(when & kSlotMask));
    ++executed_;
    if (pool_[idx].lane != 0) {
        // A post reached its destination unit: pay the last leg, then
        // re-queue the same node as this event's schedule().
        const Tick t = transport_(transportCtx_, when, pool_[idx].dest,
                                  pool_[idx].bits);
        SYNCRON_ASSERT(t >= now_, "transport hook returned the past: "
                                      << t << " < " << now_);
        insert(idx, t, 0);
        return;
    }
    --pending_;
    // Move the callback out and recycle the node before invoking it, so
    // the callback may schedule (and reuse the node) freely.
    Callback cb = std::move(pool_[idx].cb);
    freeNode(idx);
    cb();
}

// --------------------------------------------------------------------
// Public interface
// --------------------------------------------------------------------

void
EventQueue::schedule(Tick when, Callback cb)
{
    SYNCRON_ASSERT(when >= now_,
                   "scheduling into the past: when=" << when
                       << " now=" << now_);
    insert(allocNode(std::move(cb)), when, 0);
    ++pending_;
}

void
EventQueue::setTransport(Tick lookahead, void *ctx, Transport hook)
{
    SYNCRON_ASSERT(lookahead > 0 && hook != nullptr,
                   "cross-unit transport needs a lookahead > 0 and a "
                   "hook");
    lookahead_ = lookahead;
    transportCtx_ = ctx;
    transport_ = hook;
}

void
EventQueue::post(Tick when, std::uint16_t lane, std::uint16_t dest,
                 std::uint32_t bits, Callback cb)
{
    SYNCRON_ASSERT(transport_ != nullptr && lane != 0,
                   "post() needs a transport and a lane > 0");
    // Landing inside its own window would break the order key's promise
    // to sort the post after every schedule() of that window.
    SYNCRON_ASSERT(when >= now_ && when >= winEnd_,
                   "post lands inside its own window: when=" << when
                       << " now=" << now_ << " window end=" << winEnd_);
    const std::uint32_t idx = allocNode(std::move(cb));
    pool_[idx].dest = dest;
    pool_[idx].bits = bits;
    insert(idx, when, lane);
    ++pending_;
    ++posts_;
}

Tick
EventQueue::run(Tick until)
{
    for (;;) {
        const Tick t = nextTime();
        if (t == kTickNever || t > until)
            break;
        popAndRun(t);
    }
    // Close the open window: whatever is queued or posted next ranks
    // after this window's posts.
    ++win_;
    winEnd_ = 0;
    return now_;
}

} // namespace syncron::sim
