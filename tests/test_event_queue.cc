/**
 * @file
 * Tests for the timing-wheel event queue: same-tick FIFO determinism,
 * the sliding horizon's wheel/overflow-heap edges (including a
 * differential test against a (when, seq) sort), run(until) boundary
 * semantics, the cross-unit order key (fixed cases and a differential
 * test against the window barrier it replaces), Machine::run() and
 * its order-key windows, allocation-freedom of steady-state scheduling and
 * of cross-unit posts (via a counting global operator new), and
 * serial-vs-parallel grid determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
#include <utility>
#include <vector>

#include "harness/grid.hh"
#include "harness/runner.hh"
#include "sim/event_queue.hh"
#include "sim/process.hh"
#include "system/machine.hh"

// -- Counting allocator ------------------------------------------------
// Counts every global allocation in this test binary; the steady-state
// test asserts the delta across a schedule/run region is zero. Atomic
// because the grid test runs worker threads in the same process.
//
// GCC cannot see that this operator new (malloc) pairs with this
// operator delete (free) and warns at every inlined call site.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> gAllocCount{0};
} // namespace

void *
operator new(std::size_t n)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

// The nothrow forms must be replaced too (std::get_temporary_buffer
// allocates through them but deallocates through sized delete): a
// partial replacement set mixes this malloc/free pool with the
// library's, which AddressSanitizer rejects as alloc-dealloc-mismatch.
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace syncron::sim {
namespace {

// The wheel covers [now, now + kHorizon); anything further sits in the
// overflow heap until now advances far enough to pull it into the wheel.
constexpr Tick kHorizon = EventQueue::kHorizon;

TEST(TimingWheel, SameTickFifoAcrossManyEvents)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 100; ++i)
        eq.schedule(5000, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(TimingWheel, SameTickFifoSurvivesHeapMigration)
{
    EventQueue eq;
    const Tick far = 10 * kHorizon + 123; // several horizons out
    std::vector<int> order;

    // 1 and 2 are scheduled while `far` is beyond the wheel horizon
    // (overflow heap); 3 is scheduled at the same tick from a callback
    // running after migration (directly into the wheel).
    eq.schedule(far, [&] {
        order.push_back(1);
        eq.schedule(far, [&] { order.push_back(3); });
    });
    eq.schedule(far, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), far);
}

TEST(TimingWheel, OrderHoldsAcrossHorizonBoundaries)
{
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick ticks[] = {kHorizon + 1, kHorizon,     kHorizon - 1,
                          3 * kHorizon, 2 * kHorizon, 7,
                          5 * kHorizon + 99};
    for (Tick t : ticks)
        eq.schedule(t, [&fired, t] { fired.push_back(t); });
    eq.run();
    EXPECT_EQ(fired,
              (std::vector<Tick>{7, kHorizon - 1, kHorizon, kHorizon + 1,
                                 2 * kHorizon, 3 * kHorizon,
                                 5 * kHorizon + 99}));
}

TEST(TimingWheel, RandomizedOrderMatchesWhenSeqSort)
{
    // Deterministic LCG spray over several horizons; execution order must
    // equal (when, schedule-order) lexicographic order.
    EventQueue eq;
    std::uint64_t lcg = 12345;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    struct Ref
    {
        Tick when;
        int seq;
    };
    std::vector<Ref> refs;
    std::vector<int> fired;
    for (int i = 0; i < 2000; ++i) {
        const Tick when = next() % (5 * kHorizon);
        refs.push_back(Ref{when, i});
        eq.schedule(when, [&fired, i] { fired.push_back(i); });
    }
    eq.run();
    std::stable_sort(refs.begin(), refs.end(),
                     [](const Ref &a, const Ref &b) {
                         return a.when < b.when;
                     });
    ASSERT_EQ(fired.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i)
        EXPECT_EQ(fired[i], refs[i].seq) << "at position " << i;
}

TEST(TimingWheel, RunUntilBoundarySemantics)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(20, [&] { ++count; });
    eq.schedule(21, [&] { ++count; });
    eq.schedule(3 * kHorizon, [&] { ++count; });

    // Events at exactly `until` run; later ones do not. now() is the
    // last executed tick, not `until`.
    EXPECT_EQ(eq.run(20), 20u);
    EXPECT_EQ(count, 3);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 2u);

    // Stopping early must not disturb later scheduling or migration:
    // a fresh event between now and the far event still runs first.
    eq.schedule(50, [&] { ++count; });
    EXPECT_EQ(eq.run(2 * kHorizon), 50u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.run(), 3 * kHorizon);
    EXPECT_EQ(count, 6);
    EXPECT_TRUE(eq.empty());
}

TEST(TimingWheel, RunUntilStopsExactlyAtHorizonEdges)
{
    // A bounded run(until) may stop on (or next to) a multiple of the
    // horizon; the wheel must stop exactly there, neither executing
    // later events nor pulling them out of the heap prematurely.
    EventQueue eq;
    std::vector<Tick> fired;
    const Tick ticks[] = {kHorizon - 1, kHorizon, kHorizon + 1,
                          2 * kHorizon - 1, 2 * kHorizon};
    for (Tick t : ticks)
        eq.schedule(t, [&fired, t] { fired.push_back(t); });

    // Stop one tick before the first horizon edge.
    EXPECT_EQ(eq.run(kHorizon - 1), kHorizon - 1);
    EXPECT_EQ(fired, (std::vector<Tick>{kHorizon - 1}));
    EXPECT_EQ(eq.nextTime(), kHorizon);
    EXPECT_EQ(eq.pending(), 4u);

    // Stop exactly on the edge: the event AT the limit runs, the one
    // just past it does not.
    EXPECT_EQ(eq.run(kHorizon), kHorizon);
    EXPECT_EQ(fired.back(), kHorizon);
    EXPECT_EQ(eq.nextTime(), kHorizon + 1);

    // Resume across the remaining edge; nothing is stranded.
    EXPECT_EQ(eq.run(), 2 * kHorizon);
    EXPECT_EQ(fired,
              (std::vector<Tick>{kHorizon - 1, kHorizon, kHorizon + 1,
                                 2 * kHorizon - 1, 2 * kHorizon}));
    EXPECT_TRUE(eq.empty());
}

TEST(TimingWheel, RunUntilInsideEmptyGap)
{
    // Stop inside a horizon that holds no events at all (limit between
    // two far-apart events). nextTime() must keep reporting the heap
    // minimum without migrating it, and scheduling new near events
    // after the early stop must still execute them in order.
    EventQueue eq;
    std::vector<Tick> fired;
    eq.schedule(10, [&] { fired.push_back(10); });
    eq.schedule(5 * kHorizon + 3,
                [&] { fired.push_back(5 * kHorizon + 3); });

    EXPECT_EQ(eq.run(2 * kHorizon + 7), 10u); // now() = last executed
    EXPECT_EQ(fired, (std::vector<Tick>{10}));
    EXPECT_EQ(eq.nextTime(), 5 * kHorizon + 3); // pure: no migration
    EXPECT_EQ(eq.pending(), 1u);

    // A fresh event earlier than the parked far event (but in a later
    // horizon than now()) must run first on resume.
    eq.schedule(3 * kHorizon, [&] { fired.push_back(3 * kHorizon); });
    EXPECT_EQ(eq.run(), 5 * kHorizon + 3);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 3 * kHorizon,
                                        5 * kHorizon + 3}));
}

TEST(TimingWheel, RunUntilRepeatedWindowsMatchOneShot)
{
    // Driving the queue in repeated bounded runs (the crash-injection
    // access pattern) must execute the exact sequence a
    // single unbounded run() produces — including events that schedule
    // follow-ups landing in later windows and past the horizon.
    auto spray = [](EventQueue &q, std::vector<Tick> &fired) {
        std::uint64_t lcg = 99;
        for (int i = 0; i < 300; ++i) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            const Tick when = (lcg >> 33) % (3 * kHorizon);
            q.schedule(when, [&q, &fired, when] {
                fired.push_back(when);
                q.schedule(when + kHorizon / 3,
                           [&fired, when] {
                               fired.push_back(when + kHorizon / 3);
                           });
            });
        }
    };
    EventQueue ref;
    std::vector<Tick> refFired;
    spray(ref, refFired);
    ref.run();

    EventQueue win;
    std::vector<Tick> winFired;
    spray(win, winFired);
    const Tick window = kHorizon / 2 - 7; // misaligned with the wheel
    for (Tick limit = window;; limit += window) {
        win.run(limit);
        if (win.empty())
            break;
    }
    EXPECT_EQ(winFired, refFired);
    EXPECT_EQ(win.executed(), ref.executed());
    EXPECT_EQ(win.now(), ref.now());
}

TEST(TimingWheel, HorizonEdgeSplitsWheelFromHeap)
{
    // Move now() off zero so the edge is relative, not absolute.
    EventQueue eq;
    eq.schedule(1234, [] {});
    eq.run();
    const Tick now = eq.now();
    std::vector<Tick> fired;
    auto at = [&](Tick when) {
        eq.schedule(when, [&fired, when] { fired.push_back(when); });
    };

    at(now + kHorizon - 1); // last tick the wheel covers
    EXPECT_EQ(eq.heapPushes(), 0u);
    at(now + kHorizon); // first tick past it
    EXPECT_EQ(eq.heapPushes(), 1u);
    at(now + kHorizon + 1);
    EXPECT_EQ(eq.heapPushes(), 2u);
    EXPECT_EQ(eq.nextTime(), now + kHorizon - 1);

    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{now + kHorizon - 1, now + kHorizon,
                                        now + kHorizon + 1}));
    EXPECT_EQ(eq.heapPushes(), 2u);
}

TEST(TimingWheel, SameTickFifoWhenHeapEntryMeetsDirectInsert)
{
    // The first event for tick T goes to the heap; once now() is within
    // the horizon of T, it migrates into T's slot, and a later event
    // for T goes there directly. Schedule order must survive.
    EventQueue eq;
    const Tick t = kHorizon + 500;
    std::vector<int> order;
    eq.schedule(t, [&] { order.push_back(1); }); // heap
    eq.schedule(t, [&] { order.push_back(2); }); // heap
    ASSERT_EQ(eq.heapPushes(), 2u);
    eq.schedule(600, [&] {
        // 600 > t - kHorizon: t is inside the wheel's window now.
        eq.schedule(t, [&] { order.push_back(3); });
        eq.schedule(t - 1, [&] { order.push_back(0); });
    });
    eq.run();
    EXPECT_EQ(eq.heapPushes(), 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), t);
}

TEST(TimingWheel, DifferentialAgainstWhenSeqSortWithBarrierScheduling)
{
    // Events scheduled from callbacks and, between bounded run(until)
    // calls, from outside the queue (as a harness adds work), with
    // delays spread around the horizon edge. Every schedule gets a
    // sequence number; the execution order must be the (when, seq) sort
    // of all of them.
    EventQueue eq;
    std::uint64_t lcg = 2024;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    auto delay = [&next]() -> Tick {
        switch (next() % 6) {
        case 0: return 0;
        case 1: return next() % 64;
        case 2: return next() % kHorizon;
        case 3: return kHorizon - 1 + next() % 3; // H-1, H, H+1
        case 4: return kHorizon + next() % (3 * kHorizon);
        default: return next() % 200000;
        }
    };
    struct Ref
    {
        Tick when;
        std::uint64_t seq;
    };
    std::vector<Ref> refs;
    std::vector<std::uint64_t> fired;
    std::uint64_t budget = 20000;
    std::function<void(Tick)> add = [&](Tick when) {
        const std::uint64_t seq = refs.size();
        refs.push_back(Ref{when, seq});
        eq.schedule(when, [&, seq] {
            fired.push_back(seq);
            const unsigned children = static_cast<unsigned>(next() % 3);
            for (unsigned c = 0; c < children && budget > 0; ++c, --budget)
                add(eq.now() + delay());
        });
    };

    for (int i = 0; i < 64; ++i)
        add(delay());
    Tick limit = 0;
    while (!eq.empty()) {
        limit += 1 + next() % (kHorizon / 2);
        eq.run(limit);
        // Barrier: schedule from outside, at or after now().
        for (unsigned k = next() % 4; k > 0 && budget > 0; --k, --budget)
            add(eq.now() + delay());
    }

    std::sort(refs.begin(), refs.end(), [](const Ref &a, const Ref &b) {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    });
    ASSERT_GT(refs.size(), 10000u);
    ASSERT_EQ(fired.size(), refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i)
        ASSERT_EQ(fired[i], refs[i].seq) << "at position " << i;
    EXPECT_GT(eq.heapPushes(), 0u);
    EXPECT_LT(eq.heapPushes(), refs.size());
}

TEST(TimingWheel, PendingAndExecutedCounters)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    eq.schedule(5, [] {});
    eq.schedule(5 + 2 * kHorizon, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.run();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 2u);
}

// -- Cross-unit order key ----------------------------------------------

/** Queue whose transport hook logs each post's arrival (`bits` carries
 *  an id) and runs the continuation on the arrival tick. */
struct PostLog
{
    explicit PostLog(Tick lookahead)
    {
        eq.setTransport(lookahead, this,
                        [](void *ctx, Tick at, std::uint16_t,
                           std::uint32_t id) {
                            static_cast<PostLog *>(ctx)->order.push_back(
                                static_cast<int>(id));
                            return at;
                        });
    }
    void at(Tick when, int id)
    {
        eq.schedule(when, [this, id] { order.push_back(id); });
    }
    void post(Tick when, std::uint16_t lane, int id)
    {
        eq.post(when, lane, 0, static_cast<std::uint32_t>(id), [] {});
    }

    EventQueue eq;
    std::vector<int> order;
};

/**
 * Lookahead 100. Window A opens at tick 0 and window B at 150; every
 * event below lands on tick @p target. Returns the arrival order and
 * the heap pushes those events made.
 */
std::pair<std::vector<int>, std::uint64_t>
sameTickRanks(Tick target)
{
    PostLog q(100);
    q.at(target, 0); // before the first window
    q.eq.schedule(0, [&q, target] {
        // Window A: posts on lanes 3, 1, 3, 2 ...
        q.post(target, 3, 10);
        q.post(target, 1, 11);
        q.post(target, 3, 12);
        q.post(target, 2, 13);
        q.eq.schedule(50, [&q, target] {
            // ... then a schedule() later in the same window.
            q.at(target, 1);
            q.eq.schedule(150, [&q, target] {
                // Window B: a schedule() and a post.
                q.at(target, 2);
                q.post(target, 1, 20);
            });
        });
    });
    q.eq.run();
    EXPECT_EQ(q.eq.windows(), 3u); // A, B and the one at the target
    EXPECT_EQ(q.eq.posts(), 5u);
    return {q.order, q.eq.heapPushes()};
}

// Window A's schedules, then its posts by lane (FIFO within lane 3),
// then window B's schedule and post.
const std::vector<int> kSameTickRanks = {0, 1, 11, 13, 10, 12, 2, 20};

TEST(OrderKey, SameTickRanksOnTheWheel)
{
    const auto [order, heapPushes] = sameTickRanks(300);
    EXPECT_EQ(order, kSameTickRanks);
    EXPECT_EQ(heapPushes, 0u);
}

TEST(OrderKey, SameTickRanksThroughTheOverflowHeap)
{
    // Every event for the target lies at or past the horizon when made.
    const auto [order, heapPushes] = sameTickRanks(kHorizon + 300);
    EXPECT_EQ(order, kSameTickRanks);
    EXPECT_EQ(heapPushes, 8u);
}

TEST(OrderKey, SameTickRanksWhenHeapEntriesMeetDirectInserts)
{
    // Window A's six events take the heap; by tick 150 the target is
    // inside the horizon, so window B's two go straight to the wheel,
    // behind the six pulled out of the heap.
    const auto [order, heapPushes] = sameTickRanks(kHorizon + 100);
    EXPECT_EQ(order, kSameTickRanks);
    EXPECT_EQ(heapPushes, 6u);
}

TEST(OrderKey, BoundedRunClosesTheWindow)
{
    // The window opened at tick 0 would run to 99, but run(10) ends it:
    // a schedule() made after the bounded run ranks after the post, as
    // if a barrier had delivered the post when the run returned.
    PostLog q(100);
    q.eq.schedule(0, [&q] { q.post(300, 1, 1); });
    q.eq.run(10);
    EXPECT_EQ(q.eq.windows(), 1u);
    q.at(300, 2);
    q.eq.run();
    EXPECT_EQ(q.order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.eq.windows(), 2u);
}

TEST(OrderKey, ArrivalRequeuesTheContinuationAtTheHookTick)
{
    // The hook pays the last leg: the continuation runs at the tick it
    // returns, and the arrival itself counts as one executed event.
    EventQueue eq;
    eq.setTransport(10, nullptr,
                    [](void *, Tick at, std::uint16_t dest,
                       std::uint32_t bits) {
                        return at + dest + bits;
                    });
    Tick ranAt = 0;
    eq.post(100, 1, 5, 20, [&eq, &ranAt] { ranAt = eq.now(); });
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(ranAt, 125u);
    EXPECT_EQ(eq.executed(), 2u);
    EXPECT_EQ(eq.pending(), 0u);
}

/**
 * Random schedule()/post() script, replayed on a queue. Event ids are
 * handed out in execution order, and each event's choices depend only
 * on (seed, id), so two queues that execute in the same order run the
 * same script.
 */
class OrderScript
{
  public:
    OrderScript(std::uint64_t seed, Tick lookahead)
        : seed_(seed), lookahead_(lookahead)
    {
    }
    virtual ~OrderScript() = default;

    /** Drives the script to completion; returns the execution log
     *  (id for a callback, ~id for a post's arrival). */
    std::vector<std::uint32_t>
    play()
    {
        std::uint64_t rng = mix(seed_);
        for (int i = 0; i < 8; ++i)
            spawn(rng);
        Tick limit = 0;
        while (!empty()) {
            rng = mix(rng);
            // Mostly short bounded runs, some far ones, then new work
            // from outside the run, as a harness would add it.
            limit += rng % 4 == 0 ? 1 + rng % (4 * kHorizon)
                                  : 1 + rng % (3 * lookahead_);
            run(limit);
            for (unsigned k = static_cast<unsigned>(rng >> 40) % 3; k > 0;
                 --k)
                spawn(rng);
        }
        return log_;
    }

    std::uint64_t posts() const { return posts_; }

  protected:
    virtual Tick now() const = 0;
    virtual bool empty() const = 0;
    virtual void run(Tick until) = 0;
    virtual void schedule(Tick when, std::uint32_t id) = 0;
    virtual void post(Tick when, std::uint16_t lane, std::uint32_t id) = 0;

    /** The event @p id ran: log it and spawn its children. */
    void
    fire(std::uint32_t id)
    {
        log_.push_back(id);
        std::uint64_t rng = mix(seed_ ^ (std::uint64_t{id} << 20));
        for (unsigned c = static_cast<unsigned>(rng % 3); c > 0; --c)
            spawn(rng);
    }

    /** The post @p id arrived at @p at: log it; the continuation runs
     *  0-2 ticks later. */
    Tick
    arrive(std::uint32_t id, Tick at)
    {
        log_.push_back(~id);
        return at + mix(seed_ + id) % 3;
    }

  private:
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    /** One schedule() or post() with delays that pile events onto the
     *  same few ticks, window edges and the horizon edge. */
    void
    spawn(std::uint64_t &rng)
    {
        if (nextId_ >= kBudget)
            return;
        const std::uint32_t id = nextId_++;
        rng = mix(rng);
        const Tick L = lookahead_;
        const Tick r = (rng >> 8) % 3;
        if (rng % 5 < 3) {
            static constexpr int kCases = 6;
            Tick delay = 0;
            switch ((rng >> 16) % kCases) {
            case 0: delay = r; break;
            case 1: delay = L - 1 + r; break;
            case 2: delay = 2 * L + r; break;
            case 3: delay = (rng >> 24) % (3 * L); break;
            case 4: delay = kHorizon - 1 + r; break;
            default: delay = kHorizon + (rng >> 24) % (2 * L); break;
            }
            schedule(now() + delay, id);
        } else {
            // A post lands at least a lookahead out, as Machine's do.
            static constexpr int kCases = 5;
            Tick delay = 0;
            switch ((rng >> 16) % kCases) {
            case 0: delay = r; break;
            case 1: delay = L + r; break;
            case 2: delay = (rng >> 24) % (3 * L); break;
            case 3: delay = kHorizon - L - 1 + r; break;
            default: delay = kHorizon + (rng >> 24) % L; break;
            }
            ++posts_;
            post(now() + L + delay,
                 static_cast<std::uint16_t>(1 + (rng >> 32) % 4), id);
        }
    }

    static constexpr std::uint32_t kBudget = 1500;
    const std::uint64_t seed_;
    const Tick lookahead_;
    std::uint32_t nextId_ = 0;
    std::uint64_t posts_ = 0;
    std::vector<std::uint32_t> log_;
};

/** The script on the event queue under test. */
class QueueScript : public OrderScript
{
  public:
    QueueScript(std::uint64_t seed, Tick lookahead)
        : OrderScript(seed, lookahead)
    {
        eq.setTransport(lookahead, this,
                        [](void *ctx, Tick at, std::uint16_t,
                           std::uint32_t id) {
                            return static_cast<QueueScript *>(ctx)->arrive(
                                id, at);
                        });
    }

    EventQueue eq;

  protected:
    Tick now() const override { return eq.now(); }
    bool empty() const override { return eq.empty(); }
    void run(Tick until) override { eq.run(until); }
    void
    schedule(Tick when, std::uint32_t id) override
    {
        eq.schedule(when, [this, id] { fire(id); });
    }
    void
    post(Tick when, std::uint16_t lane, std::uint32_t id) override
    {
        eq.post(when, lane, 0, id, [this, id] { fire(id); });
    }
};

/**
 * Reference model of the window barrier the order key replaces. A
 * (when, seq) priority queue stands in for a FIFO event queue; posts
 * wait in an outbox, and at the end of each lookahead window (cut
 * short by run()'s bound) they are scheduled in (arrival, lane, post
 * order) order as wrapper events that run the hook and schedule the
 * continuation at the tick it returns.
 */
class BarrierScript : public OrderScript
{
  public:
    BarrierScript(std::uint64_t seed, Tick lookahead)
        : OrderScript(seed, lookahead), lookahead_(lookahead)
    {
    }

    std::uint64_t windows = 0;

  protected:
    Tick now() const override { return now_; }
    bool empty() const override { return pq_.empty() && outbox_.empty(); }

    void
    run(Tick until) override
    {
        for (;;) {
            drain();
            if (pq_.empty() || pq_.top().when > until)
                return;
            const Tick limit =
                std::min(pq_.top().when + lookahead_ - 1, until);
            while (!pq_.empty() && pq_.top().when <= limit) {
                const Item it = pq_.top();
                pq_.pop();
                now_ = it.when;
                if (it.arrival)
                    push(arrive(it.id, now_), it.id, false);
                else
                    fire(it.id);
            }
            ++windows;
        }
    }

    void
    schedule(Tick when, std::uint32_t id) override
    {
        push(when, id, false);
    }

    void
    post(Tick when, std::uint16_t lane, std::uint32_t id) override
    {
        outbox_.push_back(Envelope{when, lane, outbox_.size(), id});
    }

  private:
    struct Item
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t id;
        bool arrival;
        bool operator<(const Item &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };
    struct Envelope
    {
        Tick when;
        std::uint16_t lane;
        std::uint64_t seq;
        std::uint32_t id;
    };

    void
    push(Tick when, std::uint32_t id, bool arrival)
    {
        pq_.push(Item{when, seq_++, id, arrival});
    }

    void
    drain()
    {
        std::sort(outbox_.begin(), outbox_.end(),
                  [](const Envelope &a, const Envelope &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.lane != b.lane)
                          return a.lane < b.lane;
                      return a.seq < b.seq;
                  });
        for (const Envelope &env : outbox_)
            push(env.when, env.id, true);
        outbox_.clear();
    }

    const Tick lookahead_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::priority_queue<Item> pq_;
    std::vector<Envelope> outbox_;
};

TEST(OrderKey, DifferentialAgainstTheWindowBarrier)
{
    const Tick lookaheads[] = {1, 2, 7, 100, 5000};
    std::uint64_t heapPushes = 0;
    std::uint64_t events = 0;
    for (std::uint64_t seed = 1; seed <= 250; ++seed) {
        const Tick L = lookaheads[seed % 5];
        QueueScript q(seed, L);
        BarrierScript ref(seed, L);
        const std::vector<std::uint32_t> got = q.play();
        const std::vector<std::uint32_t> want = ref.play();
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        const auto diverge =
            std::mismatch(got.begin(), got.end(), want.begin());
        ASSERT_TRUE(diverge.first == got.end())
            << "seed " << seed << " lookahead " << L
            << ": first difference at position "
            << (diverge.first - got.begin());
        EXPECT_EQ(q.eq.windows(), ref.windows) << "seed " << seed;
        EXPECT_EQ(q.eq.posts(), q.posts()) << "seed " << seed;
        EXPECT_EQ(q.eq.executed(), got.size()) << "seed " << seed;
        heapPushes += q.eq.heapPushes();
        events += got.size();
    }
    // The scripts must reach both halves of the queue.
    EXPECT_GT(events, 250u * 1000u);
    EXPECT_GT(heapPushes, events / 20);
}

// -- Allocation-freedom ------------------------------------------------

/** Self-rescheduling event with a coroutine-resume-sized capture. */
struct ResumeState
{
    EventQueue *q;
    std::uint64_t *remaining;
    Tick delta;
};

void
resumeEvent(ResumeState *s)
{
    if (*s->remaining == 0)
        return;
    --*s->remaining;
    s->q->scheduleIn(s->delta, [s] { resumeEvent(s); });
}

TEST(TimingWheelAlloc, SteadyStateSchedulingIsAllocationFree)
{
    EventQueue eq;
    std::array<ResumeState, 64> states;
    std::uint64_t remaining = 0;

    auto seed = [&](std::uint64_t events) {
        remaining = events;
        for (std::size_t i = 0; i < states.size(); ++i) {
            // Mix near deltas with far ones that traverse the overflow
            // heap, so both paths are exercised.
            const Tick delta =
                i % 4 == 3 ? 3 * kHorizon + 17 : 400 * (1 + i % 5);
            states[i] = ResumeState{&eq, &remaining, delta};
            resumeEvent(&states[i]);
        }
        eq.run();
        EXPECT_EQ(remaining, 0u);
    };

    // Warm-up grows the node pool and overflow heap to working size.
    seed(20000);

    const std::uint64_t before =
        gAllocCount.load(std::memory_order_relaxed);
    seed(20000);
    const std::uint64_t after =
        gAllocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "schedule()/scheduleIn()/run() allocated in steady state";
}

sim::Process
delayTicker(EventQueue &eq, unsigned n, unsigned &count)
{
    for (unsigned i = 0; i < n; ++i) {
        co_await Delay{eq, 400};
        ++count;
    }
}

TEST(TimingWheelAlloc, CoroutineResumeSchedulingIsAllocationFree)
{
    EventQueue eq;
    // Warm the pool with plain events.
    for (int i = 0; i < 64; ++i)
        eq.schedule(eq.now() + i, [] {});
    eq.run();

    // Coroutine frames allocate at creation time — before the measured
    // region. Resuming through Delay must not allocate.
    unsigned count = 0;
    std::array<sim::Process, 8> procs;
    for (auto &p : procs)
        p = delayTicker(eq, 1000, count);

    const std::uint64_t before =
        gAllocCount.load(std::memory_order_relaxed);
    for (auto &p : procs)
        p.start(eq);
    eq.run();
    const std::uint64_t after =
        gAllocCount.load(std::memory_order_relaxed);

    for (auto &p : procs)
        EXPECT_TRUE(p.done());
    EXPECT_EQ(count, 8u * 1000u);
    EXPECT_EQ(after - before, 0u)
        << "coroutine resume scheduling allocated";
}

// -- Machine::run() and order-key windows --------------------------------

/** A machine whose window (cross-unit latency floor) is @p lookahead
 *  ticks: one crossbar cycle plus the link flight. */
SystemConfig
windowedCfg(Tick lookahead)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 1);
    cfg.xbar.arbiterCycles = 0;
    cfg.xbar.hops = 0;
    cfg.xbar.cyclePeriod = lookahead / 2;
    cfg.link.ctrlCycles = 0;
    cfg.link.flightTicks = lookahead - lookahead / 2;
    return cfg;
}

TEST(MachineRun, StepsSeriallyThroughEveryEvent)
{
    Machine m(windowedCfg(1000));
    ASSERT_EQ(m.lookahead(), 1000u);
    std::vector<Tick> fired;
    for (Tick t : {Tick{5}, Tick{100}, Tick{100000}})
        m.eq().schedule(t, [&fired, t] { fired.push_back(t); });
    m.run();
    EXPECT_EQ(fired, (std::vector<Tick>{5, 100, 100000}));
    EXPECT_EQ(m.eq().now(), 100000u);
    // {5, 100} share the window [5, 1004]; 100000 opens its own.
    EXPECT_EQ(m.eq().windows(), 2u);
}

TEST(MachineRun, WindowsCoverLookaheadAndStopAtHorizon)
{
    // Lookahead 100: events at {0, 99} fit the window [0, 99]; 100
    // opens the next, and the stragglers at 250 and 260 share a third.
    Machine m(windowedCfg(100));
    ASSERT_EQ(m.lookahead(), 100u);
    std::vector<Tick> fired;
    for (Tick t : {Tick{0}, Tick{99}, Tick{100}, Tick{250}, Tick{260}})
        m.eq().schedule(t, [&fired, t] { fired.push_back(t); });
    m.run();
    EXPECT_EQ(fired, (std::vector<Tick>{0, 99, 100, 250, 260}));
    EXPECT_EQ(m.eq().windows(), 3u);
    EXPECT_EQ(m.eq().now(), 260u);
}

TEST(MachineRun, BoundedRunLeavesLaterEventsQueued)
{
    // The crash-injection path: run(until) executes events at ticks
    // <= until and leaves later ones queued for a later run().
    Machine m(windowedCfg(50));
    int ran = 0;
    m.eq().schedule(10, [&] { ++ran; });
    m.eq().schedule(1000, [&] { ++ran; });
    m.eq().schedule(5000, [&] { ++ran; });
    m.run(1000);
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(m.eq().now(), 1000u);
    EXPECT_EQ(m.eq().pending(), 1u);
    m.run();
    EXPECT_EQ(ran, 3);
}

TEST(MachineRun, ZeroLookaheadIsNotConstructible)
{
    // The cross-unit order key needs windows of at least one tick, so
    // the constructor rejects a zero cross-unit floor.
    EXPECT_THROW(Machine m(windowedCfg(0)), std::logic_error);
    Machine smallest(windowedCfg(2));
    EXPECT_EQ(smallest.lookahead(), 2u);
}

// -- Allocation-free cross-unit posts ------------------------------------

/** Message bouncing between units 0 and 1. */
struct Bouncer
{
    Machine *m;
    UnitId at;
    std::uint64_t *remaining;
};

void
bounce(Bouncer *b)
{
    if (*b->remaining == 0)
        return;
    --*b->remaining;
    const UnitId from = b->at;
    b->at = 1 - from;
    b->m->postMessage(b->m->eq().now(), from, b->at, 64,
                      [b] { bounce(b); });
}

TEST(TimingWheelAlloc, CrossUnitPostIsAllocationFree)
{
    // Two units: every message is a cross-unit post().
    Machine m(SystemConfig::make(Scheme::SynCron, 2, 1));

    std::array<Bouncer, 32> bouncers;
    std::uint64_t remaining = 0;
    auto round = [&](std::uint64_t messages) {
        remaining = messages;
        for (std::size_t i = 0; i < bouncers.size(); ++i) {
            bouncers[i] = Bouncer{&m, static_cast<UnitId>(i % 2),
                                  &remaining};
            bounce(&bouncers[i]);
        }
        m.run();
        EXPECT_EQ(remaining, 0u);
    };

    // Warm-up grows the node pool to working size.
    round(20000);
    const std::uint64_t windowsBefore = m.eq().windows();
    const std::uint64_t postsBefore = m.eq().posts();

    const std::uint64_t before =
        gAllocCount.load(std::memory_order_relaxed);
    round(20000);
    const std::uint64_t after =
        gAllocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "postMessage() allocated in steady state";
    EXPECT_EQ(m.eq().posts() - postsBefore, 20000u);
    EXPECT_GT(m.eq().windows() - windowsBefore, 100u);
}

} // namespace
} // namespace syncron::sim

// -- Grid determinism --------------------------------------------------

namespace syncron::harness {
namespace {

std::vector<std::function<RunOutput()>>
smallGrid()
{
    const Scheme schemes[] = {Scheme::Central, Scheme::Hier,
                              Scheme::SynCron, Scheme::Ideal};
    const DsKind kinds[] = {DsKind::Stack, DsKind::HashTable};
    std::vector<std::function<RunOutput()>> tasks;
    for (DsKind kind : kinds) {
        for (Scheme scheme : schemes) {
            tasks.push_back([kind, scheme] {
                SystemConfig cfg = SystemConfig::make(scheme, 2, 4);
                return runDataStructure(cfg, kind, 32, 4);
            });
        }
    }
    return tasks;
}

// -- Kernel work counters ----------------------------------------------

TEST(KernelCounters, ExactAndMostlyOnTheWheel)
{
    // A fixed Fig. 11 cell: the hash table on SynCron, 4 units x 15
    // client cores, at a quarter of the Table 6 defaults.
    const DsParams p = dsDefaults(DsKind::HashTable, 0.25);
    auto cell = [&p] {
        return runDataStructure(SystemConfig::make(Scheme::SynCron, 4, 15),
                                DsKind::HashTable, p.initialSize,
                                p.opsPerCore);
    };
    const RunOutput a = cell();
    const RunOutput b = cell();

    // The counters are exact: identical runs count identical work.
    EXPECT_EQ(a.hostEvents, b.hostEvents);
    EXPECT_EQ(a.hostHeapPushes, b.hostHeapPushes);
    EXPECT_EQ(a.hostWindows, b.hostWindows);
    EXPECT_EQ(a.hostEnvelopes, b.hostEnvelopes);

    // Envelopes are cross-unit messages.
    EXPECT_GT(a.hostEnvelopes, 0u);

    // The sliding horizon keeps nearly every schedule off the heap.
    EXPECT_GT(a.hostWindows, 0u);
    EXPECT_LT(a.hostHeapPushes, a.hostEvents / 5);
}

TEST(Grid, ParallelRunsMatchSerialExactly)
{
    const auto serial = runGrid(smallGrid(), 1);
    const auto parallel = runGrid(smallGrid(), 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].time, parallel[i].time) << "config " << i;
        EXPECT_EQ(serial[i].ops, parallel[i].ops) << "config " << i;
        EXPECT_EQ(serial[i].stats.syncOps, parallel[i].stats.syncOps);
        EXPECT_EQ(serial[i].stats.dramReads,
                  parallel[i].stats.dramReads);
        EXPECT_EQ(serial[i].stats.syncLocalMsgs,
                  parallel[i].stats.syncLocalMsgs);
        EXPECT_EQ(serial[i].hostEvents, parallel[i].hostEvents);
    }
}

TEST(Grid, TaskExceptionsPropagate)
{
    std::vector<std::function<int()>> tasks;
    tasks.push_back([] { return 1; });
    tasks.push_back([]() -> int {
        throw std::runtime_error("boom");
    });
    tasks.push_back([] { return 3; });
    EXPECT_THROW(runGrid(tasks, 2), std::runtime_error);
    EXPECT_THROW(runGrid(tasks, 1), std::runtime_error);
}

TEST(Grid, ResultsKeepSubmissionOrder)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 40; ++i)
        tasks.push_back([i] { return i; });
    const auto out = runGrid(tasks, 8);
    ASSERT_EQ(out.size(), 40u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(out[i], i);
}

} // namespace
} // namespace syncron::harness
