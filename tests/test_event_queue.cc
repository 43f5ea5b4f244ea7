/**
 * @file
 * Tests for the timing-wheel event queue: same-tick FIFO determinism,
 * the sliding horizon's wheel/overflow-heap edges (including a
 * differential test against a (when, seq) sort), run(until) boundary
 * semantics, Machine::run()'s lookahead windows, allocation-freedom of
 * steady-state scheduling and of the mailbox barrier (via a counting
 * global operator new), and serial-vs-parallel grid determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
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
    // Machine::run() drives run(until) with window limits that
    // routinely land on (or next to) a multiple of the horizon; the
    // wheel must stop exactly there, neither executing later events nor
    // pulling them out of the heap prematurely.
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
    // Driving the queue in lookahead-sized windows (Machine::run()'s
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
    // windows, from outside the queue (the mailbox-drain pattern), with
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

// -- Machine::run() windows ---------------------------------------------

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
    EXPECT_EQ(m.windows(), 2u);
}

TEST(MachineRun, WindowsCoverLookaheadAndStopAtHorizon)
{
    // Lookahead 100: events at {0, 99} fit the window [0, 99]; 100
    // opens the next, and the stragglers at 250 and 260 share a third.
    Machine m(windowedCfg(100));
    ASSERT_EQ(m.lookahead(), 100u);
    ASSERT_TRUE(m.mailboxActive());
    std::vector<Tick> fired;
    for (Tick t : {Tick{0}, Tick{99}, Tick{100}, Tick{250}, Tick{260}})
        m.eq().schedule(t, [&fired, t] { fired.push_back(t); });
    m.run();
    EXPECT_EQ(fired, (std::vector<Tick>{0, 99, 100, 250, 260}));
    EXPECT_EQ(m.windows(), 3u);
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
    // A zero window needs a zero-cycle crossbar, whose M/D/1 model
    // rejects a zero service time. So every buildable machine runs the
    // mailbox path, and run()'s tick-by-tick lockstep branch is
    // unreachable; this pins that fact for whoever relaxes it.
    EXPECT_THROW(Machine m(windowedCfg(0)), std::logic_error);
    Machine smallest(windowedCfg(2));
    EXPECT_EQ(smallest.lookahead(), 2u);
    EXPECT_TRUE(smallest.mailboxActive());
}

// -- Allocation-free mailbox barrier ------------------------------------

/** Message bouncing between units 0 and 1 through the mailbox. */
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

TEST(TimingWheelAlloc, MailboxBarrierIsAllocationFree)
{
    // Two units: every cross-unit message becomes a mailbox envelope
    // drained at a window barrier.
    Machine m(SystemConfig::make(Scheme::SynCron, 2, 1));
    ASSERT_TRUE(m.mailboxActive());

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

    // Warm-up grows the outbox, gather buffer, in-flight table and
    // node pool to working size.
    round(20000);
    const std::uint64_t windowsBefore = m.windows();
    const std::uint64_t envelopesBefore = m.envelopes();

    const std::uint64_t before =
        gAllocCount.load(std::memory_order_relaxed);
    round(20000);
    const std::uint64_t after =
        gAllocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "postMessage()/drainMailboxes() allocated in steady state";
    EXPECT_EQ(m.envelopes() - envelopesBefore, 20000u);
    EXPECT_GT(m.windows() - windowsBefore, 100u);
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
