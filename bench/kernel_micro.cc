/**
 * @file
 * Kernel microbenchmark: host-side events/sec of the timing-wheel
 * simulation kernel (sim::EventQueue) against the seed kernel it
 * replaced — std::function callbacks in a binary-heap
 * std::priority_queue, reimplemented here verbatim as LegacyEventQueue
 * so the comparison stays honest as the real kernel evolves.
 *
 * Four scenarios bracket the kernel's real workload:
 *   resume  — 8-byte captures (a coroutine handle), the common case for
 *             core resumes; fits the legacy std::function's SSO, so the
 *             delta is pure queue-structure cost.
 *   device  — 56-byte captures (engine/overflow-style callbacks: this,
 *             station, typed request, gate); the legacy kernel heap-
 *             allocates every one of these.
 *   far     — half the events land beyond the near wheel's sliding
 *             horizon, exercising the overflow heap and the migration
 *             of its entries into the wheel as simulated time advances.
 *   mix     — 56-byte captures whose delays follow the log2 histogram
 *             of schedule-ahead times measured on a closed-loop
 *             data-structure run (kMixBuckets): mostly 1-65 ns device
 *             latencies, with a tail of core compute bursts past the
 *             horizon.
 *
 * The overall events/sec ratio is the PR-gating number (>= 2x).
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <queue>
#include <vector>

#include "common/log.hh"
#include "harness/json.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "sim/event_queue.hh"

using namespace syncron;
using harness::fmt;
using harness::fmtX;

namespace {

/** The seed kernel, kept as the measurement baseline. */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return now_; }

    void
    schedule(Tick when, Callback cb)
    {
        events_.push(Event{when, nextSeq_++, std::move(cb)});
    }

    void scheduleIn(Tick delta, Callback cb) { schedule(now_ + delta, std::move(cb)); }

    Tick
    run(Tick until = kTickNever)
    {
        while (!events_.empty() && events_.top().when <= until) {
            Event ev = std::move(const_cast<Event &>(events_.top()));
            events_.pop();
            now_ = ev.when;
            ev.cb();
        }
        return now_;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> events_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/** 8-byte capture: the shape of a coroutine-resume event. */
template <typename Q>
struct ResumeState
{
    Q *q;
    std::uint64_t *remaining;
    Tick delta;
};

template <typename Q>
void
resumeEvent(ResumeState<Q> *s)
{
    if (*s->remaining == 0)
        return;
    --*s->remaining;
    s->q->scheduleIn(s->delta, [s] { resumeEvent(s); });
}

/** 56-byte capture: the shape of an engine/overflow device callback. */
struct DevicePayload
{
    std::uint64_t words[4];
};

template <typename Q>
void
deviceEvent(Q &q, std::uint64_t &remaining, Tick delta,
            DevicePayload payload)
{
    if (remaining == 0)
        return;
    --remaining;
    payload.words[0] += payload.words[1] ^ q.now();
    q.scheduleIn(delta, [&q, &remaining, delta, payload] {
        deviceEvent(q, remaining, delta, payload);
    });
}

struct ScenarioResult
{
    std::uint64_t events = 0;
    double seconds = 0.0;

    double
    eventsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(events) / seconds
                             : 0.0;
    }
};

/** Concurrent event population (heap depth / wheel load). */
constexpr unsigned kDevices = 1024;

/** Device-model latencies in ticks (core cycle, SPU cycle, xbar hop,
 *  pipelined DRAM, row miss); all within the near wheel's horizon. */
constexpr Tick kNearDeltas[] = {400, 1000, 1600, 2800, 12000};

/** Beyond the near wheel's horizon: overflow-heap territory. */
constexpr Tick kFarDelta = 300000;
static_assert(kFarDelta > sim::EventQueue::kHorizon);

/** One bucket of the measured schedule-ahead histogram: @p share of
 *  all schedules land in [lo, hi] ticks ahead of now. */
struct MixBucket
{
    double share;
    Tick lo, hi;
};

/** Schedule-ahead delays of a closed-loop run over the nine Table 6
 *  structures and the Fig. 10 lock microbenchmark, as log2 ps buckets.
 *  The last bucket's upper bound (524 ns) is a choice, not a measure. */
constexpr MixBucket kMixBuckets[] = {
    {0.05, 0, 0},                   // same tick
    {0.07, 1, 1 << 10},             // <= 1 ns
    {0.23, (1 << 10) + 1, 1 << 11}, // 1-2 ns
    {0.07, (1 << 11) + 1, 1 << 13}, // 2-8 ns
    {0.13, (1 << 13) + 1, 1 << 14}, // 8-16 ns
    {0.15, (1 << 14) + 1, 1 << 15}, // 16-33 ns
    {0.21, (1 << 15) + 1, 1 << 16}, // 33-65 ns
    {0.06, (1 << 16) + 1, 1 << 17}, // 65-131 ns
    {0.03, (1 << 17) + 1, 1 << 19}, // > 131 ns
};

/** Delays drawn from kMixBuckets by a fixed LCG, cycled by the mix
 *  scenario (a power of two, so the cursor wraps with a mask). */
constexpr std::size_t kMixTable = 4096;

std::vector<Tick>
mixDelays()
{
    std::vector<Tick> delays;
    delays.reserve(kMixTable);
    std::uint64_t lcg = 7;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 11;
    };
    while (delays.size() < kMixTable) {
        double u = static_cast<double>(next()) / 0x1p53;
        const MixBucket *b = std::begin(kMixBuckets);
        for (; b + 1 != std::end(kMixBuckets) && u >= b->share; ++b)
            u -= b->share;
        delays.push_back(b->lo + next() % (b->hi - b->lo + 1));
    }
    return delays;
}

template <typename Q, typename Seed>
ScenarioResult
runScenario(std::uint64_t events, Seed seed)
{
    Q q;
    std::uint64_t remaining = events;
    seed(q, remaining);
    const auto start = std::chrono::steady_clock::now();
    q.run();
    const auto stop = std::chrono::steady_clock::now();
    SYNCRON_ASSERT(remaining == 0, "scenario ended early");

    ScenarioResult r;
    r.events = events;
    r.seconds =
        std::chrono::duration<double>(stop - start).count();
    return r;
}

template <typename Q>
ScenarioResult
runResume(std::uint64_t events)
{
    std::vector<ResumeState<Q>> states(kDevices);
    return runScenario<Q>(events, [&](Q &q, std::uint64_t &remaining) {
        for (unsigned i = 0; i < kDevices; ++i) {
            states[i] = ResumeState<Q>{
                &q, &remaining,
                kNearDeltas[i % std::size(kNearDeltas)]};
            resumeEvent(&states[i]);
        }
    });
}

template <typename Q>
ScenarioResult
runDevice(std::uint64_t events)
{
    return runScenario<Q>(events, [&](Q &q, std::uint64_t &remaining) {
        for (unsigned i = 0; i < kDevices; ++i) {
            deviceEvent(q, remaining,
                        kNearDeltas[i % std::size(kNearDeltas)],
                        DevicePayload{{i, i + 1, i + 2, i + 3}});
        }
    });
}

template <typename Q>
ScenarioResult
runFar(std::uint64_t events)
{
    return runScenario<Q>(events, [&](Q &q, std::uint64_t &remaining) {
        for (unsigned i = 0; i < kDevices; ++i) {
            const Tick delta =
                i % 2 == 0 ? kNearDeltas[i % std::size(kNearDeltas)]
                           : kFarDelta + 1000 * (i % 7);
            deviceEvent(q, remaining, delta,
                        DevicePayload{{i, i + 1, i + 2, i + 3}});
        }
    });
}

/** State shared by every mix-scenario event: the delay cursor. */
template <typename Q>
struct MixState
{
    Q *q;
    std::uint64_t *remaining;
    const Tick *delays;
    std::size_t cursor;
};

template <typename Q>
void
mixEvent(MixState<Q> *s, DevicePayload payload)
{
    if (*s->remaining == 0)
        return;
    --*s->remaining;
    payload.words[0] += payload.words[1] ^ s->q->now();
    const Tick delta = s->delays[s->cursor++ & (kMixTable - 1)];
    s->q->scheduleIn(delta, [s, payload] { mixEvent(s, payload); });
}

template <typename Q>
ScenarioResult
runMix(std::uint64_t events)
{
    static const std::vector<Tick> delays = mixDelays();
    MixState<Q> state{nullptr, nullptr, delays.data(), 0};
    return runScenario<Q>(events, [&](Q &q, std::uint64_t &remaining) {
        state.q = &q;
        state.remaining = &remaining;
        for (unsigned i = 0; i < kDevices; ++i)
            mixEvent(&state, DevicePayload{{i, i + 1, i + 2, i + 3}});
    });
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = harness::BenchOptions::parse(argc, argv);
    const auto events = static_cast<std::uint64_t>(
        2'000'000 * opts.effectiveScale());

    struct Scenario
    {
        const char *name;
        ScenarioResult (*legacy)(std::uint64_t);
        ScenarioResult (*wheel)(std::uint64_t);
    };
    const Scenario scenarios[] = {
        {"resume (8B capture)", runResume<LegacyEventQueue>,
         runResume<sim::EventQueue>},
        {"device (56B capture)", runDevice<LegacyEventQueue>,
         runDevice<sim::EventQueue>},
        {"far (overflow heap)", runFar<LegacyEventQueue>,
         runFar<sim::EventQueue>},
        {"mix (measured delays)", runMix<LegacyEventQueue>,
         runMix<sim::EventQueue>},
    };

    harness::TablePrinter table(
        "kernel_micro: host events/sec, seed kernel vs timing wheel",
        {"scenario", "legacy [Mev/s]", "wheel [Mev/s]", "speedup"});

    struct Row
    {
        const char *name;
        ScenarioResult legacy, wheel;
    };
    std::vector<Row> rows;
    double legacySec = 0, wheelSec = 0;
    std::uint64_t totalEvents = 0;

    for (const Scenario &s : scenarios) {
        // Warm each kernel once (page-faults, pool growth), then time.
        s.legacy(events / 10);
        s.wheel(events / 10);
        const ScenarioResult l = s.legacy(events);
        const ScenarioResult w = s.wheel(events);
        rows.push_back(Row{s.name, l, w});
        legacySec += l.seconds;
        wheelSec += w.seconds;
        totalEvents += events;
        table.addRow({s.name, fmt(l.eventsPerSec() / 1e6, 2),
                      fmt(w.eventsPerSec() / 1e6, 2),
                      fmtX(l.seconds / w.seconds)});
    }

    const double legacyRate =
        static_cast<double>(totalEvents) / legacySec;
    const double wheelRate = static_cast<double>(totalEvents) / wheelSec;
    table.addNote("overall: legacy " + fmt(legacyRate / 1e6, 2)
                  + " Mev/s, wheel " + fmt(wheelRate / 1e6, 2)
                  + " Mev/s");
    table.print(std::cout);
    std::cout << "kernel_micro overall speedup: "
              << fmtX(wheelRate / legacyRate) << " (gate: >= 2.00x)\n";

    if (!opts.json.empty()) {
        std::ofstream f(opts.json);
        if (!f)
            SYNCRON_FATAL("cannot write --json file '" << opts.json
                                                       << "'");
        harness::JsonWriter j(f);
        j.beginObject();
        j.field("bench", "kernel_micro");
        j.key("options");
        j.beginObject()
            .field("scale", opts.scale)
            .field("full", opts.full)
            .endObject();
        j.field("eventsPerScenario", events);
        j.key("scenarios");
        j.beginArray();
        for (const Row &r : rows) {
            j.beginObject()
                .field("name", r.name)
                .field("legacyEventsPerSec", r.legacy.eventsPerSec())
                .field("wheelEventsPerSec", r.wheel.eventsPerSec())
                .field("speedup", r.legacy.seconds / r.wheel.seconds)
                .endObject();
        }
        j.endArray();
        j.key("overall");
        j.beginObject()
            .field("legacyEventsPerSec", legacyRate)
            .field("wheelEventsPerSec", wheelRate)
            .field("speedup", wheelRate / legacyRate)
            .endObject();
        j.endObject();
        f << "\n";
        std::cout << "wrote " << opts.json << "\n";
    }
    return wheelRate / legacyRate >= 2.0 ? 0 : 1;
}
