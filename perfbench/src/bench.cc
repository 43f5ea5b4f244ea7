#include "bench.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <queue>

#include "common/log.hh"
#include "common/rng.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"
#include "system/config.hh"

namespace perfbench {

using syncron::harness::RunOutput;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
quartile(std::vector<double> v, int q)
{
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    long j = q * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = q * m - j * 4;
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
}

// -- Tracer ----------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t
Tracer::nowNs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin_)
            .count());
}

int
Tracer::beginRound(const std::string &kind)
{
    rounds_.push_back(kind);
    round_ = static_cast<int>(rounds_.size()) - 1;
    return round_;
}

int
Tracer::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    SpanRecord s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.round = round_;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    const int idx = static_cast<int>(spans_.size()) - 1;
    open_.push_back(idx);
    return idx;
}

void
Tracer::end(int idx)
{
    if (idx < 0)
        return;
    spans_[idx].endNs = nowNs();
    if (!open_.empty() && open_.back() == idx)
        open_.pop_back();
}

double
Tracer::medianRoundSeconds(const std::string &kind,
                           const std::string &name) const
{
    std::map<int, double> perRound;
    for (const SpanRecord &s : spans_) {
        if (s.round < 0 || rounds_[s.round] != kind)
            continue;
        double &sum = perRound[s.round];
        if (s.name == name)
            sum += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    }
    std::vector<double> v;
    for (const auto &[round, sum] : perRound)
        v.push_back(sum);
    return median(v);
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

void
Tracer::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        SYNCRON_FATAL("cannot write spans to " << path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        os << "  {\"id\": " << i << ", \"name\": \"" << jsonEscape(s.name)
           << "\", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs << ", \"parent\": " << s.parent
           << ", \"round\": " << s.round << ", \"round_kind\": \""
           << (s.round >= 0 ? rounds_[s.round] : std::string()) << "\"}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]\n";
}

// -- Digest ----------------------------------------------------------------

std::uint64_t
digestMix(std::uint64_t h, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (value >> (8 * i)) & 0xffU;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
digestOf(const RunOutput &out)
{
    std::uint64_t h = kDigestSeed;
    h = digestMix(h, out.time);
    h = digestMix(h, out.ops);
    out.stats.forEach([&h](const std::string &name, double value) {
        for (char c : name)
            h = digestMix(h, static_cast<unsigned char>(c));
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        h = digestMix(h, bits);
    });
    for (const syncron::SyncOpLatency &lat : out.stats.syncLatency) {
        h = digestMix(h, lat.count);
        h = digestMix(h, lat.totalTicks);
        h = digestMix(h, lat.minTicks);
        h = digestMix(h, lat.maxTicks);
        for (std::uint64_t b : lat.hist)
            h = digestMix(h, b);
    }
    for (std::uint64_t v : {out.offeredOps, out.issuedOps, out.droppedOps,
                            out.queuedOps, out.queueDelayTicks})
        h = digestMix(h, v);
    return h;
}

// -- RunContext ------------------------------------------------------------

RunOutput
RunContext::cell(const std::string &key, const std::string &span,
                 const std::function<RunOutput()> &fn,
                 const std::function<std::string(const RunOutput &)> &check)
{
    RunOutput out;
    std::string error;
    try {
        Span s(tracer, span);
        out = fn();
        error = check(out);
    } catch (const std::exception &e) {
        error = std::string("threw: ") + e.what();
    }
    record(key, std::move(error), digestOf(out));
    return out;
}

void
RunContext::step(const std::string &key, const std::string &span,
                 const std::function<std::string(std::uint64_t &)> &fn)
{
    std::uint64_t digest = kDigestSeed;
    std::string error;
    try {
        Span s(tracer, span);
        error = fn(digest);
    } catch (const std::exception &e) {
        error = std::string("threw: ") + e.what();
    }
    record(key, std::move(error), digest);
}

std::uint64_t
RunContext::expect(std::uint64_t count)
{
    if (plant == Plant::WrongCount && !planted_) {
        planted_ = true;
        return count + 1;
    }
    return count;
}

void
RunContext::record(const std::string &key, std::string error,
                   std::uint64_t digest)
{
    ++attempted_;
    if (firstRound_ < 0)
        firstRound_ = round_;
    if (round_ == firstRound_)
        digest_ = digestMix(digest_, digest);
    const auto [it, first] =
        firstDigest_.try_emplace(key, round_, digest);
    if (error.empty() && !first && it->second.second != digest) {
        error = "simulated digest differs from round "
                + std::to_string(it->second.first);
    }
    if (error.empty())
        return;
    ++failed_;
    if (failures_.size() < kKeptFailures)
        failures_.push_back(Failure{key, round_, std::move(error)});
}

// -- Metrics ---------------------------------------------------------------

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    for (Metric &m : list_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    list_.push_back(Metric{name, value, unit});
}

double
Metrics::get(const std::string &name) const
{
    for (const Metric &m : list_) {
        if (m.name == name)
            return m.value;
    }
    return 0.0;
}

// -- Host-speed reference --------------------------------------------------

namespace {

/// Keeps the reference loop's result observable.
volatile std::uint64_t g_referenceSink = 0;

} // namespace

double
referenceSeconds()
{
    struct Event
    {
        std::uint64_t when;
        std::uint64_t seq;
        std::function<void()> cb;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };
    constexpr int kPending = 256;
    constexpr std::uint64_t kEvents = 300'000;
    static const std::uint64_t kDelays[] = {400,  400,   400,  1200,
                                            1200, 12000, 48000};

    std::priority_queue<Event, std::vector<Event>, Later> queue;
    std::uint64_t now = 0, seq = 0, left = kEvents, acc = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL; // xorshift64
    std::function<void()> fire = [&] {
        acc = acc * 31 + now;
        if (left == 0)
            return;
        --left;
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        queue.push(Event{now + kDelays[rng % std::size(kDelays)], seq++,
                         fire});
    };
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kPending; ++i)
        fire();
    while (!queue.empty()) {
        Event ev = queue.top();
        queue.pop();
        now = ev.when;
        ev.cb();
    }
    g_referenceSink = acc;
    return secondsSince(start);
}

// -- Kernel probe ----------------------------------------------------------

namespace {

/** Self-rescheduling event chain holding the pending population fixed:
 *  every executed event schedules exactly one successor. */
struct KernelProbe
{
    syncron::sim::EventQueue queue;
    syncron::Rng rng;
    std::vector<syncron::Tick> delays;
    std::uint64_t left = 0;

    explicit KernelProbe(std::uint64_t seed) : rng(seed) {}

    void
    fire()
    {
        if (left == 0)
            return;
        --left;
        queue.scheduleIn(delays[rng.below(delays.size())],
                         [this] { fire(); });
    }
};

/** Table 5 latencies from the SystemConfig defaults, in ticks. */
std::vector<syncron::Tick>
table5Delays()
{
    const syncron::SystemConfig cfg;
    const syncron::Tick coreCycle = cfg.xbar.cyclePeriod;
    const syncron::Tick seService = cfg.seServiceCycles * cfg.seCyclePeriod;
    const syncron::Tick xbar =
        (cfg.xbar.arbiterCycles + cfg.xbar.hops * cfg.xbar.hopCycles)
        * cfg.xbar.cyclePeriod;
    const syncron::Tick link =
        cfg.link.ctrlCycles * cfg.link.cyclePeriod + cfg.link.flightTicks;
    const syncron::mem::DramParams dram =
        syncron::mem::DramParams::forTech(cfg.dramTech);
    const syncron::Tick dramRead = dram.tRcdRead + dram.tBurst;
    // Core cycles dominate a real run (compute intervals, L1 hits);
    // the rest appear once per message or miss.
    return {coreCycle, coreCycle, coreCycle, coreCycle, seService,
            xbar,      xbar,      link,      dramRead};
}

} // namespace

double
kernelProbeNsPerEvent(std::uint64_t seed, unsigned trials,
                      std::uint64_t events)
{
    constexpr unsigned kPending = 256;
    std::vector<double> nsPerEvent;
    for (unsigned t = 0; t < trials; ++t) {
        KernelProbe probe(seed + t);
        probe.delays = table5Delays();
        probe.left = events;
        for (unsigned i = 0; i < kPending; ++i)
            probe.fire();
        const Clock::time_point start = Clock::now();
        probe.queue.run();
        const double s = secondsSince(start);
        nsPerEvent.push_back(
            s * 1e9 / static_cast<double>(probe.queue.executed()));
    }
    return median(nsPerEvent);
}

} // namespace perfbench
