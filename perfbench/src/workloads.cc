/**
 * @file
 * The benchmark's four workloads. Each drives the simulator only
 * through its public entry points (harness::run*, harness::SharedInputs,
 * load::buildArrivalSchedule, the trace/analysis/durability codecs) and
 * wraps every call in a span, so the traced run attributes host time to
 * the layer that spent it.
 *
 * Every workload is single-threaded and unsharded (one grid worker, one
 * shard): host time then measures the simulator, not the scheduler, and
 * no workload depends on the --sim-shards path or the trace network
 * service, either of which an open ROADMAP item may delete.
 */

#include <array>
#include <cmath>
#include <filesystem>
#include <sstream>

#include "analysis/trace_analysis.hh"
#include "bench.hh"
#include "durability/image.hh"
#include "load/arrival.hh"
#include "load/slo.hh"
#include "sync/opcodes.hh"
#include "trace/format.hh"
#include "trace/mmap_reader.hh"
#include "trace/replay.hh"

namespace perfbench {

using namespace syncron;
using harness::RunOutput;

namespace {

constexpr unsigned kUnits = 4;
constexpr unsigned kCoresPerUnit = 15;
constexpr unsigned kClientCores = kUnits * kCoresPerUnit;

const Scheme kFourSchemes[] = {Scheme::Central, Scheme::Hier,
                               Scheme::SynCron, Scheme::Ideal};

constexpr unsigned kLockIdx = static_cast<unsigned>(sync::OpKind::LockAcquire);
constexpr unsigned kUnlockIdx =
    static_cast<unsigned>(sync::OpKind::LockRelease);

SystemConfig
makeConfig(Scheme scheme, std::uint64_t seed)
{
    SystemConfig cfg = SystemConfig::make(scheme, kUnits, kCoresPerUnit);
    cfg.seed = seed;
    return cfg;
}

std::string
expectEq(const char *what, std::uint64_t got, std::uint64_t want)
{
    if (got == want)
        return {};
    return std::string(what) + " = " + std::to_string(got) + ", expected "
           + std::to_string(want);
}

/** Every granted lock was released. */
std::string
locksBalanced(const RunOutput &out)
{
    return expectEq("lock releases",
                    out.stats.syncLatency[kUnlockIdx].count,
                    out.stats.syncLatency[kLockIdx].count);
}

std::string
firstError(std::initializer_list<std::string> errors)
{
    for (const std::string &e : errors) {
        if (!e.empty())
            return e;
    }
    return {};
}

/** Simulated totals of one rep, summed over its cells. */
struct Totals
{
    SystemStats stats;
    std::uint64_t events = 0;
    std::uint64_t ticks = 0;
    std::uint64_t ops = 0;

    void
    add(const RunOutput &out)
    {
        stats += out.stats;
        events += out.hostEvents;
        ticks += out.time;
        ops += out.ops;
    }
};

double
frac(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** The sim/net/syncron/cache/mem/workloads/sync metrics of a rep. */
void
setTotalsMetrics(const Totals &t, Metrics &m)
{
    const SystemStats &s = t.stats;
    m.set("sim.events", static_cast<double>(t.events), "count");
    m.set("sim.sim_ticks", static_cast<double>(t.ticks), "ps");
    m.set("net.xbar_messages", static_cast<double>(s.xbarMessages), "count");
    m.set("net.link_messages", static_cast<double>(s.linkMessages), "count");
    m.set("net.link_flits", static_cast<double>(s.linkFlits), "count");
    m.set("net.bytes_across_units", static_cast<double>(s.bytesAcrossUnits),
          "B");
    m.set("syncron.st_requests", static_cast<double>(s.stRequests), "count");
    m.set("syncron.st_overflow_frac",
          frac(static_cast<double>(s.stOverflowEvents),
               static_cast<double>(s.stRequests)),
          "frac");
    m.set("syncron.local_msgs", static_cast<double>(s.syncLocalMsgs),
          "count");
    m.set("syncron.global_msgs", static_cast<double>(s.syncGlobalMsgs),
          "count");
    m.set("syncron.mem_accesses", static_cast<double>(s.syncMemAccesses),
          "count");
    const double l1 = static_cast<double>(s.l1Hits + s.l1Misses);
    m.set("cache.l1_accesses", l1, "count");
    m.set("cache.l1_hit_frac", frac(static_cast<double>(s.l1Hits), l1),
          "frac");
    m.set("mem.dram_accesses", static_cast<double>(s.dramReads + s.dramWrites),
          "count");
    m.set("mem.row_hit_frac",
          frac(static_cast<double>(s.dramRowHits),
               static_cast<double>(s.dramRowHits + s.dramRowMisses)),
          "frac");
    m.set("workloads.ops", static_cast<double>(t.ops), "count");
    m.set("workloads.instructions", static_cast<double>(s.instructions),
          "count");
    m.set("workloads.mem_ops", static_cast<double>(s.memOps), "count");
    m.set("sync.ops", static_cast<double>(s.syncOps), "count");
    m.set("sync.batched_ops", static_cast<double>(s.batchedOps), "count");
    m.set("sync.acquire_p50_ns", s.latencyPercentile(kLockIdx, 0.5) / 1e3,
          "ns");
    m.set("sync.acquire_p99_ns", s.latencyPercentile(kLockIdx, 0.99) / 1e3,
          "ns");
}

// -- ds_closed -------------------------------------------------------------

/**
 * Closed loop, 60 client cores on 4 units: the nine Table 6 data
 * structures at their Fig. 11 defaults under the four schemes, plus the
 * Fig. 10 lock microbenchmark at the 200-instruction interval.
 */
class DsClosed : public Workload
{
  public:
    const char *name() const override { return "ds_closed"; }

    void
    setup(RunContext &ctx) override
    {
        Span span(ctx.tracer, "setup.cells");
        dsCells_.clear();
        for (harness::DsKind kind : harness::kAllDsKinds) {
            const harness::DsParams p = harness::dsDefaults(kind, 1.0);
            for (Scheme scheme : kFourSchemes)
                dsCells_.push_back({kind, p, makeConfig(scheme, ctx.seed)});
        }
        lockCells_.clear();
        for (Scheme scheme : {Scheme::Central, Scheme::Hier, Scheme::SynCron})
            lockCells_.push_back(makeConfig(scheme, ctx.seed));
    }

    void
    warmUp(RunContext &) override
    {
        harness::runPrimitive(lockCells_[2], workloads::Primitive::Lock, 200,
                              kLockOps);
    }

    void
    rep(RunContext &ctx) override
    {
        totals_ = {};
        // runDataStructure reports ops from its inputs, so the check uses
        // the lock acquires the simulation counted. Every operation takes
        // at least one lock; a coarse-grained structure takes exactly
        // one. Workers choose their keys from their own rng stream and
        // run-immutable structure maps, never from timing, so a
        // fine-grained structure takes the same number under every
        // scheme: each cell must match the structure's first cell.
        std::uint64_t firstAcquires = 0;
        for (const DsCell &c : dsCells_) {
            const std::string key = std::string(harness::dsName(c.kind))
                                    + "/" + schemeName(c.cfg.scheme);
            const std::uint64_t ops =
                std::uint64_t{kClientCores} * c.params.opsPerCore;
            const bool coarse = isCoarse(c.kind);
            const std::uint64_t want = coarse ? ctx.expect(ops) : ops;
            const bool first = c.cfg.scheme == kFourSchemes[0];
            const RunOutput out = ctx.cell(
                key, "harness::runDataStructure",
                [&c] {
                    return harness::runDataStructure(c.cfg, c.kind,
                                                     c.params.initialSize,
                                                     c.params.opsPerCore);
                },
                [&](const RunOutput &o) {
                    const std::uint64_t acquires =
                        o.stats.syncLatency[kLockIdx].count;
                    std::string error;
                    if (coarse)
                        error = expectEq("lock acquires", acquires, want);
                    else if (acquires < want)
                        error = "lock acquires = " + std::to_string(acquires)
                                + ", fewer than the "
                                + std::to_string(want) + " ops";
                    else if (!first)
                        error = expectEq("lock acquires", acquires,
                                         firstAcquires);
                    return firstError({error, locksBalanced(o)});
                });
            if (first)
                firstAcquires = out.stats.syncLatency[kLockIdx].count;
            totals_.add(out);
        }
        for (std::size_t i = 0; i < lockCells_.size(); ++i) {
            const SystemConfig &cfg = lockCells_[i];
            // Acquire + release per iteration.
            const std::uint64_t want =
                ctx.expect(std::uint64_t{kClientCores} * kLockOps * 2);
            const RunOutput out = ctx.cell(
                std::string("lock200/") + schemeName(cfg.scheme),
                "harness::runPrimitive",
                [&cfg] {
                    return harness::runPrimitive(
                        cfg, workloads::Primitive::Lock, 200, kLockOps);
                },
                [want](const RunOutput &o) {
                    return firstError(
                        {expectEq("sync ops", o.ops, want), locksBalanced(o)});
                });
            lockTime_[i] = static_cast<double>(out.time);
            totals_.add(out);
        }
    }

    void
    layerMetrics(Metrics &m) const override
    {
        setTotalsMetrics(totals_, m);
    }

    std::vector<std::string>
    fixedInputs() const override
    {
        return {"data-structure sizes and ops per core (Fig. 11 defaults)",
                "lock microbenchmark: interval 200, 16 ops per core"};
    }

    std::vector<Claim>
    claims() const override
    {
        // bench_fig10_primitives: lock rows at interval 200.
        const std::string note =
            "locks only; the paper averages all four primitives";
        return {
            {"fig10_lock_vs_central", 3.05, lockTime_[0] / lockTime_[2], "x",
             note},
            {"fig10_lock_vs_hier", 1.40, lockTime_[1] / lockTime_[2], "x",
             note},
        };
    }

  private:
    /// bench_fig10_primitives' per-core op count at --scale=1.
    static constexpr unsigned kLockOps = 16;

    /** Structures whose every operation takes exactly one lock. */
    static bool
    isCoarse(harness::DsKind kind)
    {
        switch (kind) {
          case harness::DsKind::Stack:
          case harness::DsKind::Queue:
          case harness::DsKind::ArrayMap:
          case harness::DsKind::PriorityQueue:
          case harness::DsKind::HashTable:
            return true;
          default:
            return false;
        }
    }

    struct DsCell
    {
        harness::DsKind kind;
        harness::DsParams params;
        SystemConfig cfg;
    };
    std::vector<DsCell> dsCells_;
    std::vector<SystemConfig> lockCells_; ///< Central, Hier, SynCron
    std::array<double, 3> lockTime_{};
    Totals totals_;
};

// -- apps_graph ------------------------------------------------------------

/**
 * Closed loop over the 26 Fig. 12 app.input combinations on 4 units
 * under the four schemes, at bench_fig12_real_apps' input scale. Carries
 * the Fig. 12 claims and the Fig. 15 claims (over Fig. 15's 8-combination
 * subset of the same cells).
 */
class AppsGraph : public Workload
{
  public:
    const char *name() const override { return "apps_graph"; }

    void
    setup(RunContext &ctx) override
    {
        combos_ = harness::allAppInputs();
        inputs_ = std::make_unique<harness::SharedInputs>();
        {
            Span span(ctx.tracer, "harness::SharedInputs::prepare");
            inputs_->prepare(combos_, kScale);
        }
        Span span(ctx.tracer, "harness::SharedInputs::preparePartitions");
        inputs_->preparePartitions(combos_, kUnits);
    }

    void
    warmUp(RunContext &ctx) override
    {
        harness::runAppInput(makeConfig(Scheme::SynCron, ctx.seed),
                             {"bfs", "sl"}, *inputs_);
    }

    void
    rep(RunContext &ctx) override
    {
        totals_ = {};
        outs_.clear();
        for (const harness::AppInput &ai : combos_) {
            for (Scheme scheme : kFourSchemes) {
                const SystemConfig cfg = makeConfig(scheme, ctx.seed);
                RunOutput out = ctx.cell(
                    ai.app + "." + ai.input + "/" + schemeName(scheme),
                    "harness::runAppInput",
                    [&] { return harness::runAppInput(cfg, ai, *inputs_); },
                    [](const RunOutput &o) {
                        return firstError(
                            {o.ops == 0 ? "no locked updates" : "",
                             locksBalanced(o)});
                    });
                totals_.add(out);
                outs_.push_back(std::move(out));
            }
        }
    }

    void
    layerMetrics(Metrics &m) const override
    {
        setTotalsMetrics(totals_, m);
    }

    std::vector<Claim>
    claims() const override
    {
        if (outs_.size() != combos_.size() * 4)
            return {};
        // bench_fig12_real_apps: geometric means over all 26 rows.
        double geoHier = 0, geoSynCron = 0, geoIdeal = 0;
        for (std::size_t c = 0; c < combos_.size(); ++c) {
            const double central = time(c, 0);
            geoHier += std::log(central / time(c, 1));
            geoSynCron += std::log(central / time(c, 2));
            geoIdeal += std::log(central / time(c, 3));
        }
        const double n = static_cast<double>(combos_.size());
        const double hier = std::exp(geoHier / n);
        const double syncron = std::exp(geoSynCron / n);
        const double ideal = std::exp(geoIdeal / n);

        // bench_fig15_data_movement: arithmetic mean of per-combination
        // total-movement ratios over its 8 combinations.
        double centralOverSc = 0, hierOverSc = 0;
        int m = 0;
        for (std::size_t c = 0; c < combos_.size(); ++c) {
            if (!inFig15(combos_[c]))
                continue;
            const double sc = moved(c, 2);
            centralOverSc += moved(c, 0) / sc;
            hierOverSc += moved(c, 1) / sc;
            ++m;
        }
        return {
            {"fig12_syncron_vs_central", 1.47, syncron, "x", ""},
            {"fig12_hier_vs_central", 1.19, hier, "x", ""},
            {"fig12_ideal_gap", 9.5, (ideal / syncron - 1.0) * 100.0, "%",
             "compared as the ratio Ideal/SynCron (1 + gap)"},
            {"fig15_move_vs_central", 2.08, centralOverSc / m, "x", ""},
            {"fig15_move_vs_hier", 2.04, hierOverSc / m, "x",
             "bench_fig15_data_movement prints only the Central ratio; "
             "this one is computed the same way"},
        };
    }

    std::vector<std::string>
    fixedInputs() const override
    {
        return {"Fig. 12 proxy graphs wk/sl/sx/co (seeded by input name)",
                "SCRIMP proxy series air/pow (seeded by input name)",
                "graph partitions (rangePartition, deterministic)"};
    }

  private:
    /// bench_fig12_real_apps / bench_fig15_data_movement input scale.
    static constexpr double kScale = 0.35;

    static bool
    inFig15(const harness::AppInput &ai)
    {
        static const std::pair<const char *, const char *> kCombos[] = {
            {"bfs", "sl"}, {"cc", "sx"}, {"sssp", "co"}, {"pr", "wk"},
            {"tf", "sl"},  {"tc", "sx"}, {"ts", "air"},  {"ts", "pow"},
        };
        for (const auto &[app, input] : kCombos) {
            if (ai.app == app && ai.input == input)
                return true;
        }
        return false;
    }

    double
    time(std::size_t combo, int scheme) const
    {
        return static_cast<double>(outs_[combo * 4 + scheme].time);
    }

    double
    moved(std::size_t combo, int scheme) const
    {
        const SystemStats &s = outs_[combo * 4 + scheme].stats;
        return static_cast<double>(s.bytesInsideUnits + s.bytesAcrossUnits);
    }

    std::vector<harness::AppInput> combos_;
    std::unique_ptr<harness::SharedInputs> inputs_;
    std::vector<RunOutput> outs_; ///< combo-major, kFourSchemes order
    Totals totals_;
};

// -- openloop_slo ----------------------------------------------------------

/**
 * Open loop: Poisson arrivals at bench_slo_curves' per-core rates
 * (queue policy) on SynCron and Central, then the max-sustainable-rate
 * search under a 2000 ns p99 for both, over [kSearchLo, 6.4] per us.
 */
class OpenLoopSlo : public Workload
{
  public:
    const char *name() const override { return "openloop_slo"; }

    void
    setup(RunContext &ctx) override
    {
        base_ = load::LoadSpec{};
        base_.kind = load::ArrivalKind::Poisson;
        base_.opsPerCore = 64;
        base_.window = 4;
        base_.numLocks = 16;
        base_.policy = load::OverloadPolicy::Queue;
        base_.seed = ctx.seed;
        specs_.clear();
        schedules_.clear();
        for (double rate : kRates) {
            load::LoadSpec spec = base_;
            spec.ratePerUs = rate;
            specs_.push_back(spec);
            Span span(ctx.tracer, "load::buildArrivalSchedule");
            schedules_.push_back(
                load::buildArrivalSchedule(spec, kClientCores));
        }
    }

    void
    warmUp(RunContext &ctx) override
    {
        harness::runOpenLoop(makeConfig(Scheme::SynCron, ctx.seed),
                             specs_[0], schedules_[0]);
    }

    void
    rep(RunContext &ctx) override
    {
        totals_ = {};
        curve_ = {};
        for (std::size_t s = 0; s < std::size(kSchemes); ++s) {
            const SystemConfig cfg = makeConfig(kSchemes[s], ctx.seed);
            for (std::size_t r = 0; r < std::size(kRates); ++r) {
                const RunOutput out =
                    runPoint(ctx, cfg, specs_[r], schedules_[r], "curve/");
                totals_.add(out);
                curve_.offered += out.offeredOps;
                curve_.dropped += out.droppedOps;
                curve_.queued += out.queuedOps;
                curve_.queueDelayTicks += out.queueDelayTicks;
                if (kSchemes[s] == Scheme::SynCron)
                    curve_.p99Ns[r] = point(out, kRates[r]).p99Ns;
            }
            // The search expands each probe's schedule itself, as
            // bench_slo_curves' probes do.
            auto probe = [&](double rate) {
                load::LoadSpec spec = base_;
                spec.ratePerUs = rate;
                load::ArrivalSchedule sched;
                {
                    Span span(ctx.tracer, "load::buildArrivalSchedule");
                    sched = load::buildArrivalSchedule(spec, kClientCores);
                }
                const RunOutput out =
                    runPoint(ctx, cfg, spec, sched, "search/");
                totals_.add(out);
                return point(out, rate);
            };
            maxRate_[s] = load::findMaxSustainableRate(
                              probe, kSearchLo, kRates[std::size(kRates) - 1],
                              kSloP99Ns, kSearchIters)
                              .maxRatePerUs;
        }
    }

    void
    layerMetrics(Metrics &m) const override
    {
        setTotalsMetrics(totals_, m);
        m.set("load.offered", static_cast<double>(curve_.offered), "count");
        m.set("load.shed_frac",
              frac(static_cast<double>(curve_.dropped),
                   static_cast<double>(curve_.offered)),
              "frac");
        m.set("load.queue_delay_ns_avg",
              frac(static_cast<double>(curve_.queueDelayTicks),
                   static_cast<double>(curve_.queued))
                  / 1e3,
              "ns");
        for (std::size_t r = 0; r < std::size(kRates); ++r)
            m.set(std::string("load.p99_ns.") + kRateLabels[r],
                  curve_.p99Ns[r], "ns");
        for (std::size_t s = 0; s < std::size(kSchemes); ++s)
            m.set(std::string("load.max_rate_per_us.")
                      + schemeName(kSchemes[s]),
                  maxRate_[s], "1/us");
    }

    std::vector<std::string>
    fixedInputs() const override
    {
        return {"offered rates 0.1/0.4/1.6/6.4 per core per us, 64 "
                "arrivals per core, window 4, 16 locks"};
    }

  private:
    static constexpr Scheme kSchemes[] = {Scheme::SynCron, Scheme::Central};
    static constexpr double kRates[] = {0.1, 0.4, 1.6, 6.4};
    static constexpr const char *kRateLabels[] = {"r0.1", "r0.4", "r1.6",
                                                  "r6.4"};
    static constexpr double kSloP99Ns = 2000.0;
    static constexpr unsigned kSearchIters = 5;
    /// Low end of the search, below bench_slo_curves' 0.1: Central sits
    /// at the SLO there, so on some seeds the search would stop after
    /// one probe and the workload's host cost would depend on the seed.
    static constexpr double kSearchLo = 0.025;

    static load::SloPoint
    point(const RunOutput &out, double rate)
    {
        return load::makeSloPoint(
            rate, out.time, out.offeredOps,
            load::LoadCounters{out.issuedOps, out.droppedOps, out.queuedOps,
                               out.queueDelayTicks},
            out.stats);
    }

    RunOutput
    runPoint(RunContext &ctx, const SystemConfig &cfg,
             const load::LoadSpec &spec, const load::ArrivalSchedule &sched,
             const std::string &prefix)
    {
        const std::uint64_t want = ctx.expect(sched.totalArrivals());
        return ctx.cell(
            prefix + schemeName(cfg.scheme) + "/" + std::to_string(spec.ratePerUs),
            "harness::runOpenLoop",
            [&] { return harness::runOpenLoop(cfg, spec, sched); },
            [want](const RunOutput &o) {
                return firstError(
                    {expectEq("issued + dropped", o.issuedOps + o.droppedOps,
                              want),
                     expectEq("lock acquires",
                              o.stats.syncLatency[kLockIdx].count,
                              o.issuedOps),
                     locksBalanced(o)});
            });
    }

    struct Curve
    {
        std::uint64_t offered = 0;
        std::uint64_t dropped = 0;
        std::uint64_t queued = 0;
        std::uint64_t queueDelayTicks = 0;
        std::array<double, std::size(kRates)> p99Ns{};
    };

    load::LoadSpec base_;
    std::vector<load::LoadSpec> specs_;
    std::vector<load::ArrivalSchedule> schedules_;
    Curve curve_;
    std::array<double, std::size(kSchemes)> maxRate_{};
    Totals totals_;
};

// -- trace_observe ---------------------------------------------------------

/** Per-OpKind counts recorded at the backend boundary. */
std::array<std::uint64_t, kNumSyncOpKinds>
opCountsOf(const SystemStats &s)
{
    std::array<std::uint64_t, kNumSyncOpKinds> counts{};
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k)
        counts[k] = s.syncLatency[k].count;
    return counts;
}

std::string
countsMatch(const char *what,
            const std::array<std::uint64_t, kNumSyncOpKinds> &got,
            const std::array<std::uint64_t, kNumSyncOpKinds> &want)
{
    for (unsigned k = 0; k < kNumSyncOpKinds; ++k) {
        if (got[k] != want[k]) {
            return std::string(what) + ": "
                   + sync::opKindName(static_cast<sync::OpKind>(k)) + " "
                   + std::to_string(got[k]) + ", expected "
                   + std::to_string(want[k]);
        }
    }
    return {};
}

std::uint64_t
digestCounts(std::uint64_t h,
             const std::array<std::uint64_t, kNumSyncOpKinds> &counts)
{
    for (std::uint64_t c : counts)
        h = digestMix(h, c);
    return h;
}

std::uint64_t
digestTrace(std::uint64_t h, const trace::Trace &t)
{
    h = digestMix(h, t.primitives.size());
    for (const trace::TraceRecord &r : t.records) {
        h = digestMix(h, r.issued);
        h = digestMix(h, r.completed);
        h = digestMix(h, (std::uint64_t{r.core} << 32) | r.prim);
        h = digestMix(h, (static_cast<std::uint64_t>(r.kind) << 32)
                             | r.assocPrim);
    }
    return h;
}

/**
 * The replication workload on SynCron with live analysis, eager
 * persistence and trace capture all on; then the trace's codecs: a
 * SYNCTRC write, a streaming read, an mmap validateAll scan, offline
 * analyzeTrace, a SYNCDUR image round trip of the same records, and a
 * replay of the trace on Central.
 */
class TraceObserve : public Workload
{
  public:
    explicit TraceObserve(std::string outDir) : outDir_(std::move(outDir)) {}

    const char *name() const override { return "trace_observe"; }

    void
    setup(RunContext &ctx) override
    {
        Span span(ctx.tracer, "setup.cells");
        params_ = workloads::ReplicationParams{};
        params_.epochs = 8;
        params_.opsPerEpoch = 48;
        params_.seed = ctx.seed;
        observed_ = makeConfig(Scheme::SynCron, ctx.seed);
        observed_.analyze = true;
        observed_.persistMode = durability::PersistMode::Eager;
    }

    void
    warmUp(RunContext &ctx) override
    {
        harness::runReplication(makeConfig(Scheme::SynCron, ctx.seed),
                                params_);
    }

    void
    rep(RunContext &ctx) override
    {
        totals_ = {};
        // Fresh files per rep: the trace writer warns when a path is
        // written twice in one process.
        const std::string stem =
            outDir_ + "/trace_observe." + std::to_string(reps_++);
        observed_.tracePath = stem + ".capture.trc";
        copyPath_ = stem + ".copy.trc";
        // Every core: per op sem wait + acquire + release + sem post,
        // and one barrier per epoch.
        const std::uint64_t want = ctx.expect(
            std::uint64_t{kClientCores} * params_.epochs
            * (params_.opsPerEpoch * 4 + 1));
        const RunOutput live = ctx.cell(
            "replication/observed", "harness::runReplication",
            [&] { return harness::runReplication(observed_, params_); },
            [want](const RunOutput &o) {
                return firstError({expectEq("sync ops", o.ops, want),
                                   o.stats.pmWrites == 0
                                       ? "eager persistence wrote nothing"
                                       : "",
                                   locksBalanced(o)});
            });
        totals_.add(live);
        pmWrites_ = live.stats.pmWrites;
        const auto liveCounts = opCountsOf(live.stats);

        trace::Trace t;
        ctx.step("trace/read", "trace::readTraceFile",
                 [&](std::uint64_t &h) {
                     t = trace::readTraceFile(observed_.tracePath);
                     h = digestTrace(h, t);
                     return countsMatch("captured trace", t.opCounts(),
                                        liveCounts);
                 });
        records_ = t.records.size();

        ctx.step("trace/write", "trace::writeTraceFile",
                 [&](std::uint64_t &h) {
                     trace::writeTraceFile(t, copyPath_);
                     fileBytes_ = std::filesystem::file_size(copyPath_);
                     h = digestMix(h, fileBytes_);
                     if (ctx.plant == Plant::CorruptTrace)
                         std::filesystem::resize_file(copyPath_,
                                                      fileBytes_ - 3);
                     return std::string();
                 });

        ctx.step("trace/mmap_scan", "trace::MappedTraceReader::validateAll",
                 [&](std::uint64_t &h) {
                     const trace::MappedTraceReader reader(copyPath_);
                     const auto counts = reader.validateAll();
                     h = digestCounts(h, counts);
                     return countsMatch("mmap scan", counts, t.opCounts());
                 });

        ctx.step("analysis/offline", "analysis::analyzeTrace",
                 [&](std::uint64_t &h) {
                     findings_ = analysis::analyzeTrace(t).findings.size();
                     h = digestMix(h, findings_);
                     return findings_ == 0
                                ? std::string()
                                : std::to_string(findings_)
                                      + " offline analysis findings";
                 });

        ctx.step("durability/image", "durability::imageRoundTrip",
                 [&](std::uint64_t &h) {
                     durability::PersistedImage img;
                     img.numUnits = t.numUnits;
                     img.clientCoresPerUnit = t.clientCoresPerUnit;
                     img.mode = durability::PersistMode::Eager;
                     img.appended = t.records.size();
                     img.primitives = t.primitives;
                     img.records = t.records;
                     std::stringstream buf;
                     {
                         Span span(ctx.tracer, "durability::writeImage");
                         durability::writeImage(buf, img);
                     }
                     h = digestMix(h, buf.str().size());
                     Span span(ctx.tracer, "durability::readImage");
                     return durability::readImage(buf) == img
                                ? std::string()
                                : "SYNCDUR image round trip differs";
                 });

        SystemConfig replayCfg = trace::replayConfig(t, Scheme::Central);
        replayCfg.seed = ctx.seed;
        const auto traceCounts = t.opCounts();
        totals_.add(ctx.cell(
            "replay/Central", "harness::runTrace",
            [&] { return harness::runTrace(replayCfg, t); },
            [&traceCounts](const RunOutput &o) {
                return countsMatch("replay", opCountsOf(o.stats),
                                   traceCounts);
            }));
        std::filesystem::remove(observed_.tracePath);
        std::filesystem::remove(copyPath_);
    }

    void
    layerMetrics(Metrics &m) const override
    {
        setTotalsMetrics(totals_, m);
        m.set("trace.records", static_cast<double>(records_), "count");
        m.set("trace.bytes_per_record",
              frac(static_cast<double>(fileBytes_),
                   static_cast<double>(records_)),
              "B");
        m.set("analysis.findings", static_cast<double>(findings_), "count");
        m.set("durability.pm_writes", static_cast<double>(pmWrites_),
              "count");
    }

    /**
     * Host cost of each observer on its own: the replication run with
     * nothing on, with only live analysis, and with only eager
     * persistence, three times each; overhead = median ratio - 1.
     */
    void
    calibrate(RunContext &ctx, Metrics &m) override
    {
        SystemConfig plain = makeConfig(Scheme::SynCron, ctx.seed);
        SystemConfig analyzed = plain;
        analyzed.analyze = true;
        SystemConfig eager = plain;
        eager.persistMode = durability::PersistMode::Eager;
        std::vector<double> tPlain, tAnalyzed, tEager;
        auto hostSeconds = [&](const SystemConfig &cfg, const char *span) {
            Span s(ctx.tracer, span);
            const Clock::time_point start = Clock::now();
            harness::runReplication(cfg, params_);
            return secondsSince(start);
        };
        for (int i = 0; i < 3; ++i) {
            tPlain.push_back(hostSeconds(plain, "calibrate.plain"));
            tAnalyzed.push_back(hostSeconds(analyzed, "calibrate.analyze"));
            tEager.push_back(hostSeconds(eager, "calibrate.eager"));
        }
        const double base = median(tPlain);
        m.set("analysis.live_overhead", median(tAnalyzed) / base - 1.0,
              "frac");
        m.set("durability.eager_overhead", median(tEager) / base - 1.0,
              "frac");
    }

    std::vector<std::string>
    fixedInputs() const override
    {
        return {"replication shape: 8 epochs x 48 records per core"};
    }

  private:
    std::string outDir_;
    std::string copyPath_;
    unsigned reps_ = 0;
    workloads::ReplicationParams params_;
    SystemConfig observed_;
    std::uint64_t records_ = 0;
    std::uint64_t fileBytes_ = 0;
    std::uint64_t findings_ = 0;
    std::uint64_t pmWrites_ = 0;
    Totals totals_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "ds_closed", "apps_graph", "openloop_slo", "trace_observe"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const std::string &outDir)
{
    if (name == "ds_closed")
        return std::make_unique<DsClosed>();
    if (name == "apps_graph")
        return std::make_unique<AppsGraph>();
    if (name == "openloop_slo")
        return std::make_unique<OpenLoopSlo>();
    if (name == "trace_observe")
        return std::make_unique<TraceObserve>(outDir);
    return nullptr;
}

} // namespace perfbench
