/**
 * @file
 * Tests for the open-loop load subsystem (src/load/) and its
 * supporting pieces: the M/D/1 estimator's closed-form behavior, the
 * log-interpolated latency percentiles, arrival-schedule generation,
 * the OpenLoopWorkload's accounting, determinism and analyzer
 * cleanliness, curve JSON byte-identity,
 * and the max-sustainable-rate search.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/units.hh"
#include "harness/runner.hh"
#include "load/arrival.hh"
#include "load/openloop.hh"
#include "load/slo.hh"
#include "net/md1.hh"
#include "sync/opcodes.hh"
#include "system/config.hh"
#include "system/system.hh"

using namespace syncron;

// ------------------------------------------------------------------
// Md1Estimator (satellite: closed form, clamp, first arrival)
// ------------------------------------------------------------------

TEST(Md1, FirstArrivalReturnsZeroDelay)
{
    net::Md1Estimator md1(1000);
    EXPECT_EQ(md1.onArrival(123456), 0u);
    EXPECT_EQ(md1.rho(), 0.0);
}

TEST(Md1, EwmaConvergesToClosedFormForDeterministicArrivals)
{
    // Deterministic stream with inter-arrival 2000 ticks against a
    // 1000-tick service: rho = 0.5 exactly. The EWMA sees the same
    // gap every time, so it converges to it and the online estimate
    // must match Md1Estimator::waitingTicks at the implied rho.
    constexpr Tick kService = 1000;
    constexpr Tick kGap = 2000;
    net::Md1Estimator md1(kService);
    Tick t = 0;
    for (int i = 0; i < 2000; ++i)
        md1.onArrival(t += kGap);
    EXPECT_NEAR(md1.rho(), 0.5, 1e-9);
    const double wq = net::Md1Estimator::waitingTicks(0.5, kService);
    // Wq = rho / (2 mu (1 - rho)) = 0.5 / (2 * 1e-3 * 0.5) = 500.
    EXPECT_DOUBLE_EQ(wq, 500.0);
    EXPECT_NEAR(static_cast<double>(md1.currentDelay()), wq, 1.0);
}

TEST(Md1, RhoClampsAtMaxUnderZeroInterArrivalBurst)
{
    constexpr double kMaxRho = 0.95;
    net::Md1Estimator md1(1000, kMaxRho);
    // All arrivals at the same tick: inter-arrival 0 (floored to 1
    // tick inside the EWMA), so lambda explodes and rho must clamp.
    for (int i = 0; i < 200; ++i)
        md1.onArrival(5000);
    EXPECT_DOUBLE_EQ(md1.rho(), kMaxRho);
    // The clamp keeps the delay large but finite.
    EXPECT_EQ(md1.currentDelay(),
              static_cast<Tick>(
                  net::Md1Estimator::waitingTicks(kMaxRho, 1000)));
}

// ------------------------------------------------------------------
// Log-interpolated percentiles
// ------------------------------------------------------------------

TEST(Percentile, EmptyHistogramIsZero)
{
    SyncOpLatency lat;
    EXPECT_EQ(lat.percentileTicks(0.99), 0.0);
}

TEST(Percentile, SingleValueClampsToExactObservation)
{
    SyncOpLatency lat;
    lat.record(700); // bucket covers [512, 1024)
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
        // Interpolation inside the bucket is clamped to the exact
        // min/max, which coincide for one sample.
        EXPECT_EQ(lat.percentileTicks(q), 700.0) << "q=" << q;
    }
}

TEST(Percentile, InterpolatesGeometricallyInsideBucket)
{
    // 100 samples spread over bucket [1024, 2048) with min/max pinned
    // to the bucket edges: the q-quantile must land at 1024 * 2^q.
    SyncOpLatency lat;
    lat.record(1024);
    lat.record(2047);
    for (int i = 0; i < 98; ++i)
        lat.record(1500);
    const double p50 = lat.percentileTicks(0.50);
    EXPECT_DOUBLE_EQ(p50, 1024.0 * std::exp2(0.50));
    // Monotone in q, and within the observed range.
    double prev = 0.0;
    for (double q : {0.1, 0.25, 0.5, 0.9, 0.99, 0.999}) {
        const double v = lat.percentileTicks(q);
        EXPECT_GE(v, prev) << "q=" << q;
        EXPECT_GE(v, 1024.0);
        EXPECT_LE(v, 2047.0);
        prev = v;
    }
}

TEST(Percentile, FindsTheTailBucket)
{
    // 99 fast ops in [16, 32), one slow op in [4096, 8192): p50 sits
    // in the fast bucket, p999 in the slow one.
    SyncOpLatency lat;
    for (int i = 0; i < 99; ++i)
        lat.record(20);
    lat.record(5000);
    EXPECT_LT(lat.percentileTicks(0.50), 32.0);
    EXPECT_GE(lat.percentileTicks(0.999), 4096.0);
    EXPECT_LE(lat.percentileTicks(0.999), 5000.0);
}

TEST(Percentile, SystemStatsHelperMatchesPerKind)
{
    SystemStats stats;
    const unsigned acq =
        static_cast<unsigned>(sync::OpKind::LockAcquire);
    stats.recordSyncLatency(acq, 100);
    stats.recordSyncLatency(acq, 200);
    EXPECT_EQ(stats.latencyPercentile(acq, 0.99),
              stats.syncLatency[acq].percentileTicks(0.99));
    // A kind never recorded reports zero.
    EXPECT_EQ(stats.latencyPercentile(
                  static_cast<unsigned>(sync::OpKind::SemWait), 0.99),
              0.0);
}

// ------------------------------------------------------------------
// LoadSpec parsing
// ------------------------------------------------------------------

TEST(LoadSpec, ParsesFullSpecAndRoundTrips)
{
    load::LoadSpec spec;
    std::string err;
    ASSERT_TRUE(load::LoadSpec::fromString(
        "bursty:rate=2.5,ops=128,window=8,locks=32,hold=50,"
        "policy=drop,seed=9,burst=4,gapx=20",
        spec, err))
        << err;
    EXPECT_EQ(spec.kind, load::ArrivalKind::Bursty);
    EXPECT_DOUBLE_EQ(spec.ratePerUs, 2.5);
    EXPECT_EQ(spec.opsPerCore, 128u);
    EXPECT_EQ(spec.window, 8u);
    EXPECT_EQ(spec.numLocks, 32u);
    EXPECT_EQ(spec.holdTicks, nsToTicks(50));
    EXPECT_EQ(spec.policy, load::OverloadPolicy::Drop);
    EXPECT_EQ(spec.seed, 9u);
    EXPECT_EQ(spec.burstLen, 4u);
    EXPECT_DOUBLE_EQ(spec.burstGapFactor, 20.0);

    // toString is parseable and reproduces the spec.
    load::LoadSpec again;
    ASSERT_TRUE(
        load::LoadSpec::fromString(spec.toString(), again, err))
        << err;
    EXPECT_EQ(again.toString(), spec.toString());
}

TEST(LoadSpec, DefaultsWithBareKind)
{
    load::LoadSpec spec;
    std::string err;
    ASSERT_TRUE(load::LoadSpec::fromString("poisson", spec, err));
    EXPECT_EQ(spec.kind, load::ArrivalKind::Poisson);
    EXPECT_EQ(spec.policy, load::OverloadPolicy::Queue);
}

TEST(LoadSpec, RejectsMalformedSpecs)
{
    load::LoadSpec spec;
    std::string err;
    for (const char *bad :
         {"", "gaussian", "poisson:rate=0", "poisson:rate=nope",
          "poisson:rate", "poisson:=3", "poisson:window=0",
          "poisson:window=65", "poisson:ops=0", "poisson:locks=0",
          "poisson:policy=maybe", "poisson:seed=0",
          "poisson:amp=1.5", "poisson:frobnicate=1",
          "poisson:hold=-5"}) {
        err.clear();
        EXPECT_FALSE(load::LoadSpec::fromString(bad, spec, err))
            << "accepted '" << bad << "'";
        EXPECT_FALSE(err.empty()) << "no error for '" << bad << "'";
    }
}

// ------------------------------------------------------------------
// Arrival schedules
// ------------------------------------------------------------------

namespace {

load::LoadSpec
smallSpec(load::ArrivalKind kind = load::ArrivalKind::Poisson)
{
    load::LoadSpec spec;
    spec.kind = kind;
    spec.ratePerUs = 2.0;
    spec.opsPerCore = 40;
    spec.window = 2;
    spec.numLocks = 8;
    spec.seed = 42;
    return spec;
}

} // namespace

TEST(ArrivalSchedule, DeterministicAndWellFormed)
{
    const load::LoadSpec spec = smallSpec();
    const load::ArrivalSchedule a = load::buildArrivalSchedule(spec, 6);
    const load::ArrivalSchedule b = load::buildArrivalSchedule(spec, 6);
    ASSERT_EQ(a.perCore.size(), 6u);
    EXPECT_EQ(a.totalArrivals(), 6u * spec.opsPerCore);
    for (unsigned c = 0; c < 6; ++c) {
        ASSERT_EQ(a.perCore[c].size(), spec.opsPerCore);
        EXPECT_EQ(a.perCore[c], b.perCore[c]) << "core " << c;
        Tick prev = 0;
        for (const load::Arrival &arr : a.perCore[c]) {
            EXPECT_GT(arr.tick, prev); // strictly increasing (gap >= 1)
            EXPECT_LT(arr.lockIdx, spec.numLocks);
            prev = arr.tick;
        }
    }
    // Different cores draw different streams.
    EXPECT_NE(a.perCore[0], a.perCore[1]);
    EXPECT_GT(a.horizon(), 0u);
}

TEST(ArrivalSchedule, PerCoreStreamsIndependentOfCoreCount)
{
    // Core i's schedule must not depend on how many cores exist:
    // adding cores leaves every existing core's table unchanged.
    const load::LoadSpec spec = smallSpec();
    const load::ArrivalSchedule few = load::buildArrivalSchedule(spec, 2);
    const load::ArrivalSchedule many =
        load::buildArrivalSchedule(spec, 8);
    EXPECT_EQ(few.perCore[0], many.perCore[0]);
    EXPECT_EQ(few.perCore[1], many.perCore[1]);
}

TEST(ArrivalSchedule, SeedAndKindChangeTheSchedule)
{
    load::LoadSpec spec = smallSpec();
    const load::ArrivalSchedule base =
        load::buildArrivalSchedule(spec, 2);
    spec.seed = 43;
    EXPECT_NE(load::buildArrivalSchedule(spec, 2).perCore[0],
              base.perCore[0]);
    spec.seed = 42;
    spec.kind = load::ArrivalKind::Bursty;
    EXPECT_NE(load::buildArrivalSchedule(spec, 2).perCore[0],
              base.perCore[0]);
}

TEST(ArrivalSchedule, FixedKindHitsTheRateExactly)
{
    load::LoadSpec spec = smallSpec(load::ArrivalKind::Fixed);
    spec.ratePerUs = 4.0; // gap = 250000 ticks
    const load::ArrivalSchedule sched =
        load::buildArrivalSchedule(spec, 1);
    const Tick gap = static_cast<Tick>(spec.meanGapTicks());
    for (unsigned i = 0; i < spec.opsPerCore; ++i)
        EXPECT_EQ(sched.perCore[0][i].tick, gap * (i + 1));
}

TEST(ArrivalSchedule, PoissonMeanGapNearNominal)
{
    load::LoadSpec spec = smallSpec();
    spec.opsPerCore = 4000;
    spec.ratePerUs = 1.0; // mean gap 1e6 ticks
    const load::ArrivalSchedule sched =
        load::buildArrivalSchedule(spec, 1);
    const double lastTick =
        static_cast<double>(sched.perCore[0].back().tick);
    const double meanGap =
        lastTick / static_cast<double>(spec.opsPerCore);
    // 4000 exponential draws: the sample mean is within a few percent
    // of the nominal gap with overwhelming probability (seeded, so
    // this is deterministic anyway).
    EXPECT_NEAR(meanGap, spec.meanGapTicks(),
                0.1 * spec.meanGapTicks());
}

// ------------------------------------------------------------------
// Open-loop runs
// ------------------------------------------------------------------

namespace {

SystemConfig
loadConfig(Scheme scheme = Scheme::SynCron)
{
    return SystemConfig::make(scheme, 4, 2);
}

std::vector<double>
statsVector(const SystemStats &stats)
{
    std::vector<double> v;
    stats.forEach(
        [&](const std::string &, double value) { v.push_back(value); });
    return v;
}

} // namespace

TEST(OpenLoop, AccountingAddsUpUnderQueuePolicy)
{
    const load::LoadSpec spec = smallSpec();
    const harness::RunOutput out =
        harness::runOpenLoop(loadConfig(), spec);
    EXPECT_EQ(out.offeredOps, 8u * spec.opsPerCore);
    // Queue policy issues everything eventually.
    EXPECT_EQ(out.issuedOps, out.offeredOps);
    EXPECT_EQ(out.droppedOps, 0u);
    EXPECT_EQ(out.ops, out.issuedOps);
    // Every issued arrival completed acquire and release.
    const unsigned acq =
        static_cast<unsigned>(sync::OpKind::LockAcquire);
    EXPECT_EQ(out.stats.syncLatency[acq].count, out.issuedOps);
    EXPECT_GT(out.time, 0u);
}

TEST(OpenLoop, DropPolicyShedsUnderOverload)
{
    // Saturating rate with a tiny window: drops must appear, and
    // issued + dropped must cover every offered arrival.
    load::LoadSpec spec = smallSpec();
    spec.ratePerUs = 100.0;
    spec.window = 1;
    spec.policy = load::OverloadPolicy::Drop;
    const harness::RunOutput out =
        harness::runOpenLoop(loadConfig(), spec);
    EXPECT_EQ(out.issuedOps + out.droppedOps, out.offeredOps);
    EXPECT_GT(out.droppedOps, 0u);
    EXPECT_EQ(out.queuedOps, 0u);
}

TEST(OpenLoop, QueuePolicyAccountsLateness)
{
    load::LoadSpec spec = smallSpec();
    spec.ratePerUs = 100.0;
    spec.window = 1;
    const harness::RunOutput out =
        harness::runOpenLoop(loadConfig(), spec);
    EXPECT_GT(out.queuedOps, 0u);
    EXPECT_GT(out.queueDelayTicks, 0u);
    EXPECT_EQ(out.droppedOps, 0u);
}

TEST(OpenLoop, RunsAreDeterministic)
{
    const load::LoadSpec spec = smallSpec();
    const harness::RunOutput a =
        harness::runOpenLoop(loadConfig(), spec);
    const harness::RunOutput b =
        harness::runOpenLoop(loadConfig(), spec);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.issuedOps, b.issuedOps);
    EXPECT_EQ(statsVector(a.stats), statsVector(b.stats));
}

TEST(OpenLoop, AnalyzesCleanOnEveryBackend)
{
    // The PR 6 invariant: the workload surface must produce zero
    // analysis findings. analyzeFatal run — a finding aborts.
    for (Scheme scheme : {Scheme::SynCron, Scheme::Central,
                          Scheme::Hier, Scheme::SynCronFlat}) {
        SystemConfig cfg = loadConfig(scheme);
        cfg.analyze = true;
        cfg.analyzeFatal = true;
        const harness::RunOutput out =
            harness::runOpenLoop(cfg, smallSpec());
        EXPECT_GT(out.issuedOps, 0u) << schemeName(scheme);
    }
}

TEST(OpenLoop, SameCoreSameLockArrivalsSerialize)
{
    // One lock, window 4: every in-flight op of a core targets the
    // same lock, so the per-core serialization path is exercised hard;
    // the run must complete with full accounting (a lost waitlist bit
    // would deadlock, which system.run() turns into a fatal).
    load::LoadSpec spec = smallSpec();
    spec.numLocks = 1;
    spec.window = 4;
    spec.ratePerUs = 50.0;
    const harness::RunOutput out =
        harness::runOpenLoop(loadConfig(), spec);
    EXPECT_EQ(out.issuedOps, out.offeredOps);
}

// ------------------------------------------------------------------
// SLO layer
// ------------------------------------------------------------------

TEST(Slo, CurveJsonByteIdenticalAcrossRuns)
{
    const load::LoadSpec spec = smallSpec();
    auto measure = [&] {
        const harness::RunOutput out =
            harness::runOpenLoop(loadConfig(), spec);
        load::SloCurve curve;
        curve.backend = "SynCron";
        curve.points.push_back(load::makeSloPoint(
            spec.ratePerUs, out.time, out.offeredOps,
            load::LoadCounters{out.issuedOps, out.droppedOps,
                               out.queuedOps, out.queueDelayTicks},
            out.stats));
        return load::curveToJson(curve);
    };
    const std::string a = measure();
    const std::string b = measure();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b); // byte-identical
    EXPECT_NE(a.find("\"p99Ns\""), std::string::npos);
}

TEST(Slo, SearchBisectsSyntheticMonotoneProbe)
{
    // p99(rate) = 100 * rate: the SLO p99 <= 1000 is met exactly up to
    // rate 10. The probe is synthetic, so the search logic is tested
    // in isolation (and cheaply).
    unsigned calls = 0;
    auto probe = [&](double rate) {
        ++calls;
        load::SloPoint p;
        p.ratePerUs = rate;
        p.p99Ns = 100.0 * rate;
        return p;
    };
    const load::SloSearchResult res =
        load::findMaxSustainableRate(probe, 1.0, 100.0, 1000.0, 12);
    EXPECT_FALSE(res.loFailed);
    EXPECT_FALSE(res.hiPassed);
    EXPECT_EQ(res.probes, calls);
    EXPECT_NEAR(res.maxRatePerUs, 10.0, 0.5);
    EXPECT_LE(res.p99NsAtMax, 1000.0);
}

TEST(Slo, SearchReportsDegenerateEndpoints)
{
    auto failing = [](double rate) {
        load::SloPoint p;
        p.p99Ns = 1e9;
        p.ratePerUs = rate;
        return p;
    };
    const load::SloSearchResult lo =
        load::findMaxSustainableRate(failing, 1.0, 10.0, 100.0);
    EXPECT_TRUE(lo.loFailed);
    EXPECT_EQ(lo.maxRatePerUs, 0.0);

    auto passing = [](double rate) {
        load::SloPoint p;
        p.p99Ns = 1.0;
        p.ratePerUs = rate;
        return p;
    };
    const load::SloSearchResult hi =
        load::findMaxSustainableRate(passing, 1.0, 10.0, 100.0);
    EXPECT_TRUE(hi.hiPassed);
    EXPECT_DOUBLE_EQ(hi.maxRatePerUs, 10.0);
}

TEST(Slo, DroppedArrivalsViolateTheSlo)
{
    auto probe = [](double rate) {
        load::SloPoint p;
        p.ratePerUs = rate;
        p.p99Ns = 1.0;            // latency always fine...
        p.dropped = rate > 2.0 ? 1 : 0; // ...but sheds beyond rate 2
        return p;
    };
    const load::SloSearchResult res =
        load::findMaxSustainableRate(probe, 1.0, 16.0, 100.0, 10);
    EXPECT_FALSE(res.loFailed);
    EXPECT_FALSE(res.hiPassed);
    EXPECT_NEAR(res.maxRatePerUs, 2.0, 0.2);
}
