/**
 * @file
 * Sync-correctness analysis tests: seeded defect scenarios must be
 * reported with an exact witness (direct engine and live observer), and
 * the entire legitimate workload surface — all nine Table 6 structures,
 * every primitive microbenchmark, every synthetic scenario family —
 * must analyze with zero findings on multiple backends (the ROADMAP
 * "analysis-clean" invariant).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "analysis/analyzers.hh"
#include "analysis/live.hh"
#include "analysis/report.hh"
#include "analysis/trace_analysis.hh"
#include "harness/runner.hh"
#include "system/system.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "trace/scenario.hh"

namespace syncron::analysis {
namespace {

// --------------------------------------------------------------------
// Direct-engine seeded defects
// --------------------------------------------------------------------

/** A completed lock/sem/cond op at [t, t+1]. */
OpEvent
ev(sync::OpKind kind, std::uint32_t core, std::uint64_t prim, Tick t)
{
    OpEvent e;
    e.kind = kind;
    e.core = core;
    e.prim = prim;
    e.issued = t;
    e.completed = t + 1;
    return e;
}

unsigned
countKind(const AnalysisReport &r, FindingKind kind)
{
    unsigned n = 0;
    for (const Finding &f : r.findings)
        n += f.kind == kind ? 1 : 0;
    return n;
}

const Finding &
firstOfKind(const AnalysisReport &r, FindingKind kind)
{
    for (const Finding &f : r.findings) {
        if (f.kind == kind)
            return f;
    }
    throw std::runtime_error("no finding of the requested kind");
}

TEST(AnalysisEngine, AbBaLockOrderCycleReportedWithWitness)
{
    AnalysisEngine eng(MachineShape{1, 4});
    // Core 0: A then B. Core 1: B then A — time-separated, so this is
    // the pure order inversion (no operation ever blocks).
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 2, 20));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 2, 30));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 40));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 2, 50));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 1, 60));
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 1, 70));
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 2, 80));

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::LockOrderCycle), 1u)
        << "exactly one canonical cycle expected";
    const Finding &f = firstOfKind(r, FindingKind::LockOrderCycle);
    ASSERT_EQ(f.witness.size(), 2u) << "one witness step per edge";
    // Each edge witness names the acquiring core and the issue tick of
    // the edge-closing acquire.
    EXPECT_EQ(f.witness[0].core, 0u);
    EXPECT_EQ(f.witness[0].prim, 2u) << "core 0 acquired #2 holding #1";
    EXPECT_EQ(f.witness[0].tick, 21u);
    EXPECT_EQ(f.witness[1].core, 1u);
    EXPECT_EQ(f.witness[1].prim, 1u) << "core 1 acquired #1 holding #2";
    EXPECT_EQ(f.witness[1].tick, 61u);
    EXPECT_EQ(countKind(r, FindingKind::ReleaseWithoutAcquire), 0u);
    EXPECT_EQ(countKind(r, FindingKind::LockHeldAtTeardown), 0u);
}

TEST(AnalysisEngine, InFlightAcquireStillClosesTheCycle)
{
    // The second half of an ACTUAL deadlock never completes; the
    // issue-time edge must close the cycle anyway.
    AnalysisEngine eng(MachineShape{1, 4});
    eng.onIssue(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onIssue(ev(sync::OpKind::LockAcquire, 1, 2, 12));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 2, 12));
    eng.onIssue(ev(sync::OpKind::LockAcquire, 0, 2, 20));  // blocks
    eng.onIssue(ev(sync::OpKind::LockAcquire, 1, 1, 22));  // blocks
    const AnalysisReport r = eng.finish();
    EXPECT_EQ(countKind(r, FindingKind::LockOrderCycle), 1u);
    // Both blocked acquires are also pending-op leaks — that is the
    // deadlock's other signature and must be reported per core.
    EXPECT_EQ(countKind(r, FindingKind::PendingOpLeak), 2u);
}

TEST(AnalysisEngine, StaleGenerationUseAfterCrashRecovery)
{
    AnalysisEngine eng(MachineShape{1, 2});
    // Pre-crash generation: locks #1 and #2 both in use.
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 20));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 2, 30));
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 2, 40));

    // Crash at tick 50; recovery re-minted #2 only.
    eng.noteCrashRecovery(50, {2});

    // Re-minted #2 is fine. #1 is a stale pre-crash handle — flagged
    // once, however many post-crash ops touch it. #3, first seen after
    // the crash, is a fresh generation and must not be flagged.
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 2, 60));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 2, 70));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 80));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 90));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 3, 100));
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 3, 110));

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::StaleGenerationUse), 1u);
    const Finding &f = firstOfKind(r, FindingKind::StaleGenerationUse);
    EXPECT_EQ(f.prim, 1u);
    EXPECT_EQ(f.core, 0u);
    EXPECT_EQ(f.tick, 81u)
        << "flagged at the first post-crash completion on the stale "
           "primitive";
    EXPECT_NE(f.message.find("stale generation"), std::string::npos)
        << f.message;
    EXPECT_STREQ(findingKindName(FindingKind::StaleGenerationUse),
                 "stale-generation-use");
}

TEST(AnalysisEngine, NoStaleGenerationWithoutCrash)
{
    // The same stream minus the crash boundary stays clean.
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 20));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 80));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 1, 90));
    const AnalysisReport r = eng.finish();
    EXPECT_EQ(countKind(r, FindingKind::StaleGenerationUse), 0u);
}

TEST(AnalysisEngine, EmptyLocksetRaceReportedWithBothAccesses)
{
    AnalysisEngine eng(MachineShape{1, 2});
    const Addr addr = 0x4000;
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 7, 10));
    eng.onAccess(0, addr, true, 12);
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 7, 14));
    eng.onAccess(1, addr, true, 20); // second core, no lock held

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::EmptyLocksetRace), 1u);
    const Finding &f = firstOfKind(r, FindingKind::EmptyLocksetRace);
    EXPECT_EQ(f.core, 1u);
    EXPECT_EQ(f.prim, addr);
    EXPECT_EQ(f.tick, 20u);
    ASSERT_EQ(f.witness.size(), 2u);
    EXPECT_EQ(f.witness[0].core, 0u) << "previous access as witness";
    EXPECT_EQ(f.witness[1].core, 1u) << "racing access as witness";
}

TEST(AnalysisEngine, ConsistentlyLockedAccessesStayClean)
{
    AnalysisEngine eng(MachineShape{1, 2});
    const Addr addr = 0x4000;
    for (std::uint32_t core : {0u, 1u, 0u, 1u}) {
        const Tick t = 100 * (core + 1);
        eng.onComplete(ev(sync::OpKind::LockAcquire, core, 7, t));
        eng.onAccess(core, addr, true, t + 2);
        eng.onComplete(ev(sync::OpKind::LockRelease, core, 7, t + 4));
    }
    EXPECT_TRUE(eng.finish().clean());
}

TEST(AnalysisEngine, DoubleReleaseReportedWithPreviousRelease)
{
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 3, 10));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 3, 20));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 3, 30));

    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::DoubleRelease), 1u);
    const Finding &f = firstOfKind(r, FindingKind::DoubleRelease);
    EXPECT_EQ(f.core, 0u);
    EXPECT_EQ(f.prim, 3u);
    ASSERT_EQ(f.witness.size(), 2u);
    EXPECT_EQ(f.witness[0].tick, 21u) << "previous release tick";
    EXPECT_EQ(f.witness[1].tick, 30u) << "offending release issue";
}

TEST(AnalysisEngine, ReleaseWithoutAcquireReported)
{
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 5, 10));
    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::ReleaseWithoutAcquire), 1u);
    EXPECT_EQ(firstOfKind(r, FindingKind::ReleaseWithoutAcquire).core,
              1u);
}

TEST(AnalysisEngine, DelayedAsyncReleaseRecordIsNotFlagged)
{
    // Fire-and-forget releases commit SE-side at issue but are recorded
    // at future drop, so the next owner's acquire can be recorded
    // first; the displaced owner's delayed release is legitimate.
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 3, 10));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 1, 3, 20)); // displaces
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 3, 20)); // delayed
    eng.onComplete(ev(sync::OpKind::LockRelease, 1, 3, 30));
    EXPECT_TRUE(eng.finish().clean());
}

TEST(AnalysisEngine, BarrierArityBeyondMachineShapeReported)
{
    AnalysisEngine eng(MachineShape{1, 4});
    OpEvent e = ev(sync::OpKind::BarrierWaitAcrossUnits, 0, 9, 10);
    e.participants = 5; // machine has 4 client cores
    eng.onComplete(e);
    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::BarrierArityMismatch), 1u);
    EXPECT_EQ(firstOfKind(r, FindingKind::BarrierArityMismatch).prim,
              9u);
}

TEST(AnalysisEngine, BarrierArityChangeAcrossWaitsReported)
{
    AnalysisEngine eng(MachineShape{2, 4});
    OpEvent e = ev(sync::OpKind::BarrierWaitAcrossUnits, 0, 9, 10);
    e.participants = 3;
    eng.onComplete(e);
    e = ev(sync::OpKind::BarrierWaitAcrossUnits, 1, 9, 20);
    e.participants = 2;
    eng.onComplete(e);
    EXPECT_EQ(countKind(eng.finish(),
                        FindingKind::BarrierArityMismatch),
              1u)
        << "reported once per barrier";
}

TEST(AnalysisEngine, SemaphoreUnderflowReported)
{
    AnalysisEngine eng(MachineShape{1, 2});
    OpEvent e = ev(sync::OpKind::SemWait, 0, 4, 10);
    e.resources = 0; // zero initial resources, no post ever
    eng.onComplete(e);
    const AnalysisReport r = eng.finish();
    ASSERT_EQ(countKind(r, FindingKind::SemaphoreUnderflow), 1u);
    EXPECT_EQ(firstOfKind(r, FindingKind::SemaphoreUnderflow).prim, 4u);
}

TEST(AnalysisEngine, LateRecordedPostsBalanceByIssueTick)
{
    // The post's completion RECORD arrives after the grant it enabled
    // (awaited batch future); the issue-tick merge keeps this clean.
    AnalysisEngine eng(MachineShape{1, 2});
    OpEvent wait = ev(sync::OpKind::SemWait, 0, 4, 19);
    wait.resources = 0;
    eng.onComplete(wait);
    OpEvent post = ev(sync::OpKind::SemPost, 1, 4, 5);
    post.completed = 100; // recorded long after the grant
    eng.onComplete(post);
    EXPECT_TRUE(eng.finish().clean());
}

TEST(AnalysisEngine, TeardownLeaksReported)
{
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onIssue(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 1, 10));
    // Never released; plus core 1 issues an acquire that never
    // completes.
    eng.onIssue(ev(sync::OpKind::LockAcquire, 1, 2, 20));
    const AnalysisReport r = eng.finish();
    EXPECT_EQ(countKind(r, FindingKind::LockHeldAtTeardown), 1u);
    ASSERT_EQ(countKind(r, FindingKind::PendingOpLeak), 1u);
    EXPECT_EQ(firstOfKind(r, FindingKind::PendingOpLeak).core, 1u);
}

TEST(AnalysisEngine, JsonReportCarriesKindAndWitness)
{
    AnalysisEngine eng(MachineShape{1, 2});
    eng.onComplete(ev(sync::OpKind::LockAcquire, 0, 3, 10));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 3, 20));
    eng.onComplete(ev(sync::OpKind::LockRelease, 0, 3, 30));
    const AnalysisReport r = eng.finish();

    std::ostringstream os;
    r.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"clean\""), std::string::npos);
    EXPECT_NE(json.find("double-release"), std::string::npos);
    EXPECT_NE(json.find("\"witness\""), std::string::npos);

    std::ostringstream clean;
    AnalysisReport{}.writeJson(clean);
    EXPECT_NE(clean.str().find("true"), std::string::npos);
}

// --------------------------------------------------------------------
// Golden report: finding order and text, engine and live observer
// --------------------------------------------------------------------

/** One step of the golden stream; ops issue at tick and complete one
 *  tick later unless issueOnly. */
struct GoldenStep
{
    sync::OpKind kind;
    std::uint32_t core;
    std::uint64_t prim; ///< dense id, in first-use order
    Tick tick;
    bool issueOnly = false;
};

constexpr std::uint64_t kLockA = 0, kLockB = 1, kLockC = 2, kSem = 3,
                        kLockD = 4;
constexpr Tick kGoldenCrashTick = 60;
constexpr std::uint32_t kGoldenSemResources = 1;

/** Steps before (first) and after (second) the crash boundary. */
std::pair<std::vector<GoldenStep>, std::vector<GoldenStep>>
goldenStream()
{
    using K = sync::OpKind;
    std::vector<GoldenStep> before = {
        // AB-BA: core 0 takes A then B, core 1 takes B then A.
        {K::LockAcquire, 0, kLockA, 10}, {K::LockAcquire, 0, kLockB, 12},
        {K::LockRelease, 0, kLockB, 14}, {K::LockRelease, 0, kLockA, 16},
        {K::LockAcquire, 1, kLockB, 20}, {K::LockAcquire, 1, kLockA, 22},
        {K::LockRelease, 1, kLockA, 24}, {K::LockRelease, 1, kLockB, 26},
        // Double release of C by core 2.
        {K::LockAcquire, 2, kLockC, 30}, {K::LockRelease, 2, kLockC, 32},
        {K::LockRelease, 2, kLockC, 34},
        // Two waits on a one-resource semaphore that is never posted.
        {K::SemWait, 3, kSem, 40}, {K::SemWait, 3, kSem, 42},
        // D is used before the crash and not re-minted by recovery.
        {K::LockAcquire, 3, kLockD, 44}, {K::LockRelease, 3, kLockD, 46},
        // C is still held when the run ends.
        {K::LockAcquire, 1, kLockC, 50},
    };
    std::vector<GoldenStep> after = {
        {K::LockAcquire, 3, kLockD, 70}, {K::LockRelease, 3, kLockD, 72},
        // B joins C among the locks held at teardown.
        {K::LockAcquire, 2, kLockB, 74},
        // Ops that never complete: pending-op leaks on cores 0 and 3.
        {K::LockAcquire, 0, kLockA, 80, true},
        {K::SemWait, 3, kSem, 82, true},
    };
    return {before, after};
}

const std::set<std::uint64_t> kGoldenReminted = {kLockA, kLockB, kLockC,
                                                 kSem};

std::string
reportText(const AnalysisReport &r)
{
    std::ostringstream os;
    r.print(os);
    os << "--\n";
    r.writeJson(os);
    return os.str();
}

AnalysisReport
goldenThroughEngine()
{
    AnalysisEngine eng(MachineShape{1, 4});
    auto feed = [&eng](const std::vector<GoldenStep> &steps) {
        for (const GoldenStep &s : steps) {
            OpEvent e;
            e.kind = s.kind;
            e.core = s.core;
            e.prim = s.prim;
            e.resources = kGoldenSemResources;
            e.issued = s.tick;
            e.completed = s.tick;
            eng.onIssue(e);
            if (s.issueOnly)
                continue;
            e.completed = s.tick + 1;
            eng.onComplete(e);
        }
    };
    const auto [before, after] = goldenStream();
    feed(before);
    eng.noteCrashRecovery(kGoldenCrashTick, kGoldenReminted);
    feed(after);
    return eng.finish();
}

AnalysisReport
goldenThroughLiveAnalyzer()
{
    // One unit: core ids are the dense client indices. Addresses are
    // first used in dense-id order, so the observer mints the same ids.
    const SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 1, 4);
    LiveAnalyzer live(cfg);
    auto request = [](const GoldenStep &s) {
        const Addr addr = 0x1000 + s.prim * 64;
        switch (s.kind) {
          case sync::OpKind::LockAcquire:
            return sync::SyncRequest::lockAcquire(addr);
          case sync::OpKind::LockRelease:
            return sync::SyncRequest::lockRelease(addr);
          default:
            return sync::SyncRequest::semWait(addr, kGoldenSemResources);
        }
    };
    auto feed = [&](const std::vector<GoldenStep> &steps) {
        for (const GoldenStep &s : steps) {
            const sync::SyncRequest req = request(s);
            live.onIssue(s.core, req, s.tick);
            if (!s.issueOnly)
                live.onComplete(s.core, req, s.tick, s.tick + 1);
        }
    };
    const auto [before, after] = goldenStream();
    feed(before);
    live.noteCrashRecovery(kGoldenCrashTick, kGoldenReminted);
    feed(after);
    return live.finish();
}

const char *const kGoldenReport = R"golden(analysis: 8 finding(s)
  [double-release] lock prim#2 released twice by core 2 without reacquiring
    at core 2, prim#2, tick 34
    witness: core 2, prim#2, tick 32: previous release
    witness: core 2, prim#2, tick 34: offending release
  [stale-generation-use] core 3 used prim#4, minted before the crash at tick 60 and never re-minted by recovery (stale generation)
    at core 3, prim#4, tick 70
  [lock-order-cycle] lock-order cycle: prim#0 -> prim#1 -> prim#0
    at core 0, prim#0, tick 12
    witness: core 0, prim#1, tick 12: core 0 acquired prim#1 while holding prim#0 (held since tick 11)
    witness: core 1, prim#0, tick 22: core 1 acquired prim#0 while holding prim#1 (held since tick 21)
  [semaphore-underflow] semaphore prim#3: wait #2 granted with no resources available (initial 1, posts so far 0)
    at core 3, prim#3, tick 43
    witness: core 3, prim#3, tick 43: over-granted wait
  [lock-held-at-teardown] lock prim#1 still owned by core 2 when the run finished
    at core 2, prim#1, tick 75
  [lock-held-at-teardown] lock prim#2 still owned by core 1 when the run finished
    at core 1, prim#2, tick 51
  [pending-op-leak] 1 operation(s) issued by core 0 never completed (leaked futures or operations blocked at teardown)
    at core 0, prim#0, tick 0
  [pending-op-leak] 1 operation(s) issued by core 3 never completed (leaked futures or operations blocked at teardown)
    at core 3, prim#0, tick 0
--
{
  "clean": false,
  "findings": [
    {
      "kind": "double-release",
      "message": "lock prim#2 released twice by core 2 without reacquiring",
      "core": 2,
      "prim": 2,
      "tick": 34,
      "witness": [
        {
          "core": 2,
          "prim": 2,
          "tick": 32,
          "note": "previous release"
        },
        {
          "core": 2,
          "prim": 2,
          "tick": 34,
          "note": "offending release"
        }
      ]
    },
    {
      "kind": "stale-generation-use",
      "message": "core 3 used prim#4, minted before the crash at tick 60 and never re-minted by recovery (stale generation)",
      "core": 3,
      "prim": 4,
      "tick": 70,
      "witness": []
    },
    {
      "kind": "lock-order-cycle",
      "message": "lock-order cycle: prim#0 -> prim#1 -> prim#0",
      "core": 0,
      "prim": 0,
      "tick": 12,
      "witness": [
        {
          "core": 0,
          "prim": 1,
          "tick": 12,
          "note": "core 0 acquired prim#1 while holding prim#0 (held since tick 11)"
        },
        {
          "core": 1,
          "prim": 0,
          "tick": 22,
          "note": "core 1 acquired prim#0 while holding prim#1 (held since tick 21)"
        }
      ]
    },
    {
      "kind": "semaphore-underflow",
      "message": "semaphore prim#3: wait #2 granted with no resources available (initial 1, posts so far 0)",
      "core": 3,
      "prim": 3,
      "tick": 43,
      "witness": [
        {
          "core": 3,
          "prim": 3,
          "tick": 43,
          "note": "over-granted wait"
        }
      ]
    },
    {
      "kind": "lock-held-at-teardown",
      "message": "lock prim#1 still owned by core 2 when the run finished",
      "core": 2,
      "prim": 1,
      "tick": 75,
      "witness": []
    },
    {
      "kind": "lock-held-at-teardown",
      "message": "lock prim#2 still owned by core 1 when the run finished",
      "core": 1,
      "prim": 2,
      "tick": 51,
      "witness": []
    },
    {
      "kind": "pending-op-leak",
      "message": "1 operation(s) issued by core 0 never completed (leaked futures or operations blocked at teardown)",
      "core": 0,
      "prim": 0,
      "tick": 0,
      "witness": []
    },
    {
      "kind": "pending-op-leak",
      "message": "1 operation(s) issued by core 3 never completed (leaked futures or operations blocked at teardown)",
      "core": 3,
      "prim": 0,
      "tick": 0,
      "witness": []
    }
  ]
})golden";

TEST(AnalysisGolden, EngineReportIsFixed)
{
    const AnalysisReport r = goldenThroughEngine();
    EXPECT_EQ(reportText(r), kGoldenReport);
    std::set<FindingKind> kinds;
    for (const Finding &f : r.findings)
        kinds.insert(f.kind);
    EXPECT_GE(kinds.size(), 5u);
}

TEST(AnalysisGolden, LiveAnalyzerReportIsFixed)
{
    EXPECT_EQ(reportText(goldenThroughLiveAnalyzer()), kGoldenReport);
}

// --------------------------------------------------------------------
// Live observer: seeded defects through a real system
// --------------------------------------------------------------------

sim::Process
orderedPairWorker(NdpSystem &sys, core::Core &c, sync::Lock first,
                  sync::Lock second, unsigned delay)
{
    sync::SyncApi &api = sys.api();
    co_await c.compute(delay);
    co_await api.acquire(c, first);
    co_await c.compute(10);
    co_await api.acquire(c, second);
    co_await c.compute(10);
    co_await api.release(c, second);
    co_await api.release(c, first);
}

TEST(LiveAnalysis, LockOrderInversionIsCaught)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 1, 2);
    cfg.analyze = true;
    cfg.analyzeFatal = false; // inspect the report instead
    NdpSystem sys(cfg);
    sync::Lock a = sys.api().createLock(0);
    sync::Lock b = sys.api().createLock(0);
    // Time-separated AB / BA: never an actual deadlock, always an
    // order inversion.
    sys.spawn(orderedPairWorker(sys, sys.clientCore(0), a, b, 0));
    sys.spawn(orderedPairWorker(sys, sys.clientCore(1), b, a, 5000));
    sys.run();

    ASSERT_NE(sys.analyzer(), nullptr);
    const AnalysisReport &r = sys.analyzer()->report();
    EXPECT_EQ(countKind(r, FindingKind::LockOrderCycle), 1u);
    EXPECT_EQ(countKind(r, FindingKind::LockHeldAtTeardown), 0u);
    EXPECT_EQ(countKind(r, FindingKind::PendingOpLeak), 0u);
}

sim::Process
hintedWriteWorker(NdpSystem &sys, core::Core &c, sync::Lock lock,
                  Addr addr, bool takeLock, unsigned delay)
{
    sync::SyncApi &api = sys.api();
    co_await c.compute(delay);
    if (takeLock)
        co_await api.acquire(c, lock);
    api.accessHint(c, addr, true);
    co_await c.store(addr, 8, core::MemKind::SharedRW);
    if (takeLock)
        co_await api.release(c, lock);
}

TEST(LiveAnalysis, UnlockedSharedWriteIsCaught)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 1, 2);
    cfg.analyze = true;
    cfg.analyzeFatal = false;
    NdpSystem sys(cfg);
    sync::Lock lock = sys.api().createLock(0);
    const Addr addr = 0x9000;
    sys.spawn(hintedWriteWorker(sys, sys.clientCore(0), lock, addr,
                                true, 0));
    sys.spawn(hintedWriteWorker(sys, sys.clientCore(1), lock, addr,
                                false, 5000));
    sys.run();

    const AnalysisReport &r = sys.analyzer()->report();
    ASSERT_EQ(countKind(r, FindingKind::EmptyLocksetRace), 1u);
    const Finding &f = firstOfKind(r, FindingKind::EmptyLocksetRace);
    EXPECT_EQ(f.core, 1u);
    EXPECT_EQ(f.prim, addr);
}

TEST(LiveAnalysis, FatalByDefaultOnFindings)
{
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 1, 2);
    cfg.analyze = true; // analyzeFatal stays at its default (true)
    NdpSystem sys(cfg);
    sync::Lock a = sys.api().createLock(0);
    sync::Lock b = sys.api().createLock(0);
    sys.spawn(orderedPairWorker(sys, sys.clientCore(0), a, b, 0));
    sys.spawn(orderedPairWorker(sys, sys.clientCore(1), b, a, 5000));
    EXPECT_THROW(sys.run(), std::runtime_error);
}

// --------------------------------------------------------------------
// The analysis-clean invariant over the legitimate workload surface
// --------------------------------------------------------------------

TEST(AnalysisClean, AllNineStructuresOnSynCronAndCentral)
{
    for (Scheme scheme : {Scheme::SynCron, Scheme::Central}) {
        for (harness::DsKind kind : harness::kAllDsKinds) {
            SystemConfig cfg = SystemConfig::make(scheme, 2, 4);
            cfg.analyze = true; // fatal on any finding
            const harness::DsParams p = harness::dsDefaults(kind, 0.1);
            const harness::RunOutput out = harness::runDataStructure(
                cfg, kind, p.initialSize, p.opsPerCore);
            EXPECT_GT(out.ops, 0u)
                << harness::dsName(kind) << " on " << schemeName(scheme);
        }
    }
}

TEST(AnalysisClean, PrimitiveMicrobenchmarksIncludingCondAndSem)
{
    for (workloads::Primitive prim :
         {workloads::Primitive::Lock, workloads::Primitive::Barrier,
          workloads::Primitive::Semaphore,
          workloads::Primitive::CondVar}) {
        SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
        cfg.analyze = true;
        const harness::RunOutput out =
            harness::runPrimitive(cfg, prim, 100, 8);
        EXPECT_GT(out.ops, 0u);
    }
    // Batched fan-out posts recorded at await time — the async-record
    // stress case for the semaphore accounting.
    SystemConfig cfg = SystemConfig::make(Scheme::SynCron, 2, 4);
    cfg.analyze = true;
    harness::runSemFanout(cfg, 4, 4, true);
    harness::runSemFanout(cfg, 4, 4, false);
}

TEST(AnalysisClean, ScenarioFamiliesLiveAndOffline)
{
    for (trace::ScenarioFamily family : trace::kAllScenarioFamilies) {
        trace::ScenarioSpec spec;
        spec.family = family;
        spec.numUnits = 2;
        spec.clientCoresPerUnit = 3;
        spec.opsPerCore = 6;
        spec.phases = 3;
        const trace::Trace t = trace::ScenarioGenerator(spec).generate();

        // Offline: the trace itself must be clean.
        EXPECT_TRUE(analyzeTrace(t).clean())
            << trace::scenarioFamilyName(family);

        // Live: replaying it with the observer installed must be too
        // (fatal on findings).
        SystemConfig cfg = trace::replayConfig(t, Scheme::SynCron);
        cfg.analyze = true;
        const harness::RunOutput out = harness::runTrace(cfg, t);
        EXPECT_EQ(out.ops, t.records.size())
            << trace::scenarioFamilyName(family);
    }
}

TEST(AnalysisClean, OfflineSeededDeadlockTraceIsNotClean)
{
    // Hand-built AB/BA trace: proves the offline adapter threads
    // records (incl. primitive identities) into the engine correctly.
    trace::Trace t;
    t.numUnits = 1;
    t.clientCoresPerUnit = 2;
    t.primitives.push_back(
        trace::TracePrimitive{trace::PrimKind::Lock, 0, 0,
                              sync::BarrierScope::AcrossUnits});
    t.primitives.push_back(
        trace::TracePrimitive{trace::PrimKind::Lock, 0, 0,
                              sync::BarrierScope::AcrossUnits});
    auto rec = [](Tick tick, std::uint32_t core, sync::OpKind kind,
                  std::uint32_t prim) {
        trace::TraceRecord r;
        r.issued = tick;
        r.completed = tick + 1;
        r.core = core;
        r.kind = kind;
        r.prim = prim;
        return r;
    };
    t.records.push_back(rec(10, 0, sync::OpKind::LockAcquire, 0));
    t.records.push_back(rec(20, 0, sync::OpKind::LockAcquire, 1));
    t.records.push_back(rec(30, 0, sync::OpKind::LockRelease, 1));
    t.records.push_back(rec(40, 0, sync::OpKind::LockRelease, 0));
    t.records.push_back(rec(50, 1, sync::OpKind::LockAcquire, 1));
    t.records.push_back(rec(60, 1, sync::OpKind::LockAcquire, 0));
    t.records.push_back(rec(70, 1, sync::OpKind::LockRelease, 0));
    t.records.push_back(rec(80, 1, sync::OpKind::LockRelease, 1));

    const AnalysisReport r = analyzeTrace(t);
    EXPECT_EQ(countKind(r, FindingKind::LockOrderCycle), 1u);
}

} // namespace
} // namespace syncron::analysis
