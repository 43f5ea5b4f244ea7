#include "analysis/analyzers.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"

namespace syncron::analysis {

namespace {

std::string
primName(std::uint64_t prim)
{
    std::ostringstream os;
    os << "prim#" << prim;
    return os.str();
}

} // namespace

AnalysisEngine::AnalysisEngine(MachineShape shape)
    : shape_(shape),
      held_(shape.totalClientCores()),
      outstanding_(shape.totalClientCores(), 0),
      inflightAcquires_(shape.totalClientCores()),
      preIssuedReleases_(shape.totalClientCores())
{
}

// --------------------------------------------------------------------
// Per-core pending lists
// --------------------------------------------------------------------

void
AnalysisEngine::bump(PrimCounts &counts, std::uint64_t prim)
{
    for (PrimCount &c : counts) {
        if (c.prim == prim) {
            ++c.count;
            return;
        }
    }
    counts.push_back(PrimCount{prim, 1});
}

bool
AnalysisEngine::consume(PrimCounts &counts, std::uint64_t prim)
{
    for (PrimCount &c : counts) {
        if (c.prim != prim)
            continue;
        if (--c.count == 0) {
            c = counts.back();
            counts.pop_back();
        }
        return true;
    }
    return false;
}

bool
AnalysisEngine::contains(const PrimCounts &counts, std::uint64_t prim)
{
    for (const PrimCount &c : counts) {
        if (c.prim == prim)
            return true;
    }
    return false;
}

// --------------------------------------------------------------------
// Shared held-lock tracking
// --------------------------------------------------------------------

bool
AnalysisEngine::removeHeld(std::uint32_t core, std::uint64_t prim)
{
    std::vector<HeldLock> &held = heldOf(core);
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (it->prim == prim) {
            held.erase(std::next(it).base());
            return true;
        }
    }
    return false;
}

// --------------------------------------------------------------------
// Crash/recovery generation tracking
// --------------------------------------------------------------------

void
AnalysisEngine::noteCrashRecovery(Tick tick,
                                  const std::set<std::uint64_t> &reminted)
{
    SYNCRON_ASSERT(!finished_, "analysis event after finish()");
    crashSeen_ = true;
    crashTick_ = tick;
    stalePrims_ = seenPrims_;
    for (std::uint64_t prim : reminted) {
        if (prim < stalePrims_.size())
            stalePrims_[static_cast<std::size_t>(prim)] = false;
    }
}

void
AnalysisEngine::lintStaleGeneration(const OpEvent &ev, Tick tick)
{
    if (!crashSeen_ || !test(stalePrims_, ev.prim)
        || test(staleReported_, ev.prim)) {
        return;
    }
    mark(staleReported_, ev.prim);
    Finding f;
    f.kind = FindingKind::StaleGenerationUse;
    std::ostringstream os;
    os << "core " << ev.core << " used " << primName(ev.prim)
       << ", minted before the crash at tick " << crashTick_
       << " and never re-minted by recovery (stale generation)";
    f.message = os.str();
    f.core = ev.core;
    f.prim = ev.prim;
    f.tick = tick;
    report_.findings.push_back(f);
}

// --------------------------------------------------------------------
// Event intake
// --------------------------------------------------------------------

void
AnalysisEngine::onIssue(const OpEvent &ev)
{
    SYNCRON_ASSERT(!finished_, "analysis event after finish()");
    sawIssues_ = true;
    ++slot(outstanding_, ev.core);
    lintStaleGeneration(ev, ev.issued);
    mark(seenPrims_, ev.prim);

    switch (ev.kind) {
      case sync::OpKind::LockAcquire:
        // Issue-time edges let the analyzer see the in-flight half of
        // an actual deadlock (acquires that never complete). They are
        // a superset of nothing: a completed acquire adds the same
        // edges again and the per-edge map keeps the first witness.
        addOrderEdges(ev.core, ev.prim, ev.issued);
        bump(slot(inflightAcquires_, ev.core), ev.prim);
        break;
      case sync::OpKind::LockRelease:
        // The SE commits a release when it is issued; pipelined record
        // completion can drift past later grants, so the held set is
        // maintained here (see commitRelease).
        commitRelease(ev.core, ev.prim, ev.issued);
        break;
      case sync::OpKind::BarrierWaitWithinUnit:
      case sync::OpKind::BarrierWaitAcrossUnits:
        // Checked at issue so an over-subscribed barrier (whose waits
        // never complete) is still diagnosed.
        lintBarrier(ev);
        break;
      default:
        break;
    }
}

void
AnalysisEngine::onComplete(const OpEvent &ev)
{
    SYNCRON_ASSERT(!finished_, "analysis event after finish()");
    if (sawIssues_)
        --slot(outstanding_, ev.core);
    lintStaleGeneration(ev, ev.completed);
    mark(seenPrims_, ev.prim);

    switch (ev.kind) {
      case sync::OpKind::LockAcquire: {
        consume(slot(inflightAcquires_, ev.core), ev.prim);
        lintAcquire(ev);
        addOrderEdges(ev.core, ev.prim, ev.completed);
        heldOf(ev.core).push_back(HeldLock{ev.prim, ev.completed});
        // A coalesced acquire+release pair: the release was issued
        // while this acquire was still in flight and parked; commit it
        // now that the grant has landed.
        if (consume(slot(preIssuedReleases_, ev.core), ev.prim))
            commitRelease(ev.core, ev.prim, ev.completed);
        break;
      }

      case sync::OpKind::LockRelease:
        if (sawIssues_)
            break; // committed at its issue event
        lintRelease(ev);
        removeHeld(ev.core, ev.prim);
        break;

      case sync::OpKind::BarrierWaitWithinUnit:
      case sync::OpKind::BarrierWaitAcrossUnits:
        lintBarrier(ev);
        break;

      case sync::OpKind::SemWait: {
        SemState &s = slot(sems_, ev.prim);
        if (!s.initKnown) {
            s.initKnown = true;
            s.initial = ev.resources;
        }
        s.grants.push_back(SemState::Grant{ev.completed, ev.core});
        break;
      }

      case sync::OpKind::SemPost:
        // Accounted at the ISSUE tick: req_async posts commit at issue
        // but may be recorded later (an awaited batch future), and a
        // grant they enabled can be recorded in between. The finish()
        // balance replay merges posts and grants by tick, so record
        // order never skews the accounting.
        slot(sems_, ev.prim).postTicks.push_back(ev.issued);
        break;

      case sync::OpKind::CondWait: {
        // cond_wait = release of the associated lock at issue +
        // reacquisition at completion. The waiting core is blocked in
        // between (blocking form only, in-order core), so processing
        // both halves here keeps its held set exact.
        if (!removeHeld(ev.core, ev.assoc)) {
            Finding f;
            f.kind = FindingKind::ReleaseWithoutAcquire;
            f.message = "cond_wait on " + primName(ev.prim)
                        + " releases associated lock "
                        + primName(ev.assoc)
                        + " the core does not hold";
            f.core = ev.core;
            f.prim = ev.assoc;
            f.tick = ev.issued;
            report_.findings.push_back(std::move(f));
        }
        addOrderEdges(ev.core, ev.assoc, ev.completed);
        heldOf(ev.core).push_back(HeldLock{ev.assoc, ev.completed});
        takeOwnership(slot(locks_, ev.assoc), ev.core, ev.completed);
        break;
      }

      case sync::OpKind::CondSignal:
      case sync::OpKind::CondBroadcast:
        break;
    }
}

// --------------------------------------------------------------------
// Misuse linter
// --------------------------------------------------------------------

void
AnalysisEngine::takeOwnership(LockState &s, std::uint32_t core,
                              Tick tick)
{
    if (s.owned && s.owner != core)
        ++s.pendingReleases[s.owner];
    s.owned = true;
    s.owner = core;
    s.ownedSince = tick;
}

void
AnalysisEngine::lintAcquire(const OpEvent &ev)
{
    // No owned-at-acquire check: with cond_wait recorded at completion,
    // a signaler's acquire of the associated lock legitimately appears
    // in the stream while the waiter's (already SE-released) ownership
    // record is still pending. Releases carry the checkable invariant;
    // a displaced owner goes on the pending-release list so its delayed
    // record is matched, not flagged.
    takeOwnership(slot(locks_, ev.prim), ev.core, ev.completed);
}

void
AnalysisEngine::commitRelease(std::uint32_t core, std::uint64_t prim,
                              Tick tick)
{
    // Issued while its own acquire is still in flight (the coalesced
    // acquire+release batching the SE supports): park it; the acquire's
    // completion consumes it. Only when the core does not already hold
    // the lock — then the release belongs to the held instance.
    bool held = false;
    for (const HeldLock &h : heldOf(core))
        held = held || h.prim == prim;
    if (!held && contains(slot(inflightAcquires_, core), prim)) {
        bump(slot(preIssuedReleases_, core), prim);
        return;
    }

    OpEvent ev;
    ev.kind = sync::OpKind::LockRelease;
    ev.core = core;
    ev.prim = prim;
    ev.issued = tick;
    ev.completed = tick;
    lintRelease(ev);
    removeHeld(core, prim);
}

void
AnalysisEngine::lintRelease(const OpEvent &ev)
{
    LockState &s = slot(locks_, ev.prim);
    if (s.owned && s.owner == ev.core) {
        s.owned = false;
        s.everReleased = true;
        s.lastReleaser = ev.core;
        s.lastReleaseTick = ev.completed;
        return;
    }
    if (auto it = s.pendingReleases.find(ev.core);
        it != s.pendingReleases.end()) {
        // Delayed record of a release the SE already processed (the
        // next owner's acquire was recorded first) — legitimate.
        if (--it->second == 0)
            s.pendingReleases.erase(it);
        return;
    }

    Finding f;
    f.core = ev.core;
    f.prim = ev.prim;
    f.tick = ev.issued;
    if (!s.owned && s.everReleased && s.lastReleaser == ev.core) {
        f.kind = FindingKind::DoubleRelease;
        f.message = "lock " + primName(ev.prim)
                    + " released twice by core "
                    + std::to_string(ev.core) + " without reacquiring";
        f.witness.push_back(WitnessStep{s.lastReleaser, ev.prim,
                                        s.lastReleaseTick,
                                        "previous release"});
    } else if (s.owned) {
        f.kind = FindingKind::ReleaseWithoutAcquire;
        f.message = "lock " + primName(ev.prim) + " released by core "
                    + std::to_string(ev.core)
                    + " while owned by core " + std::to_string(s.owner);
        f.witness.push_back(WitnessStep{s.owner, ev.prim, s.ownedSince,
                                        "owner's acquire"});
    } else {
        f.kind = FindingKind::ReleaseWithoutAcquire;
        f.message = "lock " + primName(ev.prim) + " released by core "
                    + std::to_string(ev.core)
                    + " which never acquired it";
    }
    f.witness.push_back(
        WitnessStep{ev.core, ev.prim, ev.issued, "offending release"});
    report_.findings.push_back(std::move(f));
}

void
AnalysisEngine::lintBarrier(const OpEvent &ev)
{
    BarrierState &b = slot(barriers_, ev.prim);
    if (b.reported)
        return;

    const bool withinUnit =
        ev.kind == sync::OpKind::BarrierWaitWithinUnit;
    const std::uint32_t capacity = withinUnit
                                       ? shape_.clientCoresPerUnit
                                       : shape_.totalClientCores();

    std::string why;
    if (ev.participants == 0) {
        why = "zero participants";
    } else if (capacity != 0 && ev.participants > capacity) {
        why = std::to_string(ev.participants) + " participants exceed "
              + (withinUnit ? "the unit's " : "the machine's ")
              + std::to_string(capacity) + " client cores";
    } else if (b.seen && b.participants != ev.participants) {
        why = "arity changed across waits ("
              + std::to_string(b.participants) + " vs "
              + std::to_string(ev.participants) + ")";
    }
    if (!b.seen) {
        b.seen = true;
        b.participants = ev.participants;
    }
    if (why.empty())
        return;

    b.reported = true;
    Finding f;
    f.kind = FindingKind::BarrierArityMismatch;
    f.message = "barrier " + primName(ev.prim) + ": " + why;
    f.core = ev.core;
    f.prim = ev.prim;
    f.tick = ev.issued;
    f.witness.push_back(
        WitnessStep{ev.core, ev.prim, ev.issued, "offending wait"});
    report_.findings.push_back(std::move(f));
}

void
AnalysisEngine::checkSemaphores(AnalysisReport &report)
{
    for (std::uint64_t prim = 0; prim < sems_.size(); ++prim) {
        SemState &s = sems_[prim];
        if (s.grants.empty())
            continue;
        std::sort(s.postTicks.begin(), s.postTicks.end());
        std::stable_sort(s.grants.begin(), s.grants.end(),
                         [](const SemState::Grant &a,
                            const SemState::Grant &b) {
                             return a.tick < b.tick;
                         });
        std::int64_t balance = s.initial;
        std::size_t post = 0;
        std::uint64_t waits = 0;
        for (const SemState::Grant &g : s.grants) {
            // Posts at the grant's own tick count as available: an
            // ideal backend can post and grant in the same tick.
            while (post < s.postTicks.size()
                   && s.postTicks[post] <= g.tick) {
                ++post;
                ++balance;
            }
            ++waits;
            --balance;
            if (balance < 0) {
                Finding f;
                f.kind = FindingKind::SemaphoreUnderflow;
                f.message = "semaphore " + primName(prim) + ": wait #"
                            + std::to_string(waits)
                            + " granted with no resources available "
                              "(initial " + std::to_string(s.initial)
                            + ", posts so far " + std::to_string(post)
                            + ")";
                f.core = g.core;
                f.prim = prim;
                f.tick = g.tick;
                f.witness.push_back(WitnessStep{
                    g.core, prim, g.tick, "over-granted wait"});
                report.findings.push_back(std::move(f));
                break;
            }
        }
    }
}

// --------------------------------------------------------------------
// Lock-order analyzer
// --------------------------------------------------------------------

void
AnalysisEngine::addOrderEdges(std::uint32_t core, std::uint64_t to,
                              Tick toTick)
{
    for (const HeldLock &h : heldOf(core)) {
        if (h.prim == to)
            continue;
        slot(order_, h.prim).emplace(to,
                                     EdgeWitness{core, h.since, toTick});
    }
}

namespace {

/** DFS state for cycle extraction over the held-before graph. */
struct CycleFinder
{
    using Graph =
        std::vector<std::map<std::uint64_t, AnalysisEngine::EdgeWitness>>;

    explicit CycleFinder(const Graph &graph) : graph(graph) {}

    const Graph &graph;
    std::map<std::uint64_t, int> color; ///< 0 white, 1 gray, 2 black
    std::vector<std::uint64_t> path;
    std::set<std::vector<std::uint64_t>> cycles; ///< canonicalized

    void
    visit(std::uint64_t node)
    {
        color[node] = 1;
        path.push_back(node);
        if (node < graph.size()) {
            for (const auto &[next, witness] : graph[node]) {
                const int c = color[next];
                if (c == 0) {
                    visit(next);
                } else if (c == 1) {
                    // Back edge: the cycle is path[pos(next)..] + next.
                    auto pos = std::find(path.begin(), path.end(), next);
                    std::vector<std::uint64_t> cycle(pos, path.end());
                    // Canonical rotation (smallest node first) so the
                    // same cycle found from different roots dedupes.
                    auto minIt =
                        std::min_element(cycle.begin(), cycle.end());
                    std::rotate(cycle.begin(), minIt, cycle.end());
                    cycles.insert(std::move(cycle));
                }
            }
        }
        path.pop_back();
        color[node] = 2;
    }
};

} // namespace

void
AnalysisEngine::reportCycles(AnalysisReport &report)
{
    CycleFinder finder(order_);
    for (std::uint64_t node = 0; node < order_.size(); ++node) {
        if (!order_[node].empty() && finder.color[node] == 0)
            finder.visit(node);
    }

    for (const std::vector<std::uint64_t> &cycle : finder.cycles) {
        Finding f;
        f.kind = FindingKind::LockOrderCycle;
        std::string chain;
        for (std::uint64_t node : cycle)
            chain += primName(node) + " -> ";
        chain += primName(cycle.front());
        f.message = "lock-order cycle: " + chain;
        f.prim = cycle.front();
        for (std::size_t i = 0; i < cycle.size(); ++i) {
            const std::uint64_t from = cycle[i];
            const std::uint64_t to = cycle[(i + 1) % cycle.size()];
            const EdgeWitness &w = order_[from].at(to);
            if (i == 0) {
                f.core = w.core;
                f.tick = w.toTick;
            }
            std::ostringstream note;
            note << "core " << w.core << " acquired " << primName(to)
                 << " while holding " << primName(from)
                 << " (held since tick " << w.fromTick << ")";
            f.witness.push_back(
                WitnessStep{w.core, to, w.toTick, note.str()});
        }
        report.findings.push_back(std::move(f));
    }
}

// --------------------------------------------------------------------
// Lockset race checker
// --------------------------------------------------------------------

void
AnalysisEngine::onAccess(std::uint32_t core, Addr addr, bool isWrite,
                         Tick tick)
{
    SYNCRON_ASSERT(!finished_, "analysis access after finish()");
    ShadowWord &w = shadow_[addr];
    const std::vector<HeldLock> &held = heldOf(core);

    switch (w.state) {
      case AccessState::Virgin:
        w.state = AccessState::Exclusive;
        w.firstCore = core;
        break;

      case AccessState::Exclusive:
        if (core == w.firstCore)
            break; // single-owner initialization: no refinement yet
        // Second core: the candidate set starts as its current lockset.
        for (const HeldLock &h : held)
            w.candidates.insert(h.prim);
        w.state = isWrite ? AccessState::SharedModified
                          : AccessState::Shared;
        break;

      case AccessState::Shared:
      case AccessState::SharedModified: {
        // Refine: candidates ∩= locks held on this access.
        for (auto it = w.candidates.begin(); it != w.candidates.end();) {
            const std::uint64_t cand = *it;
            const bool holds =
                std::any_of(held.begin(), held.end(),
                            [cand](const HeldLock &h) {
                                return h.prim == cand;
                            });
            it = holds ? std::next(it) : w.candidates.erase(it);
        }
        if (isWrite)
            w.state = AccessState::SharedModified;
        break;
      }
    }

    if (w.state == AccessState::SharedModified && w.candidates.empty()
        && !w.reported) {
        w.reported = true;
        Finding f;
        f.kind = FindingKind::EmptyLocksetRace;
        std::ostringstream msg;
        msg << "shadow state @" << addr << ": "
            << (isWrite ? "write" : "read") << " by core " << core
            << " with empty candidate lockset (racing with core "
            << (w.everWritten ? w.lastWriterCore : w.firstCore) << ")";
        f.message = msg.str();
        f.core = core;
        f.prim = addr;
        f.tick = tick;
        if (w.everWritten) {
            f.witness.push_back(WitnessStep{w.lastWriterCore, addr,
                                            w.lastWriteTick,
                                            "previous write"});
        } else {
            f.witness.push_back(WitnessStep{
                w.firstCore, addr, 0, "earlier exclusive access"});
        }
        f.witness.push_back(
            WitnessStep{core, addr, tick,
                        isWrite ? "racing write" : "racing read"});
        report_.findings.push_back(std::move(f));
    }

    if (isWrite) {
        w.everWritten = true;
        w.lastWriterCore = core;
        w.lastWriteTick = tick;
    }
}

// --------------------------------------------------------------------
// Finish
// --------------------------------------------------------------------

AnalysisReport
AnalysisEngine::finish()
{
    SYNCRON_ASSERT(!finished_, "AnalysisEngine::finish() called twice");
    finished_ = true;

    reportCycles(report_);
    checkSemaphores(report_);

    for (std::uint64_t prim = 0; prim < locks_.size(); ++prim) {
        const LockState &s = locks_[prim];
        if (!s.owned)
            continue;
        Finding f;
        f.kind = FindingKind::LockHeldAtTeardown;
        f.message = "lock " + primName(prim) + " still owned by core "
                    + std::to_string(s.owner)
                    + " when the run finished";
        f.core = s.owner;
        f.prim = prim;
        f.tick = s.ownedSince;
        report_.findings.push_back(std::move(f));
    }

    if (sawIssues_) {
        for (std::uint32_t core = 0; core < outstanding_.size(); ++core) {
            const std::int64_t count = outstanding_[core];
            if (count <= 0)
                continue;
            Finding f;
            f.kind = FindingKind::PendingOpLeak;
            f.message = std::to_string(count)
                        + " operation(s) issued by core "
                        + std::to_string(core)
                        + " never completed (leaked futures or "
                          "operations blocked at teardown)";
            f.core = core;
            report_.findings.push_back(std::move(f));
        }
    }

    return std::move(report_);
}

} // namespace syncron::analysis
