#include "baselines/central.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/units.hh"
#include "core/core.hh"
#include "sync/registry.hh"
#include "sync/message.hh"

namespace syncron::baselines {

CentralBackend::CentralBackend(Machine &machine, UnitId serverUnit)
    : machine_(machine),
      l1_(machine.config().l1, machine.stats()),
      serverUnit_(serverUnit)
{
    SYNCRON_ASSERT(serverUnit < machine.config().numUnits,
                   "server unit out of range");
}

bool
CentralBackend::idleVar(Addr var) const
{
    return pending_.count(var) == 0 && state_.idle(var);
}

void
CentralBackend::pendingInc(Addr var)
{
    ++pending_[var];
}

void
CentralBackend::pendingDec(Addr var)
{
    auto it = pending_.find(var);
    if (it != pending_.end() && --it->second == 0)
        pending_.erase(it);
}

void
CentralBackend::request(core::Core &requester,
                        const sync::SyncRequest &req, sim::Gate *gate)
{
    const bool acquire = req.acquireType();
    if (!acquire) {
        // req_async: commit once the message has been issued.
        gate->open(0, requester.cyclePeriod());
    }

    const UnitId from = requester.unit();
    if (from == serverUnit_)
        ++machine_.stats().syncLocalMsgs;
    else
        ++machine_.stats().syncGlobalMsgs;

    const CoreId core = requester.id();
    sim::Gate *acquireGate = acquire ? gate : nullptr;
    pendingInc(req.var());
    machine_.postMessage(machine_.eq().now(), from, serverUnit_,
                         sync::kSyncReqBits,
                         [this, req, core, acquireGate] {
                             enqueue(req, core, acquireGate);
                         });
}

void
CentralBackend::requestBatch(core::Core &requester,
                             std::span<const sync::SyncRequest> reqs,
                             std::span<sim::Gate *const> gates)
{
    SYNCRON_ASSERT(reqs.size() == gates.size(),
                   "batch of " << reqs.size() << " requests with "
                               << gates.size() << " gates");
    // Coalescing eligibility: at least two operations (a 1-op batch is
    // a plain Fig. 5 message).
    if (reqs.size() < 2) {
        for (std::size_t i = 0; i < reqs.size(); ++i)
            request(requester, reqs[i], gates[i]);
        return;
    }

    struct Member
    {
        sync::SyncRequest req;
        sim::Gate *gate; ///< nullptr for release-type members
    };
    std::vector<Member> members;
    members.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const sync::SyncRequest &req = reqs[i];
        const bool acquire = req.acquireType();
        if (!acquire)
            gates[i]->open(0, requester.cyclePeriod());
        pendingInc(req.var());
        members.push_back(Member{req, acquire ? gates[i] : nullptr});
    }

    const UnitId from = requester.unit();
    const auto n = static_cast<std::uint32_t>(reqs.size());
    SystemStats &st = machine_.stats();
    if (from == serverUnit_)
        ++st.syncLocalMsgs;
    else
        ++st.syncGlobalMsgs;
    st.batchedOps += n;
    st.messagesSaved += n - 1;

    const CoreId core = requester.id();
    machine_.postMessage(machine_.eq().now(), from, serverUnit_,
                         sync::batchReqBits(reqs),
                         [this, core, members = std::move(members)] {
                             for (const Member &m : members)
                                 enqueue(m.req, core, m.gate);
                         });
}

void
CentralBackend::enqueue(const sync::SyncRequest &req, CoreId core,
                        sim::Gate *gate)
{
    queue_.push_back(
        Job{req, core, gate, machine_.eq().now()});
    if (!serving_)
        serveNext();
}

void
CentralBackend::serveNext()
{
    if (queue_.empty()) {
        serving_ = false;
        return;
    }
    serving_ = true;
    const Job &job = queue_.front();
    const SystemConfig &cfg = machine_.config();
    const Tick start = std::max(job.arrival, busyUntil_);
    const Tick ready = start
                       + static_cast<Tick>(cfg.serverSwOverheadCycles)
                             * kCoreClock.period();

    // Software read-modify-write of the variable's line through the
    // server's private L1; a miss fetches the line from the owning
    // unit's DRAM — an asynchronous round trip across the serial links
    // when the variable is remote.
    const Addr var = job.req.var();
    const Tick hit = static_cast<Tick>(l1_.params().hitCycles)
                     * kCoreClock.period();
    cache::CacheAccessResult res = l1_.access(var, false);
    const Tick t = ready + hit;
    if (!res.hit) {
        if (res.writeback) {
            machine_.memoryAccessDetached(t, serverUnit_, res.victimAddr,
                                          true, kCacheLineBytes);
        }
        machine_.memoryAccessAsync(t, serverUnit_, lineAlign(var), false,
                                   kCacheLineBytes,
                                   [this] { onFillDone(); });
        return;
    }
    l1_.access(var, true); // the modifying write hits
    finishJob(t + hit);
}

void
CentralBackend::onFillDone()
{
    SYNCRON_ASSERT(serving_ && !queue_.empty(),
                   "fill completion with no job in service");
    const Addr var = queue_.front().req.var();
    const Tick hit = static_cast<Tick>(l1_.params().hitCycles)
                     * kCoreClock.period();
    l1_.access(var, true); // the modifying write hits the filled line
    finishJob(machine_.eq().now() + hit);
}

void
CentralBackend::finishJob(Tick done)
{
    busyUntil_ = done;
    machine_.eq().schedule(done, [this] { completeFront(); });
}

void
CentralBackend::completeFront()
{
    Job job = queue_.front();
    queue_.pop_front();
    const Tick when = machine_.eq().now();
    auto grants = state_.apply(job.req, job.core, job.gate);
    pendingDec(job.req.var());
    for (const sync::SyncGrant &g : grants) {
        const UnitId unit = g.core / machine_.config().coresPerUnit;
        SystemStats &st = machine_.stats();
        if (unit == serverUnit_)
            ++st.syncLocalMsgs;
        else
            ++st.syncGlobalMsgs;
        SYNCRON_ASSERT(g.gate != nullptr, "grant without gate");
        // The grant opens the requester's gate at the response's arrival
        // tick.
        sim::Gate *gate = g.gate;
        machine_.postMessage(when, serverUnit_, unit, sync::kSyncRespBits,
                             [gate] { gate->open(0, 0); });
    }
    serveNext();
}

SYNCRON_REGISTER_BACKEND("Central", [](Machine &m) {
    return std::make_unique<CentralBackend>(m);
});

} // namespace syncron::baselines
