#include "syncron/engine.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/log.hh"
#include "common/units.hh"
#include "durability/persist.hh"
#include "sync/registry.hh"

namespace syncron::engine {

using sync::Op;
using sync::OpKind;
using sync::SyncMessage;
using sync::SyncRequest;

namespace {

/** Maps an API operation to its local-message opcode (Table 3). */
Op
localOpcodeFor(OpKind kind)
{
    switch (kind) {
      case OpKind::LockAcquire: return Op::LockAcquireLocal;
      case OpKind::LockRelease: return Op::LockReleaseLocal;
      case OpKind::BarrierWaitWithinUnit:
        return Op::BarrierWaitLocalWithinUnit;
      case OpKind::BarrierWaitAcrossUnits:
        return Op::BarrierWaitLocalAcrossUnits;
      case OpKind::SemWait: return Op::SemWaitLocal;
      case OpKind::SemPost: return Op::SemPostLocal;
      case OpKind::CondWait: return Op::CondWaitLocal;
      case OpKind::CondSignal: return Op::CondSignalLocal;
      case OpKind::CondBroadcast: return Op::CondBroadLocal;
    }
    SYNCRON_PANIC("unknown OpKind");
}

} // namespace

SynCronBackend::Station::Station(UnitId u, std::uint32_t entries,
                                 std::uint32_t counterCount,
                                 SystemStats &stats)
    : unit(u), table(entries, stats), counters(counterCount)
{}

SynCronBackend::SynCronBackend(Machine &machine, EngineOptions opts)
    : machine_(machine), opts_(opts)
{
    const SystemConfig &cfg = machine.config();
    const std::uint32_t entries =
        opts_.stEntries != 0 ? opts_.stEntries
        : opts_.station == StationKind::ServerCore
            ? (1u << 20) // Hier: state lives in memory, no ST limit
            : cfg.stEntries;

    name_ = opts_.name != nullptr ? opts_.name
            : opts_.station == StationKind::ServerCore ? "Hier"
                                                       : "SynCron";

    for (unsigned u = 0; u < cfg.numUnits; ++u) {
        stations_.push_back(std::make_unique<Station>(
            u, entries, cfg.indexingCounters, machine.stats()));
        if (opts_.station == StationKind::ServerCore) {
            Station &s = *stations_.back();
            s.l1 = std::make_unique<cache::Cache>(cfg.l1,
                                                  machine.stats());
            // Shadow tracking records come from a per-station region
            // reserved here rather than the shared allocator, so their
            // addresses (which pick DRAM banks and rows) do not depend
            // on what else the run allocated first.
            constexpr Addr kShadowRegionBytes = 1u << 20;
            s.shadowNext = machine.addrSpace().allocIn(
                u, kShadowRegionBytes, kCacheLineBytes);
            s.shadowEnd = s.shadowNext + kShadowRegionBytes;
        }
    }
    gates_.resize(cfg.totalCores());

    if (misarActive()) {
        const unsigned servers =
            opts_.overflow == OverflowPolicy::MisarCentral ? 1
                                                           : cfg.numUnits;
        for (unsigned u = 0; u < servers; ++u) {
            SoftServer server;
            server.unit = u;
            server.l1 =
                std::make_unique<cache::Cache>(cfg.l1, machine.stats());
            softServers_.push_back(std::move(server));
        }
    }
}

SynCronBackend::~SynCronBackend() = default;

bool
SynCronBackend::isMaster(const Station &s, Addr var) const
{
    return masterOf(var) == s.unit;
}

CoreId
SynCronBackend::globalCoreId(UnitId unit, unsigned local) const
{
    return unit * machine_.config().coresPerUnit + local;
}

void
SynCronBackend::finalizeStats()
{
    // The tick of the run's last event closes the occupancy integrals.
    const Tick now = machine_.eq().now();
    for (auto &s : stations_)
        s->table.finalize(now);
}

std::uint64_t
SynCronBackend::overflowedRequests() const
{
    std::uint64_t n = 0;
    for (const auto &s : stations_)
        n += s->overflowedReqs;
    return n;
}

std::uint64_t
SynCronBackend::totalRequests() const
{
    std::uint64_t n = 0;
    for (const auto &s : stations_)
        n += s->totalReqs;
    return n;
}

void
SynCronBackend::setPersistHook(durability::PersistHook *hook)
{
    persistHook_ = hook;
    for (auto &s : stations_) {
        s->table.setPersistHook(hook, s->unit);
        s->counters.setPersistHook(hook, s->unit);
    }
}

std::uint32_t
SynCronBackend::stOccupied(UnitId unit) const
{
    return stations_.at(unit)->table.occupied();
}

std::uint32_t
SynCronBackend::counterValue(UnitId unit, Addr var) const
{
    return stations_.at(unit)->counters.value(var);
}

bool
SynCronBackend::idleVar(Addr var) const
{
    if (misarVars_.count(var) != 0 || misarPending_.count(var) != 0
        || !misarState_.idle(var)) {
        return false;
    }
    for (const auto &s : stations_) {
        if (s->table.entries().count(var) != 0 || s->hasRedirected(var)
            || s->inFlightLocal.count(var) != 0
            || s->memVars.count(var) != 0) {
            return false;
        }
    }
    return true;
}

void
SynCronBackend::releaseVar(Addr var)
{
    // Hardware state frees itself when a variable goes idle (ST entries
    // are released, in-memory records cleaned up); nothing to drop, but
    // a destroy of a still-tracked variable is a program error.
    SYNCRON_ASSERT(idleVar(var), "releaseVar @" << var
                                     << " with live engine state");
}

// --------------------------------------------------------------------
// Request issue and transport
// --------------------------------------------------------------------

Addr
SynCronBackend::gateKeyFor(const SyncRequest &req)
{
    return req.kind() == OpKind::CondWait ? req.condLock() : req.var();
}

void
SynCronBackend::addPendingGate(CoreId core, Addr key, sim::Gate *gate)
{
    gates_[core].push_back(PendingGate{key, gate});
}

sim::Gate *
SynCronBackend::takePendingGate(CoreId core, Addr key)
{
    auto &pending = gates_[core];
    for (auto it = pending.begin(); it != pending.end(); ++it) {
        if (it->key == key) {
            sim::Gate *gate = it->gate;
            pending.erase(it);
            return gate;
        }
    }
    SYNCRON_PANIC("core " << core << " has no pending sync op on @"
                          << key);
}

void
SynCronBackend::request(core::Core &requester, const SyncRequest &req,
                        sim::Gate *gate)
{
    ++stations_[requester.unit()]->totalReqs;
    if (req.acquireType()) {
        addPendingGate(requester.id(), gateKeyFor(req), gate);
    } else {
        // req_async: commits once the message is issued to the network.
        gate->open(0, requester.cyclePeriod());
    }

    // MiSAR ablation: variables in software mode bypass the SEs.
    if (misarActive() && misarVars_.count(req.var()) != 0) {
        misarRequest(requester, req, gate);
        return;
    }

    // The sole spot where a typed request becomes a Fig. 5 hardware
    // message; MessageInfo is the request payload's wire encoding.
    SyncMessage msg;
    msg.addr = req.var();
    msg.opcode = localOpcodeFor(req.kind());
    msg.coreId = requester.localId();
    msg.info = req.messageInfo();
    msg.walSeq = req.walSeq();

    const UnitId unit = requester.unit();
    const Tick arrival = machine_.routeMessage(
        machine_.eq().now(), unit, unit, sync::kSyncReqBits);
    ++machine_.stats().syncLocalMsgs;
    ++stations_[unit]->inFlightLocal[req.var()];
    machine_.eq().schedule(arrival,
                           [this, unit, msg] { receive(unit, msg); });
}

void
SynCronBackend::requestBatch(core::Core &requester,
                             std::span<const SyncRequest> reqs,
                             std::span<sim::Gate *const> gates)
{
    SYNCRON_ASSERT(reqs.size() == gates.size(),
                   "batch of " << reqs.size() << " requests with "
                               << gates.size() << " gates");
    // Coalescing eligibility: at least two operations, and never under
    // the MiSAR ablation — software-mode variables bypass the SEs with
    // per-op abort bookkeeping that a shared message cannot carry.
    if (reqs.size() < 2 || misarActive()) {
        for (std::size_t i = 0; i < reqs.size(); ++i)
            request(requester, reqs[i], gates[i]);
        return;
    }

    // Every member's first hop is the requesting core's local SE, so
    // the whole batch coalesces into a single core -> SE message with
    // one shared header and per-op records (the SPU still services each
    // record — and the protocol still forwards/grants each operation —
    // individually, in batch order).
    const UnitId unit = requester.unit();
    Station &local = *stations_[unit];
    std::vector<SyncMessage> msgs;
    msgs.reserve(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const SyncRequest &req = reqs[i];
        ++local.totalReqs;
        if (req.acquireType()) {
            addPendingGate(requester.id(), gateKeyFor(req), gates[i]);
        } else {
            gates[i]->open(0, requester.cyclePeriod());
        }
        SyncMessage msg;
        msg.addr = req.var();
        msg.opcode = localOpcodeFor(req.kind());
        msg.coreId = requester.localId();
        msg.info = req.messageInfo();
        msg.walSeq = req.walSeq();
        msgs.push_back(msg);
        ++local.inFlightLocal[req.var()];
    }

    const auto n = static_cast<std::uint32_t>(reqs.size());
    const Tick arrival = machine_.routeMessage(
        machine_.eq().now(), unit, unit, sync::batchReqBits(reqs));
    SystemStats &st = machine_.stats();
    ++st.syncLocalMsgs;
    st.batchedOps += n;
    st.messagesSaved += n - 1;
    machine_.eq().schedule(arrival, [this, unit,
                                     msgs = std::move(msgs)] {
        for (const SyncMessage &m : msgs)
            receive(unit, m);
    });
}

void
SynCronBackend::sendToStation(UnitId from, UnitId to, SyncMessage msg,
                              Tick depart)
{
    SYNCRON_ASSERT(from != to, "station self-send of " << opName(msg.opcode));
    if (sync::isOverflowOp(msg.opcode)
        || msg.opcode == Op::DecreaseIndexingCounter) {
        ++machine_.stats().syncOverflowMsgs;
    } else {
        ++machine_.stats().syncGlobalMsgs;
    }
    // The engine's only cross-unit transport: a post delivered to @p to
    // in the queue's cross-unit order.
    machine_.postMessage(depart, from, to, sync::kSyncReqBits,
                         [this, to, msg] { receive(to, msg); });
}

void
SynCronBackend::grantCore(UnitId seUnit, CoreId core, Addr var,
                          Tick depart)
{
    SYNCRON_ASSERT(core / machine_.config().coresPerUnit == seUnit,
                   "grant must come from the core's own unit");
    const Tick arrival = machine_.routeMessage(depart, seUnit, seUnit,
                                               sync::kSyncRespBits);
    ++machine_.stats().syncLocalMsgs;
    sim::Gate *gate = takePendingGate(core, var);
    gate->open(0, arrival - machine_.eq().now());
}

// --------------------------------------------------------------------
// SPU scheduling
// --------------------------------------------------------------------

Tick
SynCronBackend::baseServiceTicks(Station &, Addr)
{
    const SystemConfig &cfg = machine_.config();
    if (opts_.station == StationKind::SyncronSe) {
        // Table 5: every message is served in 12 SPU cycles @1 GHz
        // (the time of the slowest message, barrier_depart_global).
        return static_cast<Tick>(cfg.seServiceCycles) * cfg.seCyclePeriod;
    }
    // Software server: decode/dispatch/bookkeeping instructions on an
    // in-order core; the state access is added separately (it can miss).
    return static_cast<Tick>(cfg.serverSwOverheadCycles)
           * kCoreClock.period();
}

Tick
SynCronBackend::serverStateAccess(Station &s, Addr var, Tick start)
{
    // The server keeps tracking state for the variable in its own unit's
    // memory and accesses it through its L1 (read-modify-write). The
    // Master-unit server uses the variable's own address; other units use
    // a local shadow record.
    Addr track = var;
    if (!isMaster(s, var)) {
        auto it = s.shadow.find(var);
        if (it == s.shadow.end()) {
            // Carve from the station's private region (see the
            // reservation in the constructor).
            SYNCRON_ASSERT(s.shadowNext < s.shadowEnd,
                           "server shadow region exhausted at unit "
                               << s.unit);
            track = s.shadowNext;
            s.shadowNext += kCacheLineBytes;
            s.shadow.emplace(var, track);
        } else {
            track = it->second;
        }
    }

    const Tick hit = static_cast<Tick>(s.l1->params().hitCycles)
                     * kCoreClock.period();
    cache::CacheAccessResult res = s.l1->access(track, false);
    Tick t = start + hit;
    if (!res.hit) {
        t = machine_.memoryAccess(t, s.unit, lineAlign(track), false,
                                  kCacheLineBytes);
        if (res.writeback) {
            machine_.memoryAccess(start + hit, s.unit, res.victimAddr,
                                  true, kCacheLineBytes);
        }
    }
    // The modifying write hits the just-filled line.
    s.l1->access(track, true);
    return t + hit;
}

void
SynCronBackend::receive(UnitId unit, SyncMessage msg)
{
    Station &s = *stations_[unit];
    const Tick now = machine_.eq().now();
    const Tick start = std::max(now, s.busyUntil);
    // Reserve the SPU; handle() extends the reservation if the message
    // needs memory accesses (overflow path / server state access).
    s.busyUntil = start + baseServiceTicks(s, msg.addr);
    machine_.eq().schedule(start, [this, unit, msg] {
        handle(*stations_[unit], msg);
    });
}

void
SynCronBackend::handle(Station &s, SyncMessage msg)
{
    const Tick now = machine_.eq().now();
    Tick done = now + baseServiceTicks(s, msg.addr);

    // Local-opcode messages come only from cores via request(); once the
    // station consumes one, the variable's state is resident somewhere
    // (ST entry, in-memory record, or the misar pending counter).
    if (!sync::isGlobalOp(msg.opcode)) {
        auto it = s.inFlightLocal.find(msg.addr);
        SYNCRON_ASSERT(it != s.inFlightLocal.end() && it->second > 0,
                       "local message with no in-flight accounting");
        if (--it->second == 0)
            s.inFlightLocal.erase(it);
    }

    // MiSAR ablation: local operations on a variable in software mode
    // divert before touching any hardware state (condition variables
    // are pinned to the integrated path; see redirectOverflow).
    if (misarActive() && misarVars_.count(msg.addr) != 0) {
        switch (msg.opcode) {
          case Op::LockAcquireLocal:
          case Op::LockReleaseLocal:
          case Op::BarrierWaitLocalWithinUnit:
          case Op::BarrierWaitLocalAcrossUnits:
          case Op::SemWaitLocal:
          case Op::SemPostLocal:
            s.busyUntil = std::max(s.busyUntil, done);
            misarDivertLocal(s, msg, done);
            return;
          default:
            break;
        }
    }
    if (opts_.station == StationKind::ServerCore)
        done = serverStateAccess(s, msg.addr, done);
    s.busyUntil = std::max(s.busyUntil, done);

    if (persistHook_ != nullptr) {
        // Durability: the station's state transition for this message
        // reaches the PM domain before the operation may proceed.
        done = persistHook_->persistStation(s.unit, msg.addr, msg.walSeq,
                                            done);
        s.busyUntil = std::max(s.busyUntil, done);
    }

    switch (msg.opcode) {
      case Op::LockAcquireLocal: onLockAcquireLocal(s, msg, done); break;
      case Op::LockReleaseLocal: onLockReleaseLocal(s, msg, done); break;
      case Op::LockAcquireGlobal: onLockAcquireGlobal(s, msg, done); break;
      case Op::LockReleaseGlobal: onLockReleaseGlobal(s, msg, done); break;
      case Op::LockGrantGlobal: onLockGrantGlobal(s, msg, done); break;

      case Op::BarrierWaitLocalWithinUnit:
        onBarrierWaitLocal(s, msg, true, done);
        break;
      case Op::BarrierWaitLocalAcrossUnits:
        onBarrierWaitLocal(s, msg, false, done);
        break;
      case Op::BarrierWaitGlobal: onBarrierWaitGlobal(s, msg, done); break;
      case Op::BarrierDepartGlobal:
        onBarrierDepartGlobal(s, msg, done);
        break;

      case Op::SemWaitLocal: onSemWaitLocal(s, msg, done); break;
      case Op::SemPostLocal: onSemPostLocal(s, msg, done); break;
      case Op::SemWaitGlobal: onSemWaitGlobal(s, msg, done); break;
      case Op::SemPostGlobal: onSemPostGlobal(s, msg, done); break;
      case Op::SemGrantGlobal: onSemGrantGlobal(s, msg, done); break;

      case Op::CondWaitLocal: onCondWaitLocal(s, msg, done); break;
      case Op::CondSignalLocal:
        onCondSignalLocal(s, msg, false, done);
        break;
      case Op::CondBroadLocal:
        onCondSignalLocal(s, msg, true, done);
        break;
      case Op::CondWaitGlobal: onCondWaitGlobal(s, msg, done); break;
      case Op::CondSignalGlobal:
        onCondSignalGlobal(s, msg, false, done);
        break;
      case Op::CondBroadGlobal:
        // Used in both directions: SE -> Master (forwarded broadcast)
        // and Master -> SE (wake-all grant).
        if (isMaster(s, msg.addr))
            onCondSignalGlobal(s, msg, true, done);
        else
            onCondGrantGlobal(s, msg, true, done);
        break;
      case Op::CondGrantGlobal:
        onCondGrantGlobal(s, msg, false, done);
        break;

      case Op::LockAcquireOverflow:
      case Op::LockReleaseOverflow:
      case Op::BarrierWaitOverflow:
      case Op::SemWaitOverflow:
      case Op::SemPostOverflow:
      case Op::CondWaitOverflow:
      case Op::CondSignalOverflow:
      case Op::CondBroadOverflow:
        handleOverflowAtMaster(s, msg, done);
        break;

      case Op::LockGrantOverflow:
      case Op::SemGrantOverflow:
      case Op::CondGrantOverflow:
      case Op::BarrierDepartureOverflow:
        onOverflowGrant(s, msg, done);
        break;

      case Op::DecreaseIndexingCounter:
        onDecreaseIndexingCounter(s, msg);
        break;

      default:
        SYNCRON_PANIC("unhandled opcode " << opName(msg.opcode));
    }
}

// --------------------------------------------------------------------
// Fig. 8 control flow
// --------------------------------------------------------------------

SynCronBackend::Route
SynCronBackend::routeFor(Station &s, Addr var, bool acquireType,
                         bool global)
{
    ++machine_.stats().stRequests;
    if (s.table.find(var) != nullptr)
        return Route::Table;

    if (isMaster(s, var)) {
        // A live in-memory record forces the memory path even when the
        // indexing counter aliases away (split-brain protection).
        if (s.memVars.count(var) != 0
            || s.counters.servicedViaMemory(var) || s.table.full()) {
            ++s.overflowedReqs;
            ++machine_.stats().stOverflowEvents;
            return Route::Memory;
        }
    } else if (s.counters.servicedViaMemory(var) || s.table.full()
               || s.hasRedirected(var)) {
        ++s.overflowedReqs;
        ++machine_.stats().stOverflowEvents;
        SYNCRON_ASSERT(!global, "global message routed to non-master");
        // Non-master overflowed SE: redirect to the Master SE and track
        // the variable as serviced-via-memory (Section 4.3.2). Under the
        // MiSAR ablation the counters are managed by the abort/notify
        // protocol instead.
        if (!misarActive()) {
            if (acquireType)
                s.counters.increment(var);
            else
                s.counters.decrement(var);
        }
        return Route::Redirect;
    }

    StEntry *e = s.table.alloc(var, machine_.eq().now());
    SYNCRON_ASSERT(e != nullptr, "alloc failed with non-full table");
    return Route::Table;
}

StEntry *
SynCronBackend::entryOf(Station &s, Addr var)
{
    StEntry *e = s.table.find(var);
    SYNCRON_ASSERT(e != nullptr, "missing ST entry for @" << var);
    return e;
}

void
SynCronBackend::maybeFree(Station &s, StEntry &e, Tick now)
{
    if (e.idle())
        s.table.release(e.addr, now);
}

// --------------------------------------------------------------------
// Lock protocol (Section 3.2)
// --------------------------------------------------------------------

void
SynCronBackend::localGrantNext(Station &s, StEntry &e, Tick done)
{
    SYNCRON_ASSERT(e.localWaitBits != 0, "grant with no local waiters");
    const unsigned c = lowestSetBit(e.localWaitBits);
    e.localWaitBits = withoutBit(e.localWaitBits, c);
    e.ownerKind = LockOwner::LocalCore;
    e.ownerId = c;
    ++e.grantStreak;
    grantCore(s.unit, globalCoreId(s.unit, c), e.addr, done);
}

void
SynCronBackend::masterNextGrant(Station &s, StEntry &e, Tick done)
{
    const std::uint32_t threshold = machine_.config().localGrantThreshold;
    const bool transferDue = threshold > 0 && e.grantStreak >= threshold
                             && e.globalWaitBits != 0;

    if (e.localWaitBits != 0 && !transferDue) {
        // The Master SE prioritizes its local waiting list (Section 3.2).
        localGrantNext(s, e, done);
    } else if (e.globalWaitBits != 0) {
        const unsigned j = lowestSetBit(e.globalWaitBits);
        e.globalWaitBits = withoutBit(e.globalWaitBits, j);
        e.ownerKind = LockOwner::Unit;
        e.ownerId = j;
        e.grantStreak = 0;
        SyncMessage grant;
        grant.addr = e.addr;
        grant.opcode = Op::LockGrantGlobal;
        grant.coreId = s.unit;
        sendToStation(s.unit, j, grant, done);
    } else if (e.localWaitBits != 0) {
        localGrantNext(s, e, done);
    } else {
        e.ownerKind = LockOwner::None;
        e.grantStreak = 0;
        maybeFree(s, e, machine_.eq().now());
    }
}

void
SynCronBackend::onLockAcquireLocal(Station &s, const SyncMessage &m,
                                   Tick done)
{
    const Route route = routeFor(s, m.addr, true, false);
    if (route == Route::Redirect) {
        redirectOverflow(s, m, done);
        return;
    }
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memLockOp(s, v, m, true, s.unit, static_cast<int>(m.coreId), false,
                  done);
        return;
    }

    StEntry &e = *entryOf(s, m.addr);
    const unsigned c = m.coreId;

    if (isMaster(s, m.addr)) {
        if (e.ownerKind == LockOwner::None) {
            e.ownerKind = LockOwner::LocalCore;
            e.ownerId = c;
            ++e.grantStreak;
            grantCore(s.unit, globalCoreId(s.unit, c), m.addr, done);
        } else {
            e.localWaitBits = withBit(e.localWaitBits, c);
        }
        return;
    }

    // Non-master local SE.
    if (e.holdsGrant && e.ownerKind == LockOwner::None) {
        e.ownerKind = LockOwner::LocalCore;
        e.ownerId = c;
        ++e.grantStreak;
        grantCore(s.unit, globalCoreId(s.unit, c), m.addr, done);
        return;
    }
    e.localWaitBits = withBit(e.localWaitBits, c);
    if (!e.holdsGrant && !e.requestedGlobal) {
        e.requestedGlobal = true;
        SyncMessage req;
        req.addr = m.addr;
        req.opcode = Op::LockAcquireGlobal;
        req.coreId = s.unit;
        sendToStation(s.unit, masterOf(m.addr), req, done);
    }
}

void
SynCronBackend::onLockReleaseLocal(Station &s, const SyncMessage &m,
                                   Tick done)
{
    const Route route = routeFor(s, m.addr, false, false);
    if (route == Route::Redirect) {
        redirectOverflow(s, m, done);
        return;
    }
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memLockOp(s, v, m, false, s.unit, static_cast<int>(m.coreId),
                  false, done);
        return;
    }

    StEntry &e = *entryOf(s, m.addr);
    SYNCRON_ASSERT(e.ownerKind == LockOwner::LocalCore
                       && e.ownerId == m.coreId,
                   "lock release by non-owner core "
                       << m.coreId << " @" << m.addr << " unit=" << s.unit
                       << " master=" << isMaster(s, m.addr)
                       << " ownerKind=" << static_cast<int>(e.ownerKind)
                       << " ownerId=" << e.ownerId
                       << " holds=" << e.holdsGrant
                       << " reqGlobal=" << e.requestedGlobal
                       << " waitBits=" << e.localWaitBits
                       << " counter=" << s.counters.value(m.addr)
                       << " redirected=" << s.hasRedirected(m.addr));
    e.ownerKind = LockOwner::None;

    if (isMaster(s, m.addr)) {
        masterNextGrant(s, e, done);
        return;
    }

    // Non-master local SE: serve successive local requests while any
    // exist (Section 3.2), unless the fairness threshold forces a
    // transfer (Section 4.4.2 extension).
    const std::uint32_t threshold = machine_.config().localGrantThreshold;
    const bool transferDue = threshold > 0 && e.grantStreak >= threshold;
    if (e.localWaitBits != 0 && !transferDue) {
        localGrantNext(s, e, done);
        return;
    }

    // Release the unit's hold with one aggregated global message.
    e.holdsGrant = false;
    e.grantStreak = 0;
    SyncMessage rel;
    rel.addr = m.addr;
    rel.opcode = Op::LockReleaseGlobal;
    rel.coreId = s.unit;
    sendToStation(s.unit, masterOf(m.addr), rel, done);
    if (e.localWaitBits != 0) {
        // Fairness transfer: local waiters re-request at the master's
        // queue tail.
        e.requestedGlobal = true;
        SyncMessage req;
        req.addr = m.addr;
        req.opcode = Op::LockAcquireGlobal;
        req.coreId = s.unit;
        sendToStation(s.unit, masterOf(m.addr), req, done);
    } else {
        maybeFree(s, e, machine_.eq().now());
    }
}

void
SynCronBackend::onLockAcquireGlobal(Station &s, const SyncMessage &m,
                                    Tick done)
{
    const Route route = routeFor(s, m.addr, true, true);
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memLockOp(s, v, m, true, m.coreId, -1, true, done);
        return;
    }
    StEntry &e = *entryOf(s, m.addr);
    const unsigned j = m.coreId;
    if (e.ownerKind == LockOwner::None) {
        e.ownerKind = LockOwner::Unit;
        e.ownerId = j;
        SyncMessage grant;
        grant.addr = m.addr;
        grant.opcode = Op::LockGrantGlobal;
        grant.coreId = s.unit;
        sendToStation(s.unit, j, grant, done);
    } else {
        e.globalWaitBits = withBit(e.globalWaitBits, j);
    }
}

void
SynCronBackend::onLockReleaseGlobal(Station &s, const SyncMessage &m,
                                    Tick done)
{
    const Route route = routeFor(s, m.addr, false, true);
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memLockOp(s, v, m, false, m.coreId, -1, true, done);
        return;
    }
    StEntry &e = *entryOf(s, m.addr);
    SYNCRON_ASSERT(e.ownerKind == LockOwner::Unit && e.ownerId == m.coreId,
                   "global release by non-owner unit " << m.coreId);
    e.ownerKind = LockOwner::None;
    masterNextGrant(s, e, done);
}

void
SynCronBackend::onLockGrantGlobal(Station &s, const SyncMessage &m,
                                  Tick done)
{
    StEntry *e = s.table.find(m.addr);
    SYNCRON_ASSERT(e != nullptr,
                   "lock grant for @" << m.addr << " with no ST entry");
    e->holdsGrant = true;
    e->requestedGlobal = false;
    if (e->localWaitBits != 0) {
        localGrantNext(s, *e, done);
    } else {
        // All local waiters vanished (possible only through exotic
        // interleavings); return the lock immediately.
        e->holdsGrant = false;
        SyncMessage rel;
        rel.addr = m.addr;
        rel.opcode = Op::LockReleaseGlobal;
        rel.coreId = s.unit;
        sendToStation(s.unit, masterOf(m.addr), rel, done);
        maybeFree(s, *e, machine_.eq().now());
    }
}

void
SynCronBackend::internalLockAcquire(Station &s, unsigned localCore,
                                    Addr lock, Tick done)
{
    SyncMessage m;
    m.addr = lock;
    m.opcode = Op::LockAcquireLocal;
    m.coreId = localCore;
    if (misarActive() && misarVars_.count(lock) != 0) {
        misarDivertLocal(s, m, done);
        return;
    }
    onLockAcquireLocal(s, m, done);
}

void
SynCronBackend::internalLockRelease(Station &s, unsigned localCore,
                                    Addr lock, Tick done)
{
    SyncMessage m;
    m.addr = lock;
    m.opcode = Op::LockReleaseLocal;
    m.coreId = localCore;
    if (misarActive() && misarVars_.count(lock) != 0) {
        misarDivertLocal(s, m, done);
        return;
    }
    onLockReleaseLocal(s, m, done);
}

// --------------------------------------------------------------------
// Barrier protocol (Section 4.1)
// --------------------------------------------------------------------

void
SynCronBackend::departLocalWaiters(Station &s, StEntry &e, Tick done)
{
    std::uint64_t bits = e.localWaitBits;
    e.localWaitBits = 0;
    while (bits != 0) {
        const unsigned c = lowestSetBit(bits);
        bits = withoutBit(bits, c);
        grantCore(s.unit, globalCoreId(s.unit, c), e.addr, done);
    }
}

void
SynCronBackend::masterBarrierCheck(Station &s, StEntry &e,
                                   std::uint64_t total, Tick done)
{
    const SystemConfig &cfg = machine_.config();
    const bool hier =
        total == cfg.totalClientCores() && cfg.numUnits > 1;

    bool complete;
    if (hier) {
        complete = e.barrierArrived == cfg.clientCoresPerUnit
                   && e.barrierUnitsArrived == cfg.numUnits - 1;
    } else {
        complete = e.barrierArrived == total;
    }
    if (!complete)
        return;

    std::uint64_t units = e.globalWaitBits;
    e.globalWaitBits = 0;
    e.barrierArrived = 0;
    e.barrierUnitsArrived = 0;
    while (units != 0) {
        const unsigned j = lowestSetBit(units);
        units = withoutBit(units, j);
        SyncMessage depart;
        depart.addr = e.addr;
        depart.opcode = Op::BarrierDepartGlobal;
        depart.coreId = s.unit;
        sendToStation(s.unit, j, depart, done);
    }
    departLocalWaiters(s, e, done);
    maybeFree(s, e, machine_.eq().now());
}

void
SynCronBackend::onBarrierWaitLocal(Station &s, const SyncMessage &m,
                                   bool withinUnit, Tick done)
{
    const Route route = routeFor(s, m.addr, true, false);
    if (route == Route::Redirect) {
        redirectOverflow(s, m, done);
        return;
    }
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memBarrierOp(s, v, m, s.unit, static_cast<int>(m.coreId), false,
                     done);
        return;
    }

    StEntry &e = *entryOf(s, m.addr);
    const SystemConfig &cfg = machine_.config();
    e.localWaitBits = withBit(e.localWaitBits, m.coreId);
    ++e.barrierArrived;

    if (withinUnit) {
        // Coordinated entirely by the local SE.
        if (e.barrierArrived == m.barrierTotal()) {
            e.barrierArrived = 0;
            departLocalWaiters(s, e, done);
            maybeFree(s, e, machine_.eq().now());
        }
        return;
    }

    if (isMaster(s, m.addr)) {
        masterBarrierCheck(s, e, m.barrierTotal(), done);
        return;
    }

    const bool hier =
        m.barrierTotal() == cfg.totalClientCores() && cfg.numUnits > 1;
    if (hier) {
        // Two-level: one aggregated message once every local core of
        // this unit has arrived (Section 3.2).
        if (e.barrierArrived == cfg.clientCoresPerUnit
            && !e.barrierGlobalSent) {
            e.barrierGlobalSent = true;
            SyncMessage wait;
            wait.addr = m.addr;
            wait.opcode = Op::BarrierWaitGlobal;
            wait.coreId = s.unit;
            wait.info = m.info;
            sendToStation(s.unit, masterOf(m.addr), wait, done);
        }
    } else {
        // Partial participation: one-level communication — re-direct
        // every local arrival to the Master SE (Section 4.1).
        SyncMessage wait;
        wait.addr = m.addr;
        wait.opcode = Op::BarrierWaitGlobal;
        wait.coreId = s.unit;
        wait.info = m.info;
        sendToStation(s.unit, masterOf(m.addr), wait, done);
    }
}

void
SynCronBackend::onBarrierWaitGlobal(Station &s, const SyncMessage &m,
                                    Tick done)
{
    const Route route = routeFor(s, m.addr, true, true);
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memBarrierOp(s, v, m, m.coreId, -1, true, done);
        return;
    }
    StEntry &e = *entryOf(s, m.addr);
    const SystemConfig &cfg = machine_.config();
    const bool hier =
        m.barrierTotal() == cfg.totalClientCores() && cfg.numUnits > 1;

    e.globalWaitBits = withBit(e.globalWaitBits, m.coreId);
    if (hier)
        ++e.barrierUnitsArrived;
    else
        ++e.barrierArrived;
    masterBarrierCheck(s, e, m.barrierTotal(), done);
}

void
SynCronBackend::onBarrierDepartGlobal(Station &s, const SyncMessage &m,
                                      Tick done)
{
    StEntry *e = s.table.find(m.addr);
    SYNCRON_ASSERT(e != nullptr, "barrier departure with no ST entry");
    e->barrierArrived = 0;
    e->barrierGlobalSent = false;
    departLocalWaiters(s, *e, done);
    maybeFree(s, *e, machine_.eq().now());
}

// --------------------------------------------------------------------
// Semaphore protocol
// --------------------------------------------------------------------

namespace {
void
initSem(StEntry &e, std::uint64_t info)
{
    if (!e.semInit) {
        e.semInit = true;
        e.semAvail = static_cast<std::int64_t>(info);
    }
}
} // namespace

void
SynCronBackend::masterSemPost(Station &s, StEntry &e, Tick done)
{
    if (e.localWaitBits != 0) {
        const unsigned c = lowestSetBit(e.localWaitBits);
        e.localWaitBits = withoutBit(e.localWaitBits, c);
        grantCore(s.unit, globalCoreId(s.unit, c), e.addr, done);
    } else if (e.globalWaitBits != 0) {
        const unsigned j = lowestSetBit(e.globalWaitBits);
        e.globalWaitBits = withoutBit(e.globalWaitBits, j);
        SyncMessage grant;
        grant.addr = e.addr;
        grant.opcode = Op::SemGrantGlobal;
        grant.coreId = s.unit;
        sendToStation(s.unit, j, grant, done);
    } else {
        ++e.semAvail;
    }
}

void
SynCronBackend::onSemWaitLocal(Station &s, const SyncMessage &m, Tick done)
{
    const Route route = routeFor(s, m.addr, true, false);
    if (route == Route::Redirect) {
        redirectOverflow(s, m, done);
        return;
    }
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memSemOp(s, v, m, true, s.unit, static_cast<int>(m.coreId), false,
                 done);
        return;
    }

    StEntry &e = *entryOf(s, m.addr);
    if (isMaster(s, m.addr)) {
        initSem(e, m.semResources());
        if (e.semAvail > 0) {
            --e.semAvail;
            grantCore(s.unit, globalCoreId(s.unit, m.coreId), m.addr,
                      done);
        } else {
            e.localWaitBits = withBit(e.localWaitBits, m.coreId);
        }
        return;
    }

    e.localWaitBits = withBit(e.localWaitBits, m.coreId);
    if (!e.semArmed) {
        e.semArmed = true;
        SyncMessage wait;
        wait.addr = m.addr;
        wait.opcode = Op::SemWaitGlobal;
        wait.coreId = s.unit;
        wait.info = m.info;
        sendToStation(s.unit, masterOf(m.addr), wait, done);
    }
}

void
SynCronBackend::onSemPostLocal(Station &s, const SyncMessage &m, Tick done)
{
    if (!isMaster(s, m.addr)) {
        // Hierarchical combining: a local post can satisfy a local
        // waiter directly — the resource never needs to travel to the
        // Master SE and back.
        if (StEntry *e = s.table.find(m.addr);
            e != nullptr && e->localWaitBits != 0) {
            const unsigned c = lowestSetBit(e->localWaitBits);
            e->localWaitBits = withoutBit(e->localWaitBits, c);
            grantCore(s.unit, globalCoreId(s.unit, c), m.addr, done);
            return;
        }
        // Otherwise forward (or redirect) to the master without
        // reserving an ST entry.
        if (s.counters.servicedViaMemory(m.addr)
            || s.hasRedirected(m.addr)) {
            redirectOverflow(s, m, done);
            return;
        }
        SyncMessage post;
        post.addr = m.addr;
        post.opcode = Op::SemPostGlobal;
        post.coreId = s.unit;
        sendToStation(s.unit, masterOf(m.addr), post, done);
        return;
    }

    const Route route = routeFor(s, m.addr, false, false);
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memSemOp(s, v, m, false, s.unit, static_cast<int>(m.coreId), false,
                 done);
        return;
    }
    StEntry &e = *entryOf(s, m.addr);
    initSem(e, 0);
    masterSemPost(s, e, done);
}

void
SynCronBackend::onSemWaitGlobal(Station &s, const SyncMessage &m,
                                Tick done)
{
    const Route route = routeFor(s, m.addr, true, true);
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memSemOp(s, v, m, true, m.coreId, -1, true, done);
        return;
    }
    StEntry &e = *entryOf(s, m.addr);
    initSem(e, m.semResources());
    if (e.semAvail > 0) {
        // Batched grant: hand the requesting SE up to a unit's worth of
        // resources in one message (MessageInfo carries the count); the
        // SE returns any excess. This amortizes the serial SE<->master
        // round trips of the bit-queue.
        const std::int64_t batch = std::min<std::int64_t>(
            e.semAvail, machine_.config().clientCoresPerUnit);
        e.semAvail -= batch;
        SyncMessage grant;
        grant.addr = m.addr;
        grant.opcode = Op::SemGrantGlobal;
        grant.coreId = s.unit;
        grant.info = static_cast<std::uint64_t>(batch);
        sendToStation(s.unit, m.coreId, grant, done);
    } else {
        e.globalWaitBits = withBit(e.globalWaitBits, m.coreId);
    }
}

void
SynCronBackend::onSemPostGlobal(Station &s, const SyncMessage &m,
                                Tick done)
{
    const Route route = routeFor(s, m.addr, false, true);
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memSemOp(s, v, m, false, m.coreId, -1, true, done);
        return;
    }
    StEntry &e = *entryOf(s, m.addr);
    initSem(e, 0);
    // Global posts may carry a batch count (returned grant excess).
    const std::uint64_t count = m.info > 0 ? m.info : 1;
    for (std::uint64_t i = 0; i < count; ++i)
        masterSemPost(s, e, done);
}

void
SynCronBackend::onSemGrantGlobal(Station &s, const SyncMessage &m,
                                 Tick done)
{
    StEntry *e = s.table.find(m.addr);
    SYNCRON_ASSERT(e != nullptr, "sem grant with no ST entry");
    std::uint64_t granted = m.info > 0 ? m.info : 1;

    // Wake as many local waiters as the batch allows.
    while (granted > 0 && e->localWaitBits != 0) {
        const unsigned c = lowestSetBit(e->localWaitBits);
        e->localWaitBits = withoutBit(e->localWaitBits, c);
        grantCore(s.unit, globalCoreId(s.unit, c), m.addr, done);
        --granted;
    }

    if (granted > 0) {
        // Excess resources (waiters were satisfied by locally-combined
        // posts, or the batch was generous): return them to the master.
        SyncMessage post;
        post.addr = m.addr;
        post.opcode = Op::SemPostGlobal;
        post.coreId = s.unit;
        post.info = granted;
        sendToStation(s.unit, masterOf(m.addr), post, done);
    }
    if (e->localWaitBits != 0) {
        // Bit-queue semantics: re-arm the request for remaining waiters.
        SyncMessage wait;
        wait.addr = m.addr;
        wait.opcode = Op::SemWaitGlobal;
        wait.coreId = s.unit;
        sendToStation(s.unit, masterOf(m.addr), wait, done);
    } else {
        e->semArmed = false;
        maybeFree(s, *e, machine_.eq().now());
    }
}

// --------------------------------------------------------------------
// Condition-variable protocol
// --------------------------------------------------------------------

void
SynCronBackend::masterCondSignal(Station &s, StEntry &e, bool broadcast,
                                 Tick done)
{
    const Addr lockAddr = static_cast<Addr>(e.tableInfo);
    do {
        if (e.localWaitBits != 0) {
            const unsigned c = lowestSetBit(e.localWaitBits);
            e.localWaitBits = withoutBit(e.localWaitBits, c);
            // The woken core re-acquires the associated lock before its
            // cond_wait returns; the SE issues the acquire on its behalf.
            internalLockAcquire(s, c, lockAddr, done);
        } else if (e.globalWaitBits != 0) {
            const unsigned j = lowestSetBit(e.globalWaitBits);
            e.globalWaitBits = withoutBit(e.globalWaitBits, j);
            SyncMessage grant;
            grant.addr = e.addr;
            grant.opcode =
                broadcast ? Op::CondBroadGlobal : Op::CondGrantGlobal;
            grant.coreId = s.unit;
            grant.info = lockAddr;
            sendToStation(s.unit, j, grant, done);
        } else {
            // No waiter is recorded yet. A waiter may logically precede
            // this signal but its arming message may still be in flight;
            // remember the signal so the next wait consumes it (spurious
            // wakeup instead of lost wakeup).
            ++e.condPending;
            break;
        }
    } while (broadcast
             && (e.localWaitBits != 0 || e.globalWaitBits != 0));
    maybeFree(s, e, machine_.eq().now());
}

void
SynCronBackend::onCondWaitLocal(Station &s, const SyncMessage &m,
                                Tick done)
{
    const Route route = routeFor(s, m.addr, true, false);
    if (route == Route::Redirect) {
        redirectOverflow(s, m, done);
        // Still release the lock locally on the core's behalf.
        internalLockRelease(s, m.coreId, m.condLockAddr(), done);
        return;
    }
    if (route == Route::Memory) {
        // Condition variables always use the integrated memory path,
        // even under the MiSAR ablation: their lock coupling cannot
        // straddle the hardware/software boundary.
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memCondOp(s, v, m, OpKind::CondWait, s.unit,
                  static_cast<int>(m.coreId), false, done);
        internalLockRelease(s, m.coreId, m.condLockAddr(), done);
        return;
    }

    StEntry &e = *entryOf(s, m.addr);
    SYNCRON_ASSERT(e.tableInfo == 0 || e.tableInfo == m.condLockAddr(),
                   "condition variable used with two different locks");
    e.tableInfo = m.info;
    e.localWaitBits = withBit(e.localWaitBits, m.coreId);

    if (!isMaster(s, m.addr) && !e.condArmed) {
        e.condArmed = true;
        SyncMessage wait;
        wait.addr = m.addr;
        wait.opcode = Op::CondWaitGlobal;
        wait.coreId = s.unit;
        wait.info = m.info;
        sendToStation(s.unit, masterOf(m.addr), wait, done);
    }
    // Queue first, then release the associated lock — no missed wakeups.
    internalLockRelease(s, m.coreId, m.condLockAddr(), done);

    // Consume a signal that raced ahead of this wait (master role only;
    // must happen after the lock release above so the woken core can
    // re-acquire it).
    if (isMaster(s, m.addr) && e.condPending > 0) {
        --e.condPending;
        masterCondSignal(s, e, false, done);
    }
}

void
SynCronBackend::onCondSignalLocal(Station &s, const SyncMessage &m,
                                  bool broadcast, Tick done)
{
    if (!isMaster(s, m.addr)) {
        // Hierarchical combining (signal only): waking a local waiter
        // satisfies "wake one" without a round trip to the master.
        if (!broadcast) {
            if (StEntry *e = s.table.find(m.addr);
                e != nullptr && e->localWaitBits != 0) {
                const unsigned c = lowestSetBit(e->localWaitBits);
                e->localWaitBits = withoutBit(e->localWaitBits, c);
                internalLockAcquire(s, c,
                                    static_cast<Addr>(e->tableInfo),
                                    done);
                return;
            }
        }
        if (s.counters.servicedViaMemory(m.addr)
            || s.hasRedirected(m.addr)) {
            redirectOverflow(s, m, done);
            return;
        }
        SyncMessage sig;
        sig.addr = m.addr;
        sig.opcode =
            broadcast ? Op::CondBroadGlobal : Op::CondSignalGlobal;
        sig.coreId = s.unit;
        sendToStation(s.unit, masterOf(m.addr), sig, done);
        return;
    }

    const Route route = routeFor(s, m.addr, false, false);
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memCondOp(s, v, m,
                  broadcast ? OpKind::CondBroadcast : OpKind::CondSignal,
                  s.unit, static_cast<int>(m.coreId), false, done);
        return;
    }
    StEntry &e = *entryOf(s, m.addr);
    masterCondSignal(s, e, broadcast, done);
}

void
SynCronBackend::onCondWaitGlobal(Station &s, const SyncMessage &m,
                                 Tick done)
{
    const Route route = routeFor(s, m.addr, true, true);
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memCondOp(s, v, m, OpKind::CondWait, m.coreId, -1, true, done);
        return;
    }
    StEntry &e = *entryOf(s, m.addr);
    e.tableInfo = m.info;
    e.globalWaitBits = withBit(e.globalWaitBits, m.coreId);
    if (e.condPending > 0) {
        --e.condPending;
        masterCondSignal(s, e, false, done);
    }
}

void
SynCronBackend::onCondSignalGlobal(Station &s, const SyncMessage &m,
                                   bool broadcast, Tick done)
{
    const Route route = routeFor(s, m.addr, false, true);
    if (route == Route::Memory) {
        MemVar &v = s.memVars.try_emplace(m.addr, machine_.config().numUnits)
                        .first->second;
        memCondOp(s, v, m,
                  broadcast ? OpKind::CondBroadcast : OpKind::CondSignal,
                  m.coreId, -1, true, done);
        return;
    }
    StEntry &e = *entryOf(s, m.addr);
    masterCondSignal(s, e, broadcast, done);
}

void
SynCronBackend::onCondGrantGlobal(Station &s, const SyncMessage &m, bool,
                                  Tick done)
{
    StEntry *e = s.table.find(m.addr);
    SYNCRON_ASSERT(e != nullptr, "cond grant with no ST entry");
    const bool broadcast = m.opcode == Op::CondBroadGlobal;
    const Addr lockAddr = m.condLockAddr();

    if (e->localWaitBits == 0) {
        // All local waiters were woken by locally-combined signals in
        // the meantime. A single grant must not be lost — bounce it
        // back to the master; a broadcast wakes "everyone present",
        // which is now nobody.
        e->condArmed = false;
        if (!broadcast) {
            SyncMessage sig;
            sig.addr = m.addr;
            sig.opcode = Op::CondSignalGlobal;
            sig.coreId = s.unit;
            sendToStation(s.unit, masterOf(m.addr), sig, done);
        }
        maybeFree(s, *e, machine_.eq().now());
        return;
    }
    do {
        const unsigned c = lowestSetBit(e->localWaitBits);
        e->localWaitBits = withoutBit(e->localWaitBits, c);
        internalLockAcquire(s, c, lockAddr, done);
    } while (broadcast && e->localWaitBits != 0);

    if (e->localWaitBits != 0) {
        // Waiters remain after a single grant: re-arm at the master.
        SyncMessage wait;
        wait.addr = m.addr;
        wait.opcode = Op::CondWaitGlobal;
        wait.coreId = s.unit;
        wait.info = lockAddr;
        sendToStation(s.unit, masterOf(m.addr), wait, done);
    } else {
        e->condArmed = false;
        maybeFree(s, *e, machine_.eq().now());
    }
}

SYNCRON_REGISTER_BACKEND("SynCron", [](Machine &m) {
    return std::make_unique<SynCronBackend>(m);
});

} // namespace syncron::engine
