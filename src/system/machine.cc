#include "system/machine.hh"

#include <algorithm>

#include "common/log.hh"

namespace syncron {

namespace {

/**
 * Floor of any cross-unit path: the source-crossbar traversal of a
 * minimal (one-flit) message, the link controller overhead, and the
 * link flight time. Serialization (>= 1 tick) and the destination
 * crossbar add further margin on top — envelopes stamp the real, larger
 * arrival tick; this bound only has to be conservative.
 */
Tick
crossUnitFloor(const SystemConfig &cfg)
{
    const net::CrossbarParams &x = cfg.xbar;
    const Tick srcXbar =
        static_cast<Tick>(x.arbiterCycles + x.hops * x.hopCycles + 1)
        * x.cyclePeriod;
    const net::LinkParams &l = cfg.link;
    const Tick linkFloor =
        static_cast<Tick>(l.ctrlCycles) * l.cyclePeriod + l.flightTicks;
    return srcXbar + linkFloor;
}

} // namespace

Machine::Machine(const SystemConfig &cfg)
    : cfg_(cfg), addrSpace_(cfg.numUnits)
{
    cfg_.validate();
    lookahead_ = crossUnitFloor(cfg_);
    mailboxActive_ = lookahead_ > 0;
    unitSeq_.assign(cfg_.numUnits, 0);

    const mem::DramParams dramParams =
        mem::DramParams::forTech(cfg_.dramTech);
    xbars_.reserve(cfg_.numUnits);
    drams_.reserve(cfg_.numUnits);
    for (unsigned u = 0; u < cfg_.numUnits; ++u) {
        xbars_.push_back(std::make_unique<net::Crossbar>(cfg_.xbar, stats_));
        drams_.push_back(std::make_unique<mem::Dram>(dramParams, stats_));
    }
    links_ = std::make_unique<net::LinkFabric>(cfg_.numUnits, cfg_.link,
                                               stats_);
}

Machine::~Machine() = default;

net::Crossbar &
Machine::xbar(UnitId unit)
{
    SYNCRON_ASSERT(unit < xbars_.size(), "xbar: unknown unit " << unit);
    return *xbars_[unit];
}

mem::Dram &
Machine::dram(UnitId unit)
{
    SYNCRON_ASSERT(unit < drams_.size(), "dram: unknown unit " << unit);
    return *drams_[unit];
}

void
Machine::run(Tick until)
{
    for (;;) {
        drainMailboxes();
        const Tick w = eq_.nextTime();
        if (w == kTickNever || w > until)
            break;
        // run(limit) is inclusive: the window covers
        // [w, w + lookahead - 1], so no event inside it can post an
        // envelope (stamped >= t + lookahead) that lands inside the
        // same window. Without a lookahead the queue steps one tick at
        // a time.
        const Tick limit = mailboxActive_ ? w + lookahead_ - 1 : w;
        eq_.run(std::min(limit, until));
        ++windows_;
    }
}

Tick
Machine::routeMessage(Tick start, UnitId from, UnitId to,
                      std::uint32_t bits)
{
    if (from == to)
        return xbar(from).transfer(start, bits);

    Tick t = xbar(from).transfer(start, bits);
    t = links_->send(t, from, to, (bits + 7) / 8);
    return xbar(to).transfer(t, bits);
}

Tick
Machine::memoryAccess(Tick start, UnitId from, Addr addr, bool isWrite,
                      std::uint32_t bytes)
{
    const UnitId home = mem::unitOfAddr(addr);
    SYNCRON_ASSERT(home < cfg_.numUnits,
                   "access to address outside the system: " << addr);

    // Request carries the write data; the response carries read data.
    const std::uint32_t reqBits =
        kMemReqHeaderBits + (isWrite ? bytes * 8 : 0);
    const std::uint32_t respBits =
        kMemRespHeaderBits + (isWrite ? 0 : bytes * 8);

    Tick t = routeMessage(start, from, home, reqBits);
    t = dram(home).access(t, addr, isWrite, bytes);
    return routeMessage(t, home, from, respBits);
}

void
Machine::postMessage(Tick start, UnitId from, UnitId to,
                     std::uint32_t bits, Callback cont)
{
    if (from == to) {
        const Tick t = xbar(from).transfer(start, bits);
        eq_.schedule(t, std::move(cont));
        return;
    }
    if (!mailboxActive_) {
        // Zero-lookahead fallback: synchronous transport.
        const Tick t = routeMessage(start, from, to, bits);
        eq_.schedule(t, std::move(cont));
        return;
    }
    // Source-side legs run now; the destination crossbar is paid by
    // deliverEnvelope() at the stamped arrival.
    Tick t = xbar(from).transfer(start, bits);
    t = links_->send(t, from, to, (bits + 7) / 8);
    outbox_.push_back(Envelope{t, bits, to, from, unitSeq_[from]++,
                               std::move(cont)});
}

void
Machine::memoryAccessAsync(Tick start, UnitId from, Addr addr,
                           bool isWrite, std::uint32_t bytes,
                           Callback onDone)
{
    const UnitId home = mem::unitOfAddr(addr);
    SYNCRON_ASSERT(home < cfg_.numUnits,
                   "access to address outside the system: " << addr);
    if (home == from || !mailboxActive_) {
        const Tick done = memoryAccess(start, from, addr, isWrite, bytes);
        eq_.schedule(done, std::move(onDone));
        return;
    }
    // Park the completion callback and thread its slot index through
    // both envelopes — nesting the callback itself would overflow the
    // inline-callback bound.
    const std::uint32_t pend = parkMemCallback(std::move(onDone));
    const std::uint32_t reqBits =
        kMemReqHeaderBits + (isWrite ? bytes * 8 : 0);
    postMessage(start, from, home, reqBits,
                [this, addr, isWrite, bytes, from, pend] {
                    const UnitId h = mem::unitOfAddr(addr);
                    const Tick t = dram(h).access(eq_.now(), addr,
                                                  isWrite, bytes);
                    const std::uint32_t respBits =
                        kMemRespHeaderBits + (isWrite ? 0 : bytes * 8);
                    postMessage(t, h, from, respBits,
                                [this, pend] { completeMemOp(pend); });
                });
}

void
Machine::memoryAccessDetached(Tick start, UnitId from, Addr addr,
                              bool isWrite, std::uint32_t bytes)
{
    const UnitId home = mem::unitOfAddr(addr);
    SYNCRON_ASSERT(home < cfg_.numUnits,
                   "access to address outside the system: " << addr);
    if (home == from || !mailboxActive_) {
        memoryAccess(start, from, addr, isWrite, bytes);
        return;
    }
    const std::uint32_t reqBits =
        kMemReqHeaderBits + (isWrite ? bytes * 8 : 0);
    postMessage(start, from, home, reqBits,
                [this, addr, isWrite, bytes, from] {
                    const UnitId h = mem::unitOfAddr(addr);
                    const Tick t = dram(h).access(eq_.now(), addr,
                                                  isWrite, bytes);
                    const std::uint32_t respBits =
                        kMemRespHeaderBits + (isWrite ? 0 : bytes * 8);
                    // The response still occupies the path home -> from.
                    postMessage(t, h, from, respBits, [] {});
                });
}

std::uint32_t
Machine::allocInflight(Envelope &&env)
{
    if (!inflightFree_.empty()) {
        const std::uint32_t idx = inflightFree_.back();
        inflightFree_.pop_back();
        inflight_[idx] = std::move(env);
        return idx;
    }
    inflight_.push_back(std::move(env));
    return static_cast<std::uint32_t>(inflight_.size() - 1);
}

void
Machine::deliverEnvelope(std::uint32_t idx)
{
    Envelope env = std::move(inflight_[idx]);
    inflightFree_.push_back(idx);
    // The envelope's stamp is the link arrival; the destination-crossbar
    // traversal happens now.
    const Tick t = xbar(env.to).transfer(eq_.now(), env.bits);
    eq_.schedule(t, std::move(env.cont));
}

std::uint32_t
Machine::parkMemCallback(Callback cb)
{
    if (!memPendingFree_.empty()) {
        const std::uint32_t idx = memPendingFree_.back();
        memPendingFree_.pop_back();
        memPending_[idx] = std::move(cb);
        return idx;
    }
    memPending_.push_back(std::move(cb));
    return static_cast<std::uint32_t>(memPending_.size() - 1);
}

void
Machine::completeMemOp(std::uint32_t idx)
{
    Callback cb = std::move(memPending_[idx]);
    memPendingFree_.push_back(idx);
    cb();
}

void
Machine::drainMailboxes()
{
    // Schedule one delivery event per envelope, in (arrival, source
    // unit, per-unit sequence) order. Scheduling runs no event, so the
    // outbox cannot grow while it is walked; clear() keeps its capacity
    // for the next window.
    if (outbox_.empty())
        return;
    const auto before = [](const Envelope &a, const Envelope &b) {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.srcUnit != b.srcUnit)
            return a.srcUnit < b.srcUnit;
        return a.seq < b.seq;
    };
    if (!std::is_sorted(outbox_.begin(), outbox_.end(), before))
        std::sort(outbox_.begin(), outbox_.end(), before);
    envelopes_ += outbox_.size();
    for (Envelope &env : outbox_) {
        const Tick when = env.when;
        SYNCRON_ASSERT(when >= eq_.now(),
                       "mailbox envelope arrived in the past: "
                           << when << " < " << eq_.now());
        const std::uint32_t idx = allocInflight(std::move(env));
        eq_.schedule(when, [this, idx] { deliverEnvelope(idx); });
    }
    outbox_.clear();
}

} // namespace syncron
