#include "system/machine.hh"

#include "common/log.hh"

namespace syncron {

namespace {

/**
 * Floor of any cross-unit path: the source-crossbar traversal of a
 * minimal (one-flit) message, the link controller overhead, and the
 * link flight time. Serialization (>= 1 tick) and the destination
 * crossbar add further margin on top — posts stamp the real, larger
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
    SYNCRON_ASSERT(lookahead_ > 0,
                   "zero cross-unit lookahead: xbar (arbiterCycles + hops "
                   "* hopCycles + 1) * cyclePeriod + link ctrlCycles * "
                   "cyclePeriod + flightTicks must be > 0");
    eq_.setTransport(lookahead_, this,
                     [](void *m, Tick arrival, std::uint16_t dest,
                        std::uint32_t bits) {
                         // The link leg ends at the stamp; the
                         // destination crossbar is paid now.
                         return static_cast<Machine *>(m)
                             ->xbar(dest)
                             .transfer(arrival, bits);
                     });

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
    Tick t = xbar(from).transfer(start, bits);
    if (from == to) {
        eq_.schedule(t, std::move(cont));
        return;
    }
    // Source-side legs run now; the queue's transport hook pays the
    // destination crossbar at the stamped arrival.
    t = links_->send(t, from, to, (bits + 7) / 8);
    eq_.post(t, static_cast<std::uint16_t>(from + 1),
             static_cast<std::uint16_t>(to), bits, std::move(cont));
}

void
Machine::memoryAccessAsync(Tick start, UnitId from, Addr addr,
                           bool isWrite, std::uint32_t bytes,
                           Callback onDone)
{
    const UnitId home = mem::unitOfAddr(addr);
    SYNCRON_ASSERT(home < cfg_.numUnits,
                   "access to address outside the system: " << addr);
    if (home == from) {
        const Tick done = memoryAccess(start, from, addr, isWrite, bytes);
        eq_.schedule(done, std::move(onDone));
        return;
    }
    // Park the completion callback and thread its slot index through
    // both posts — nesting the callback itself would overflow the
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
    if (home == from) {
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

} // namespace syncron
