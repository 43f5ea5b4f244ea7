#include "workloads/timeseries/scrimp.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"
#include "common/rng.hh"

namespace syncron::workloads {

using core::Core;
using core::MemKind;

ProxySeries
makeProxySeries(const std::string &name, double scale)
{
    unsigned len;
    unsigned window;
    std::uint64_t seed;
    double freq;
    if (name == "air") {
        len = 288;
        window = 16;
        seed = 11;
        freq = 0.13;
    } else if (name == "pow") {
        len = 352;
        window = 24;
        seed = 22;
        freq = 0.07;
    } else {
        SYNCRON_FATAL("unknown time series input '" << name
                                                    << "' (air/pow)");
    }
    len = std::max<unsigned>(
        4 * window, static_cast<unsigned>(len * scale));

    // Sinusoid + noise + two planted motifs.
    ProxySeries out;
    out.name = name;
    out.window = window;
    Rng rng(seed);
    out.values.resize(len);
    for (unsigned t = 0; t < len; ++t) {
        out.values[t] =
            std::sin(freq * t) + 0.25 * (rng.uniform() - 0.5);
    }
    for (unsigned t = 0; t + window < len / 4; ++t)
        out.values[len / 2 + t] = out.values[t]; // motif copy
    return out;
}

ScrimpWorkload::ScrimpWorkload(NdpSystem &sys, const ProxySeries &input)
    : sys_(sys), series_(input.values), window_(input.window)
{
    SYNCRON_ASSERT(window_ >= 1 && series_.size() >= 4 * window_,
                   "time series shorter than four windows");
    const std::size_t np = series_.size() - window_ + 1;
    profile_.assign(np, std::numeric_limits<double>::infinity());

    mem::AddressSpace &space = sys.machine().addrSpace();
    const unsigned units = sys.config().numUnits;

    // Output profile partitioned across units; per-element locks homed
    // with their element (distribute-by-address).
    profileAddr_.resize(np);
    for (std::size_t i = 0; i < np; ++i) {
        profileAddr_[i] =
            space.allocIn(static_cast<UnitId>(i * units / np), 8, 8);
    }
    locks_ = sys.api().createLockSetByAddr(profileAddr_);

    // Input series replicated in each unit (Section 5).
    seriesAddr_.resize(units);
    for (unsigned u = 0; u < units; ++u)
        seriesAddr_[u] = space.allocIn(u, series_.size() * 8ULL, 8);

    bar_ = sys.api().createBarrier(0, sys.numClientCores());
}

ScrimpWorkload::ScrimpWorkload(NdpSystem &sys, const std::string &name,
                               double scale)
    : ScrimpWorkload(sys, makeProxySeries(name, scale))
{}

double
ScrimpWorkload::cellValue(std::size_t i, std::size_t j) const
{
    // Squared z-norm-free distance surrogate: enough to make profile
    // values data-dependent and verifiable; the access/sync pattern is
    // identical to full SCRIMP.
    double d = 0.0;
    for (unsigned t = 0; t < window_; ++t) {
        const double diff = series_[i + t] - series_[j + t];
        d += diff * diff;
    }
    return d;
}

sim::Process
ScrimpWorkload::worker(Core &c, unsigned idx, unsigned total)
{
    sync::SyncApi &api = sys_.api();
    const std::size_t np = profile_.size();
    const Addr seriesBase = seriesAddr_[c.unit()];

    // Per-worker upper bound on each profile element: the unlocked
    // "worth locking?" filter reads only this private copy, never the
    // shared profile mid-run, so the lock-request stream does not
    // depend on how other workers' updates interleave. The bound is
    // tightened to the true
    // profile value inside each locked section.
    std::vector<double> bound(np,
                              std::numeric_limits<double>::infinity());

    // Diagonals are distributed round-robin across the cores (SCRIMP's
    // standard parallelization).
    for (std::size_t k = window_ / 4 + 1 + idx; k < np; k += total) {
        // First cell of the diagonal: full dot product.
        for (unsigned l = 0; l < (window_ * 8) / kCacheLineBytes + 1;
             ++l) {
            co_await c.load(seriesBase + l * kCacheLineBytes,
                            kCacheLineBytes, MemKind::SharedRO);
        }
        co_await c.compute(2 * window_);

        for (std::size_t i = 0; i + k < np; ++i) {
            const std::size_t j = i + k;
            // Incremental update: two series loads + O(1) arithmetic.
            co_await c.load(seriesBase + (i + window_) * 8, 8,
                            MemKind::SharedRO);
            co_await c.load(seriesBase + (j + window_) * 8, 8,
                            MemKind::SharedRO);
            co_await c.compute(8);
            const double d = cellValue(i, j);

            // profile[i] = min(profile[i], d) under its lock.
            if (d < bound[i]) {
                co_await api.acquire(c, locks_[i]);
                co_await c.load(profileAddr_[i], 8, MemKind::SharedRW);
                if (d < profile_[i]) {
                    profile_[i] = d;
                    co_await c.store(profileAddr_[i], 8,
                                     MemKind::SharedRW);
                    updates_.fetch_add(1, std::memory_order_relaxed);
                }
                bound[i] = profile_[i];
                co_await api.release(c, locks_[i]);
            }
            // Symmetric update of profile[j].
            if (d < bound[j]) {
                co_await api.acquire(c, locks_[j]);
                co_await c.load(profileAddr_[j], 8, MemKind::SharedRW);
                if (d < profile_[j]) {
                    profile_[j] = d;
                    co_await c.store(profileAddr_[j], 8,
                                     MemKind::SharedRW);
                    updates_.fetch_add(1, std::memory_order_relaxed);
                }
                bound[j] = profile_[j];
                co_await api.release(c, locks_[j]);
            }
        }
    }
    co_await api.wait(c, bar_);
}

Tick
ScrimpWorkload::run()
{
    const unsigned total = sys_.numClientCores();
    const Tick start = sys_.elapsed();
    for (unsigned i = 0; i < total; ++i)
        sys_.spawn(worker(sys_.clientCore(i), i, total));
    sys_.run();
    return sys_.elapsed() - start;
}

std::vector<double>
ScrimpWorkload::hostProfile() const
{
    const std::size_t np = profile_.size();
    std::vector<double> ref(np, std::numeric_limits<double>::infinity());
    for (std::size_t k = window_ / 4 + 1; k < np; ++k) {
        for (std::size_t i = 0; i + k < np; ++i) {
            const double d = cellValue(i, i + k);
            ref[i] = std::min(ref[i], d);
            ref[i + k] = std::min(ref[i + k], d);
        }
    }
    return ref;
}

} // namespace syncron::workloads
