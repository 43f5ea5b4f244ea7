/**
 * @file
 * Time-series analysis workload (paper Table 6: SCRIMP matrix profile,
 * "ts"). The input series is replicated in each NDP unit (shared
 * read-only, cacheable); the output matrix profile is partitioned across
 * units (shared read-write, uncacheable) with one fine-grained lock per
 * profile element. Worker cores process diagonals of the distance
 * matrix; every cell updates profile[i] and profile[j] under their
 * locks — two lock episodes per cell, which is why ts has the highest
 * synchronization intensity and ST occupancy of all workloads
 * (Table 7: ~44% average occupancy).
 *
 * Input substitution: synthetic series (sinusoid + noise + planted
 * motifs) stand in for the paper's air-quality (air) and energy/power
 * (pow) datasets; SCRIMP's synchronization pattern is data-independent.
 */

#ifndef SYNCRON_WORKLOADS_TIMESERIES_SCRIMP_HH
#define SYNCRON_WORKLOADS_TIMESERIES_SCRIMP_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "workloads/datastructures/node_heap.hh"

namespace syncron::workloads {

/**
 * A generated proxy time series. Benches that sweep a grid generate the
 * series once with makeProxySeries() and pass it by const-ref into every
 * grid cell instead of regenerating it per cell.
 */
struct ProxySeries
{
    std::string name;           ///< "air" or "pow"
    std::vector<double> values; ///< the series samples
    unsigned window = 0;        ///< subsequence window length
};

/** Generates the named dataset proxy ("air"/"pow") at @p scale. */
ProxySeries makeProxySeries(const std::string &name, double scale = 1.0);

/** One SCRIMP run over a synthetic series. */
class ScrimpWorkload
{
  public:
    /** Runs over a pre-generated (possibly shared) series. */
    ScrimpWorkload(NdpSystem &sys, const ProxySeries &input);

    /**
     * Convenience: generates the named proxy and runs over it.
     *
     * @param sys       owning system
     * @param name      dataset proxy: "air" or "pow" (sizes/windows
     *                  differ)
     * @param scale     size multiplier (1.0 = bench default)
     */
    ScrimpWorkload(NdpSystem &sys, const std::string &name,
                   double scale = 1.0);

    /** Worker coroutine for client @p idx of @p total. */
    sim::Process worker(core::Core &c, unsigned idx, unsigned total);

    /** Spawns all workers and runs to completion. */
    Tick run();

    /** Final matrix profile (squared-distance surrogate). */
    const std::vector<double> &profile() const { return profile_; }

    /** Profile length (series length - window + 1). */
    std::size_t profileLen() const { return profile_.size(); }

    /** Host-side reference profile for verification. */
    std::vector<double> hostProfile() const;

    std::uint64_t updates() const { return updates_.load(); }

  private:
    double cellValue(std::size_t i, std::size_t j) const;

    NdpSystem &sys_;
    std::vector<double> series_;
    unsigned window_;
    std::vector<double> profile_;
    std::vector<Addr> profileAddr_;
    std::vector<Addr> seriesAddr_; ///< per-unit replica base
    sync::LockSet locks_;
    sync::Barrier bar_;
    /// Profile improvements. Bumped under per-ELEMENT locks; the sum is
    /// commutative and only read at quiescence.
    std::atomic<std::uint64_t> updates_{0};
};

} // namespace syncron::workloads

#endif // SYNCRON_WORKLOADS_TIMESERIES_SCRIMP_HH
