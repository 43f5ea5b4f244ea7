/**
 * @file
 * NdpSystem: one fully assembled simulated NDP system — the hardware
 * platform (Machine), the synchronization backend selected by the
 * configuration's Scheme, the client NDP cores, and the run loop that
 * drives workload coroutines to completion.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   SystemConfig cfg = SystemConfig::make(Scheme::SynCron);
 *   NdpSystem sys(cfg);
 *   for (unsigned i = 0; i < sys.numClientCores(); ++i)
 *       sys.spawn(myKernel(sys.clientCore(i), sys.api()));
 *   sys.run();
 *   // sys.elapsed(), sys.stats(), computeEnergy(...)
 */

#ifndef SYNCRON_SYSTEM_SYSTEM_HH
#define SYNCRON_SYSTEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "core/core.hh"
#include "sync/api.hh"
#include "sync/backend.hh"
#include "syncron/engine.hh"
#include "system/config.hh"
#include "system/machine.hh"

namespace syncron::trace {
class TraceCapture;
} // namespace syncron::trace

namespace syncron::analysis {
class LiveAnalyzer;
} // namespace syncron::analysis

namespace syncron::durability {
class DurabilityManager;
} // namespace syncron::durability

namespace syncron {

/** A complete simulated NDP system instance. */
class NdpSystem
{
  public:
    explicit NdpSystem(const SystemConfig &cfg);
    ~NdpSystem();

    NdpSystem(const NdpSystem &) = delete;
    NdpSystem &operator=(const NdpSystem &) = delete;

    Machine &machine() { return *machine_; }
    sync::SyncApi &api() { return *api_; }
    sync::SyncBackend &backend() { return *backend_; }

    /**
     * The SynCron engine, when the configured scheme is SE- or
     * server-based (SynCron, Hier, overflow variants); nullptr for
     * Ideal/Central/flat.
     */
    engine::SynCronBackend *syncronBackend() { return engineView_; }

    /** Number of client cores executing the workload. */
    unsigned numClientCores() const;

    /** The @p idx -th client core; cores are distributed round-robin by
     *  unit (core 0 -> unit 0, core 1 -> unit 0, ..., 15 -> unit 1...). */
    core::Core &clientCore(unsigned idx);

    /** Registers and starts a workload coroutine on the event queue. */
    void spawn(sim::Process process);

    /**
     * Runs the simulation until every spawned process completes, driving
     * the event queue through Machine::run().
     * fatal()s on deadlock (event queue empty, processes pending).
     * With SystemConfig::tracePath set, writes the captured
     * synchronization-operation trace there on completion.
     *
     * With SystemConfig::crashAtTick set, the run may instead stop at
     * the injected crash: the machine is marked crashed, processes stay
     * blocked mid-operation, and run() returns early — the normal
     * end-of-run bookkeeping (deadlock check, trace writeout, analysis)
     * is skipped. crashed() reports which way the run ended; the
     * durability manager's persisted image survives for recovery.
     */
    void run();

    /** True when the last run() ended at the injected crash. */
    bool crashed() const { return machine_->crashed(); }

    /** Order-key windows the last run() opened (host perf; see
     *  sim::EventQueue::windows()). */
    std::uint64_t kernelWindows() const { return kernelWindows_; }

    /**
     * Observer callbacks so far (host work, exact): records the trace
     * capture took, events the live analyzer processed, and the
     * durability manager's WAL appends and persist-hook calls. 0 when
     * no observer is installed.
     */
    std::uint64_t observerEvents() const;

    /**
     * The synchronization-operation capture installed when
     * SystemConfig::tracePath is set; nullptr when not tracing.
     */
    trace::TraceCapture *traceCapture() { return capture_.get(); }

    /**
     * The live sync-correctness analyzer installed when
     * SystemConfig::analyze is set; nullptr when not analyzing. run()
     * finishes it and (with analyzeFatal) fatal()s on findings; tests
     * seeding defects clear analyzeFatal and read analyzer()->report()
     * afterwards.
     */
    analysis::LiveAnalyzer *analyzer() { return analyzer_.get(); }

    /**
     * The durability manager installed when SystemConfig::persistMode
     * is not Off; nullptr otherwise. Holds the write-ahead log and the
     * snapshot()/walTrace() surface the crash-recovery flow consumes.
     */
    durability::DurabilityManager *durability()
    {
        return durability_.get();
    }

    /** Simulated time elapsed so far. */
    Tick elapsed() const;

    const SystemStats &stats() const { return machine_->stats(); }
    const SystemConfig &config() const { return machine_->config(); }

  private:
    std::unique_ptr<Machine> machine_;
    std::unique_ptr<sync::SyncBackend> backend_;
    engine::SynCronBackend *engineView_ = nullptr;
    std::unique_ptr<sync::SyncApi> api_;
    std::unique_ptr<trace::TraceCapture> capture_;
    std::unique_ptr<analysis::LiveAnalyzer> analyzer_;
    std::unique_ptr<durability::DurabilityManager> durability_;
    std::vector<std::unique_ptr<core::Core>> cores_; ///< client cores
    /// Declared last: coroutine frames are destroyed before the api and
    /// backend they reference (crash teardown unwinds guards mid-op).
    std::vector<sim::Process> processes_;
    std::uint64_t kernelWindows_ = 0;
};

} // namespace syncron

#endif // SYNCRON_SYSTEM_SYSTEM_HH
