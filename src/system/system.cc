#include "system/system.hh"

#include <iostream>
#include <sstream>

#include "analysis/live.hh"
#include "common/log.hh"
#include "durability/backend.hh"
#include "durability/manager.hh"
#include "sync/registry.hh"
#include "trace/capture.hh"
#include "trace/format.hh"

namespace syncron {

NdpSystem::NdpSystem(const SystemConfig &cfg)
    : machine_(std::make_unique<Machine>(cfg))
{
    // Backend selection is fully name-driven: the registry instantiates
    // whatever backend is registered under the configured name (by
    // default the scheme's canonical name), so new schemes plug in
    // without touching this file.
    const SystemConfig &conf = machine_->config();
    const std::string name = conf.backendName.empty()
                                 ? schemeName(conf.scheme)
                                 : conf.backendName;
    backend_ = sync::BackendRegistry::instance().create(name, *machine_);
    engineView_ = dynamic_cast<engine::SynCronBackend *>(backend_.get());
    if (conf.persistMode != durability::PersistMode::Off) {
        durability_ =
            std::make_unique<durability::DurabilityManager>(*machine_);
        // SE-based backends mirror station state transitions into the
        // PM path; backends with no engine (Central et al.) are covered
        // by the WAL observer + (in Eager mode) the decorator below.
        if (engineView_ != nullptr)
            engineView_->setPersistHook(durability_.get());
        if (conf.persistMode == durability::PersistMode::Eager) {
            // Eager: every acquire-type request pays the PM write
            // before the backend may service it.
            backend_ = std::make_unique<durability::PersistingBackend>(
                std::move(backend_), *machine_, *durability_);
        }
    }
    api_ = std::make_unique<sync::SyncApi>(*machine_, *backend_);
    if (!conf.tracePath.empty()) {
        capture_ = std::make_unique<trace::TraceCapture>(conf);
        api_->setTraceSink(capture_.get());
    }
    if (conf.analyze) {
        analyzer_ = std::make_unique<analysis::LiveAnalyzer>(conf);
        api_->setObserver(analyzer_.get());
    }
    if (durability_ != nullptr)
        api_->addAuxObserver(durability_.get());

    const SystemConfig &c = machine_->config();
    cores_.reserve(c.totalClientCores());
    for (unsigned u = 0; u < c.numUnits; ++u) {
        for (unsigned l = 0; l < c.clientCoresPerUnit; ++l) {
            // Core-ID layout contract: see
            // SystemConfig::denseClientIndex(), which inverts this.
            const CoreId id = u * c.coresPerUnit + l;
            cores_.push_back(
                std::make_unique<core::Core>(*machine_, id, u, l));
        }
    }
}

NdpSystem::~NdpSystem() = default;

unsigned
NdpSystem::numClientCores() const
{
    return static_cast<unsigned>(cores_.size());
}

core::Core &
NdpSystem::clientCore(unsigned idx)
{
    SYNCRON_ASSERT(idx < cores_.size(), "client core index out of range: "
                                            << idx);
    return *cores_[idx];
}

void
NdpSystem::spawn(sim::Process process)
{
    process.start(machine_->eq());
    processes_.push_back(std::move(process));
}

void
NdpSystem::run()
{
    const SystemConfig &cfg = machine_->config();
    const std::uint64_t windowsBefore = machine_->windows();
    machine_->run(cfg.crashAtTick != 0 ? cfg.crashAtTick : kTickNever);
    kernelWindows_ = machine_->windows() - windowsBefore;
    if (cfg.crashAtTick != 0) {
        bool pending = false;
        for (const sim::Process &p : processes_) {
            if (!p.done()) {
                pending = true;
                break;
            }
        }
        if (pending) {
            // The injected crash fired mid-run: tear the machine down
            // where it stands. Nothing past the crash tick happened —
            // no trace writeout, no analysis, no stat finalization;
            // only the durability manager's persisted image survives.
            machine_->markCrashed();
            if (durability_ != nullptr)
                durability_->noteCrash(machine_->eq().now());
            return;
        }
        // The run finished before the crash tick; fall through to the
        // normal end-of-run path.
    }
    for (const sim::Process &p : processes_) {
        if (!p.done()) {
            SYNCRON_FATAL(
                "deadlock: event queue drained with "
                << processes_.size()
                << " processes spawned but at least one still blocked "
                   "(scheme "
                << backend_->name() << ")");
        }
    }
    if (engineView_ != nullptr)
        engineView_->finalizeStats();
    if (durability_ != nullptr)
        durability_->shutdownFlush();
    if (capture_ != nullptr) {
        trace::writeTraceFile(capture_->trace(),
                              machine_->config().tracePath);
    }
    if (analyzer_ != nullptr && !analyzer_->finished()) {
        const analysis::AnalysisReport &report = analyzer_->finish();
        if (!report.clean()) {
            std::ostringstream os;
            report.print(os);
            if (machine_->config().analyzeFatal) {
                SYNCRON_FATAL("sync-correctness analysis failed:\n"
                              << os.str());
            }
            std::cerr << os.str();
        }
    }
}

std::uint64_t
NdpSystem::observerEvents() const
{
    std::uint64_t n = 0;
    if (capture_)
        n += capture_->trace().records.size();
    if (analyzer_)
        n += analyzer_->events();
    if (durability_)
        n += durability_->callbacks();
    return n;
}

Tick
NdpSystem::elapsed() const
{
    return machine_->eq().now();
}

} // namespace syncron
