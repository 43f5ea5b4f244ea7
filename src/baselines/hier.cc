#include "baselines/hier.hh"

// HierBackend is a thin configuration of engine::SynCronBackend (the
// hierarchical protocol is shared; only the station cost model differs).

#include "sync/registry.hh"

namespace syncron::baselines {

SYNCRON_REGISTER_BACKEND("Hier", [](Machine &m) {
    return std::make_unique<HierBackend>(m);
});

} // namespace syncron::baselines
