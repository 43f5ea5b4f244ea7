#include "sync/registry.hh"

#include "common/log.hh"
#include "sync/backend.hh"

namespace syncron::sync {

BackendRegistry &
BackendRegistry::instance()
{
    static BackendRegistry registry;
    return registry;
}

void
BackendRegistry::add(std::string name, Factory factory)
{
    SYNCRON_ASSERT(factory != nullptr,
                   "null factory for backend '" << name << "'");
    auto [it, inserted] =
        factories_.emplace(std::move(name), std::move(factory));
    SYNCRON_ASSERT(inserted,
                   "backend '" << it->first << "' registered twice");
}

bool
BackendRegistry::contains(std::string_view name) const
{
    return factories_.find(name) != factories_.end();
}

std::unique_ptr<SyncBackend>
BackendRegistry::tryCreate(std::string_view name, Machine &machine) const
{
    auto it = factories_.find(name);
    if (it == factories_.end())
        return nullptr;
    return it->second(machine);
}

std::unique_ptr<SyncBackend>
BackendRegistry::create(std::string_view name, Machine &machine) const
{
    std::unique_ptr<SyncBackend> backend = tryCreate(name, machine);
    if (!backend) {
        SYNCRON_FATAL("unknown synchronization backend '"
                      << name << "' (known: " << knownNames() << ")");
    }
    return backend;
}

std::string
BackendRegistry::knownNames() const
{
    std::string out;
    for (const std::string &n : names()) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

std::vector<std::string>
BackendRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[name, factory] : factories_)
        out.push_back(name);
    return out; // std::map iteration is already sorted
}

BackendRegistration::BackendRegistration(const char *name,
                                         BackendRegistry::Factory factory)
{
    BackendRegistry::instance().add(name, std::move(factory));
}

} // namespace syncron::sync
