#include "system/config.hh"

#include "common/log.hh"

namespace syncron {

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Ideal: return "Ideal";
      case Scheme::Central: return "Central";
      case Scheme::Hier: return "Hier";
      case Scheme::SynCron: return "SynCron";
      case Scheme::SynCronFlat: return "SynCron-flat";
      case Scheme::SynCronCentralOvrfl: return "SynCron_CentralOvrfl";
      case Scheme::SynCronDistribOvrfl: return "SynCron_DistribOvrfl";
    }
    return "?";
}

bool
schemeFromName(std::string_view name, Scheme &out)
{
    for (Scheme s : {Scheme::Ideal, Scheme::Central, Scheme::Hier,
                     Scheme::SynCron, Scheme::SynCronFlat,
                     Scheme::SynCronCentralOvrfl,
                     Scheme::SynCronDistribOvrfl}) {
        if (name == schemeName(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

void
SystemConfig::validate() const
{
    if (numUnits < 1 || numUnits > 16)
        SYNCRON_FATAL("numUnits must be in [1, 16], got " << numUnits);
    if (coresPerUnit < 1 || coresPerUnit > 64)
        SYNCRON_FATAL("coresPerUnit must be in [1, 64], got "
                      << coresPerUnit);
    if (clientCoresPerUnit < 1 || clientCoresPerUnit > coresPerUnit)
        SYNCRON_FATAL("clientCoresPerUnit must be in [1, coresPerUnit]");
    if (stEntries < 1)
        SYNCRON_FATAL("stEntries must be >= 1");
    if (indexingCounters < 1)
        SYNCRON_FATAL("indexingCounters must be >= 1");
    if (persistEpochOps < 1)
        SYNCRON_FATAL("persistEpochOps must be >= 1");
    if (pm.writeTicks < 1)
        SYNCRON_FATAL("pm.writeTicks must be >= 1");
}

SystemConfig
SystemConfig::make(Scheme scheme, unsigned numUnits,
                   unsigned clientCoresPerUnit)
{
    SystemConfig cfg;
    cfg.scheme = scheme;
    cfg.numUnits = numUnits;
    cfg.clientCoresPerUnit = clientCoresPerUnit;
    cfg.validate();
    return cfg;
}

} // namespace syncron
