#include "workloads/registry.h"

#include "support/logging.h"

namespace portend::workloads {

std::vector<std::string>
workloadNames()
{
    return {"sqlite", "ocean",  "fmm",  "memcached", "pbzip2",
            "ctrace", "bbuf",   "avv",  "dcl",       "dbm",
            "rw"};
}

std::vector<std::string>
extensionWorkloadNames()
{
    return {"ibuf", "iguard"};
}

Workload
buildWorkload(const std::string &name)
{
    if (name == "sqlite")
        return buildSqlite();
    if (name == "ocean")
        return buildOcean();
    if (name == "fmm")
        return buildFmm();
    if (name == "memcached")
        return buildMemcached();
    if (name == "memcached-whatif")
        return buildMemcached(true);
    if (name == "pbzip2")
        return buildPbzip2();
    if (name == "ctrace")
        return buildCtrace();
    if (name == "bbuf")
        return buildBbuf();
    if (name == "avv")
        return buildMicroAvv();
    if (name == "dcl")
        return buildMicroDcl();
    if (name == "dbm")
        return buildMicroDbm();
    if (name == "rw")
        return buildMicroRw();
    if (name == "ibuf")
        return buildSymBuf();
    if (name == "iguard")
        return buildSymGuard();
    PORTEND_FATAL("unknown workload '", name, "'");
}

} // namespace portend::workloads
