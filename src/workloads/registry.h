/**
 * @file
 * Workload registry: build the paper's benchmark suite by name.
 */

#ifndef PORTEND_WORKLOADS_REGISTRY_H
#define PORTEND_WORKLOADS_REGISTRY_H

#include <string>
#include <vector>

#include "workloads/workload.h"

namespace portend::workloads {

/** Short names accepted by buildWorkload, in Table 1 order. */
std::vector<std::string> workloadNames();

/**
 * Input-sensitive extension workloads (outside the paper's Table 1
 * population, so Table 3 accounting over workloadNames() is
 * unchanged): accepted by buildWorkload and listed by the CLI, each
 * upgrading its verdict only under --sym-input.
 */
std::vector<std::string> extensionWorkloadNames();

/**
 * Build one workload by short name ("sqlite", "ocean", "fmm",
 * "memcached", "pbzip2", "ctrace", "bbuf", "avv", "dcl", "dbm",
 * "rw"); fatal on unknown names.
 */
Workload buildWorkload(const std::string &name);

} // namespace portend::workloads

#endif // PORTEND_WORKLOADS_REGISTRY_H
