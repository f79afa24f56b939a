/**
 * @file
 * The host-cost benchmark's fleet workloads and their set-up.
 *
 * Each workload is one FleetDriver run shaped like a flagship sweep
 * (see README.md for why each one exists). Inputs are a pure function
 * of (workload, variant, scale): the function catalog is fixed per
 * workload and the variant re-seeds the arrival tape, so the same
 * variant always replays the same fleet history and the same
 * FleetReport.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "load/driver.h"
#include "load/population.h"
#include "load/traffic.h"
#include "platform/cluster.h"

namespace perfbench {

/** Full size (the measured benchmark) or toy size (the self-test). */
enum class Scale { Full, Toy };

/** Everything that defines one workload run. */
struct Workload
{
    std::string name;
    catalyzer::load::PopulationSpec population;
    std::size_t machines = 1;
    catalyzer::platform::PlacementPolicy placement =
        catalyzer::platform::PlacementPolicy::NetworkAware;
    catalyzer::platform::PlatformConfig platform;
    catalyzer::core::CatalyzerOptions options;
    catalyzer::net::FabricConfig fabric;
    catalyzer::load::TrafficSpec traffic;
    catalyzer::load::FleetRunConfig run;
    /**
     * Images may be pre-built from outside the platform before their
     * priming invoke. False with remote images: the runtime publishes
     * only images it built itself, so a pre-built one is never found in
     * remote storage.
     */
    bool prebuildImages = true;
};

/** Names of every workload, in benchmark order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name; fatal on an unknown name. */
Workload makeWorkload(const std::string &name, std::uint64_t variant,
                      Scale scale, int workers);

/**
 * A set-up fleet. Member order matters: the cluster holds references
 * into the population's profiles, so it is destroyed first.
 */
struct Fleet
{
    std::unique_ptr<catalyzer::load::Population> population;
    std::unique_ptr<catalyzer::platform::Cluster> cluster;
    std::vector<catalyzer::load::FleetArrival> stream;
};

/**
 * Construct the population and the cluster, deploy workflow stage
 * functions and the population, and generate the arrival tape: all the
 * work a sweep does before its FleetDriver::run call.
 */
Fleet setUp(const Workload &workload);

/** Workflow stage functions, sorted and de-duplicated (priming order). */
std::vector<std::string> workflowFunctions(const Workload &workload);

/** FNV-1a 64 of FleetReport::writeJson, as 16 hex digits. */
std::string reportDigest(const catalyzer::load::FleetReport &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
