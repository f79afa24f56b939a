#include "load/population.h"

#include <cmath>
#include <cstdio>

#include "sim/logging.h"
#include "sim/rng.h"

namespace catalyzer::load {

using namespace sim::time_literals;

namespace {

/** Lightweight language archetypes the synthetic profiles derive from.
 *  Sizes are deliberately small next to the paper catalog: a fleet run
 *  boots thousands of these, and the *distribution* of boot costs — not
 *  any single function's absolute latency — is what the experiments
 *  score. */
struct Archetype
{
    const char *tag;
    apps::Language language;
    sim::SimTime runtimeBoot;
    std::size_t modules;
    sim::SimTime perModule;
    sim::SimTime appSetup;
    std::size_t binaryPages;
    std::size_t runtimeHeapPages;
    std::size_t appHeapPages;
    std::size_t kernelObjects;
    std::size_t ioConnections;
    sim::SimTime execCompute;
};

const Archetype kArchetypes[] = {
    // clang-format off
    {"c-fn",    apps::Language::C,      1_ms,   8, 0.02_ms,  0.5_ms,
     48,  64, 96, 700, 2, 0.6_ms},
    {"py-api",  apps::Language::Python, 8_ms, 140, 0.05_ms,  2_ms,
     96, 384, 192, 1600, 4, 1.2_ms},
    {"node-api",apps::Language::NodeJs, 5_ms, 220, 0.03_ms,  1.5_ms,
     128, 512, 256, 2000, 4, 0.9_ms},
    {"java-svc",apps::Language::Java,  40_ms, 900, 0.04_ms,  6_ms,
     160, 768, 384, 2800, 6, 2.4_ms},
    // clang-format on
};

/** Jitter @p base by +/- @p spread (relative), never below 1. */
std::size_t
jitterSize(sim::Rng &rng, std::size_t base, double spread)
{
    const double factor = 1.0 + rng.uniform(-spread, spread);
    const double v = std::max(1.0, static_cast<double>(base) * factor);
    return static_cast<std::size_t>(v);
}

/** Set every function's baseRps to its Zipf share of @p total_rps by
 *  its rank: share(rank) ~ 1 / (rank + 1)^skew over ranks 1..N. */
void
assignZipfShares(std::vector<FleetFunction> &functions, double total_rps,
                 double skew)
{
    double norm = 0.0;
    for (std::size_t r = 0; r < functions.size(); ++r)
        norm += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    for (FleetFunction &fn : functions)
        fn.baseRps =
            total_rps *
            (1.0 / std::pow(static_cast<double>(fn.rank + 1), skew)) /
            norm;
}

} // namespace

Population::Population(PopulationSpec spec) : spec_(std::move(spec))
{
    if (spec_.functions == 0)
        sim::fatal("Population: need at least one function");
    if (spec_.tenants == 0)
        spec_.tenants = 1;

    // Seeded rank permutation (Fisher-Yates): rank[i] is the popularity
    // rank of function i, decoupled from creation order.
    std::vector<std::size_t> rank(spec_.functions);
    for (std::size_t i = 0; i < rank.size(); ++i)
        rank[i] = i;
    sim::Rng shuffle_rng(spec_.seed ^ 0x5eedb100dULL);
    for (std::size_t i = rank.size(); i > 1; --i) {
        const std::size_t j = shuffle_rng.uniformInt(i);
        std::swap(rank[i - 1], rank[j]);
    }

    sim::Rng jitter_rng(spec_.seed ^ 0xa5a5a5a5ULL);
    functions_.reserve(spec_.functions);
    for (std::size_t i = 0; i < spec_.functions; ++i) {
        const Archetype &arch =
            kArchetypes[i % (sizeof kArchetypes / sizeof kArchetypes[0])];
        const std::size_t tenant = i % spec_.tenants;

        char buf[64];
        std::snprintf(buf, sizeof buf, "%s/fn-%04zu-%s",
                      tenantName(tenant).c_str(), i, arch.tag);

        apps::AppProfile profile;
        profile.name = buf;
        profile.displayName = profile.name;
        profile.language = arch.language;
        profile.suite = apps::Suite::Micro;
        profile.runtimeBootCost = arch.runtimeBoot;
        profile.modulesLoaded = jitterSize(jitter_rng, arch.modules, 0.25);
        profile.perModuleCost = arch.perModule;
        profile.appSetupCost = arch.appSetup;
        profile.binaryPages = jitterSize(jitter_rng, arch.binaryPages, 0.2);
        profile.runtimeHeapPages =
            jitterSize(jitter_rng, arch.runtimeHeapPages, 0.25);
        profile.appHeapPages =
            jitterSize(jitter_rng, arch.appHeapPages, 0.4);
        profile.kernelObjects =
            jitterSize(jitter_rng, arch.kernelObjects, 0.2);
        profile.ioConnections = arch.ioConnections;
        profile.execComputeCost = arch.execCompute;
        // Small rootfs: a fleet deploys thousands of these per machine.
        profile.rootfsFiles = 6;
        profile.rootfsBytes = 1u << 20;
        profiles_.push_back(std::move(profile));

        FleetFunction fn;
        fn.name = profiles_.back().name;
        fn.index = i;
        fn.tenant = tenant;
        fn.rank = rank[i];
        fn.profile = &profiles_.back();
        functions_.push_back(std::move(fn));
    }
    assignZipfShares(functions_, spec_.totalRps, spec_.zipfSkew);
}

Population::Population(std::vector<const apps::AppProfile *> profiles,
                       double total_rps, double skew)
{
    if (profiles.empty())
        sim::fatal("Population: need at least one function");
    spec_.functions = profiles.size();
    spec_.tenants = 1;
    spec_.totalRps = total_rps;
    spec_.zipfSkew = skew;

    functions_.reserve(profiles.size());
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        FleetFunction fn;
        fn.name = profiles[i]->name;
        fn.index = i;
        fn.rank = i;
        fn.profile = profiles[i];
        functions_.push_back(std::move(fn));
    }
    assignZipfShares(functions_, total_rps, skew);
}

std::string
Population::tenantName(std::size_t tenant)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "t%03zu", tenant);
    return buf;
}

void
Population::deployTo(platform::Cluster &cluster) const
{
    for (const FleetFunction &fn : functions_)
        cluster.deploy(*fn.profile);
}

void
Population::deployTo(platform::ServerlessPlatform &platform,
                     const FleetFunction &fn) const
{
    if (platform.registry().find(fn.name) == nullptr)
        platform.deploy(*fn.profile);
}

} // namespace catalyzer::load
