/**
 * @file
 * Content-addressed image store: chunk dedup + tiered cache ladder.
 *
 * Two experiments over the fleet's synthetic polyglot population
 * (load::Population — C / Python / Node / Java archetypes, sizes
 * jittered per function):
 *
 *  1. **Dedup sweep** — a cold machine fetches every func-image in the
 *     catalog through the content-addressed store. Chunks shared across
 *     images (the language runtime's heap, the shared-library slice of
 *     the app heap) cross the network once and are served from the
 *     local RAM/SSD tiers afterwards, so the bytes actually transferred
 *     collapse relative to the whole-image total. Reported per language
 *     archetype and overall as the dedup ratio
 *     (whole-image bytes / bytes transferred).
 *
 *  2. **Tier ladder** — the same image fetched cold through each tier:
 *     origin repository (shared blob store bandwidth), same-rack peer
 *     (advertised in the chunk directory), local SSD cache (after
 *     memory pressure demoted the RAM tier) and local RAM. Latencies
 *     must be strictly ordered ram < ssd < peer < origin, which is the
 *     whole point of the ladder.
 *
 * Outputs:
 *   - fig_image_dedup.json             per-language dedup rows, totals,
 *                                      tier-ladder latencies
 *   - fig_image_dedup.timeseries.json  win.image.* windowed series of
 *                                      the sweep machine
 *
 * Scale knob (env): IMAGE_DEDUP_FUNCTIONS (default 1200; CI smoke runs
 * a reduced catalog). The release gate (FIG_IMAGE_DEDUP_ASSERT=1) turns
 * the scripted expectations into failures — chiefly a >= 3x dedup
 * ratio at full scale and peer cold-fetch beating origin.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "load/population.h"
#include "net/fabric.h"
#include "remote/template_registry.h"
#include "sandbox/pipelines.h"
#include "sim/json.h"
#include "sim/table.h"
#include "snapshot/image_store.h"

using namespace catalyzer;
using bench::envSize;
using bench::failures;

namespace {

double
toMiB(std::size_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::string
fmt(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return buf;
}

/** One per-language row of the dedup sweep. */
struct DedupRow
{
    std::string language;
    std::size_t functions = 0;
    std::size_t wholeBytes = 0;
    std::size_t transferredBytes = 0;

    double ratio() const
    {
        return static_cast<double>(wholeBytes) /
               static_cast<double>(std::max<std::size_t>(
                   transferredBytes, 1));
    }
};

/**
 * Publish @p image into @p store as catalog metadata only: the remote
 * side knows it, but no local copy and no seeded chunk tiers — the
 * state of a machine that has never fetched it. (publish() with
 * chunking enabled seeds the producer's tiers, which is right for the
 * producer and wrong for a cold consumer.)
 */
void
publishCold(snapshot::ImageStore &store,
            std::shared_ptr<snapshot::FuncImage> image)
{
    const std::string name = image->functionName();
    const snapshot::ImageFormat format = image->format();
    store.publish(std::move(image));
    store.evictLocal(name, format);
}

} // namespace

int
main()
{
    bench::banner("image-dedup",
                  "content-addressed chunk store: cross-image dedup "
                  "and the RAM/SSD/peer/origin tier ladder");

    const std::size_t functions = envSize("IMAGE_DEDUP_FUNCTIONS", 1200);

    load::PopulationSpec spec;
    spec.functions = functions;
    spec.tenants = 40;
    spec.totalRps = 1000.0; // irrelevant here: only the catalog is used
    spec.seed = 7;
    load::Population population(spec);

    snapshot::ChunkStoreConfig chunk_config;
    chunk_config.enabled = true;
    chunk_config.ramBudgetBytes = 256u << 20;
    chunk_config.ssdBudgetBytes = std::size_t{4} << 30;

    //
    // Phase 1: dedup sweep. A single cold machine fetches the whole
    // catalog from origin, language by language so each archetype's
    // transferred bytes can be read off the counters between groups.
    // (Cross-language sharing is ~zero by construction, so grouping
    // does not shift bytes between rows.)
    //
    sandbox::Machine sweep_machine(1);
    sandbox::FunctionRegistry sweep_registry(sweep_machine);
    snapshot::ImageStore sweep_store(sweep_machine.ctx());
    std::map<std::string, std::vector<const load::FleetFunction *>>
        by_language;
    for (const load::FleetFunction &fn : population.functions())
        by_language[apps::languageName(fn.profile->language)]
            .push_back(&fn);
    for (const auto &[lang, fns] : by_language) {
        for (const load::FleetFunction *fn : fns)
            publishCold(sweep_store,
                        sandbox::ensureSeparatedImage(
                            sweep_registry.artifactsFor(*fn->profile)));
    }
    // Enabled only now: the catalog above went in as cold metadata.
    sweep_store.configureChunks(chunk_config);

    sim::StatRegistry &sweep_stats = sweep_machine.ctx().stats();
    std::vector<DedupRow> rows;
    DedupRow total;
    total.language = "all";
    for (const auto &[lang, fns] : by_language) {
        DedupRow row;
        row.language = lang;
        const auto before = static_cast<std::size_t>(
            sweep_stats.value("image.chunks.bytes_transferred"));
        for (const load::FleetFunction *fn : fns) {
            auto image = sweep_store.fetch(
                fn->name, snapshot::ImageFormat::SeparatedWellFormed);
            if (!image) {
                std::fprintf(stderr,
                             "fig_image_dedup: fetch(%s) failed\n",
                             fn->name.c_str());
                return 1;
            }
            ++row.functions;
            row.wholeBytes +=
                mem::bytesForPages(image->totalPages());
        }
        row.transferredBytes =
            static_cast<std::size_t>(sweep_stats.value(
                "image.chunks.bytes_transferred")) -
            before;
        total.functions += row.functions;
        total.wholeBytes += row.wholeBytes;
        total.transferredBytes += row.transferredBytes;
        rows.push_back(row);
    }

    std::printf("dedup sweep: %zu functions, one cold machine\n\n",
                total.functions);
    sim::TextTable table;
    table.setHeader({"archetype", "functions", "whole MiB",
                     "transferred MiB", "dedup ratio"});
    for (const DedupRow &row : rows)
        table.addRow({row.language, std::to_string(row.functions),
                      fmt(toMiB(row.wholeBytes)),
                      fmt(toMiB(row.transferredBytes)),
                      fmt(row.ratio())});
    table.addRow({total.language, std::to_string(total.functions),
                  fmt(toMiB(total.wholeBytes)),
                  fmt(toMiB(total.transferredBytes)),
                  fmt(total.ratio())});
    table.print(std::cout);

    //
    // Phase 2: tier ladder. One mid-size image fetched cold through
    // each tier on fresh machines sharing a chunk directory.
    //
    const apps::AppProfile &ladder_app = apps::appByName("python-django");
    net::Fabric fabric; // flat-compat: rtt/streamCost are still modeled
    remote::TemplateRegistry directory(&fabric);

    // Producer (node 0): publish seeds its tiers and advertises chunks.
    sandbox::Machine producer(2);
    sandbox::FunctionRegistry producer_registry(producer);
    snapshot::ImageStore producer_store(producer.ctx());
    producer_store.configureChunks(chunk_config);
    producer_store.attachFabric(&fabric, 0, &directory, &directory);
    producer_store.publish(sandbox::ensureSeparatedImage(
        producer_registry.artifactsFor(ladder_app)));

    auto timedFetch = [&](sandbox::Machine &machine,
                          snapshot::ImageStore &store) {
        const sim::SimTime before = machine.ctx().now();
        auto image = store.fetch(
            ladder_app.name, snapshot::ImageFormat::SeparatedWellFormed);
        if (!image) {
            std::fprintf(stderr,
                         "fig_image_dedup: ladder fetch failed\n");
            std::exit(1);
        }
        return (machine.ctx().now() - before).toMs();
    };

    // Origin: a machine with no chunk directory streams from the repo.
    sandbox::Machine origin_machine(3);
    sandbox::FunctionRegistry origin_registry(origin_machine);
    snapshot::ImageStore origin_store(origin_machine.ctx());
    publishCold(origin_store, sandbox::ensureSeparatedImage(
                                  origin_registry.artifactsFor(
                                      ladder_app)));
    origin_store.configureChunks(chunk_config);
    const double origin_ms = timedFetch(origin_machine, origin_store);

    // Peer: node 1 shares the producer's rack and chunk directory.
    sandbox::Machine peer_machine(4);
    sandbox::FunctionRegistry peer_registry(peer_machine);
    snapshot::ImageStore peer_store(peer_machine.ctx());
    publishCold(peer_store, sandbox::ensureSeparatedImage(
                                peer_registry.artifactsFor(ladder_app)));
    peer_store.configureChunks(chunk_config);
    peer_store.attachFabric(&fabric, 1, &directory, &directory);
    const double peer_ms = timedFetch(peer_machine, peer_store);

    // SSD: memory pressure demotes the peer fetch's RAM tier, then the
    // refetch assembles the image off the local SSD cache.
    peer_store.relieveMemoryPressure();
    peer_store.evictLocal(ladder_app.name,
                          snapshot::ImageFormat::SeparatedWellFormed);
    const double ssd_ms = timedFetch(peer_machine, peer_store);

    // RAM: the SSD hits promoted everything back; refetch from memory.
    peer_store.evictLocal(ladder_app.name,
                          snapshot::ImageFormat::SeparatedWellFormed);
    const double ram_ms = timedFetch(peer_machine, peer_store);

    std::printf("\ntier ladder, cold fetch of %s (%.2f MiB):\n\n",
                ladder_app.name.c_str(),
                toMiB(mem::bytesForPages(
                    producer_store
                        .fetch(ladder_app.name,
                               snapshot::ImageFormat::SeparatedWellFormed)
                        ->totalPages())));
    sim::TextTable ladder;
    ladder.setHeader({"tier", "fetch ms"});
    ladder.addRow({"RAM cache", fmt(ram_ms)});
    ladder.addRow({"local SSD", fmt(ssd_ms)});
    ladder.addRow({"same-rack peer", fmt(peer_ms)});
    ladder.addRow({"origin repo", fmt(origin_ms)});
    ladder.print(std::cout);

    {
        std::ofstream os("fig_image_dedup.json");
        if (!os) {
            std::fprintf(stderr,
                         "fig_image_dedup: cannot write json\n");
            return 1;
        }
        os << "{\n  \"config\": {\"functions\": " << total.functions
           << ", \"chunk_ram_budget_mib\": ";
        sim::writeJsonNumber(os, toMiB(chunk_config.ramBudgetBytes));
        os << ", \"chunk_ssd_budget_mib\": ";
        sim::writeJsonNumber(os, toMiB(chunk_config.ssdBudgetBytes));
        os << "},\n  \"dedup\": [";
        bool first = true;
        for (const DedupRow &row : rows) {
            os << (first ? "\n" : ",\n") << "    {\"archetype\": \""
               << row.language << "\", \"functions\": "
               << row.functions << ", \"whole_mib\": ";
            sim::writeJsonNumber(os, toMiB(row.wholeBytes));
            os << ", \"transferred_mib\": ";
            sim::writeJsonNumber(os, toMiB(row.transferredBytes));
            os << ", \"dedup_ratio\": ";
            sim::writeJsonNumber(os, row.ratio());
            os << "}";
            first = false;
        }
        os << "\n  ],\n  \"total\": {\"whole_mib\": ";
        sim::writeJsonNumber(os, toMiB(total.wholeBytes));
        os << ", \"transferred_mib\": ";
        sim::writeJsonNumber(os, toMiB(total.transferredBytes));
        os << ", \"dedup_ratio\": ";
        sim::writeJsonNumber(os, total.ratio());
        os << "},\n  \"tier_ladder_ms\": {\"ram\": ";
        sim::writeJsonNumber(os, ram_ms);
        os << ", \"ssd\": ";
        sim::writeJsonNumber(os, ssd_ms);
        os << ", \"peer\": ";
        sim::writeJsonNumber(os, peer_ms);
        os << ", \"origin\": ";
        sim::writeJsonNumber(os, origin_ms);
        os << "}\n}\n";
        std::printf("\nwrote fig_image_dedup.json\n");
    }
    {
        std::ofstream os("fig_image_dedup.timeseries.json");
        if (!os) {
            std::fprintf(stderr,
                         "fig_image_dedup: cannot write timeseries\n");
            return 1;
        }
        sweep_stats.writeTimeSeriesJson(os);
        std::printf("wrote fig_image_dedup.timeseries.json\n");
    }

    const char *gate = std::getenv("FIG_IMAGE_DEDUP_ASSERT");
    const bool assert_mode = gate != nullptr && std::string(gate) == "1";
    std::printf("\nscripted expectations%s:\n",
                assert_mode ? " (asserting)" : "");
    int failed = 0;
    const bool at_scale = total.functions >= 1000;
    if (assert_mode || at_scale)
        failed += failures(assert_mode, at_scale,
                           "catalog scale: >= 1000 functions in the "
                           "dedup sweep");
    else
        std::printf("  [reduced] catalog scale check skipped "
                    "(IMAGE_DEDUP_FUNCTIONS below the full-scale "
                    "floor)\n");
    failed += failures(assert_mode, total.ratio() >= 3.0,
                       "chunk dedup cuts fetched bytes >= 3x vs "
                       "whole-image transfer");
    failed += failures(assert_mode, peer_ms < origin_ms,
                       "same-rack peer cold fetch beats the origin "
                       "repository");
    failed += failures(assert_mode,
                       ram_ms < ssd_ms && ssd_ms < peer_ms,
                       "tier ladder is monotone: ram < ssd < peer");

    bench::footer();
    return failed == 0 ? 0 : 1;
}
