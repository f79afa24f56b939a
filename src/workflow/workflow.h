/**
 * @file
 * Function-chaining DAG workflows over shared state regions.
 *
 * A WorkflowSpec names a DAG of stages — each an invocation of a
 * deployed function — with fan-out/fan-in edges and declared region
 * reads/writes. The WorkflowEngine drives the stages through the
 * existing platform boot-tier chain on a Cluster, threading one
 * distributed trace id across machines, and prices the chain the way
 * the fabric prices everything else: a same-machine hop is a warm
 * in-memory queue hand-off (CostModel::chainLocalHop), a cross-machine
 * hop pays marshal/dispatch plus the fabric round trip, and region
 * reads on a machine with no current replica stream the region over
 * (StateRegionStore::attach). Placement is where the pricing bites:
 * with localityAware on, stages route through Cluster::routeStage so
 * NetworkAware placement sees region residency and co-schedules
 * chained stages; with it off, stages route like ordinary requests and
 * the chain pays every hop.
 *
 * Stage execution follows the virtual-clock discipline of the fleet
 * driver: a stage becomes ready when its last dependency finishes
 * (run-relative), the routed machine's clock idles forward to the
 * ready time if it leads, and fan-out stages placed on different
 * machines overlap in virtual time. The workflow's end-to-end latency
 * is the critical path, recorded into the chain.e2e_ms histogram and
 * the win.chain.e2e_ms windowed series of the final stage's machine.
 */

#ifndef CATALYZER_WORKFLOW_WORKFLOW_H
#define CATALYZER_WORKFLOW_WORKFLOW_H

#include <cstdint>
#include <string>
#include <vector>

#include "platform/cluster.h"
#include "trace/trace.h"

namespace catalyzer::workflow {

/** A state region a workflow materializes (pages sized up front). */
struct RegionDecl
{
    std::string name;
    std::size_t npages = 0;
};

/** One stage: a function invocation with edges and region accesses. */
struct StageSpec
{
    std::string name;
    /** Deployed function (apps catalog or population name). */
    std::string function;
    /** Fan-in dependencies: names of stages that must finish first. */
    std::vector<std::string> after;
    /** Regions read before the invocation (attached read-shared). */
    std::vector<std::string> reads;
    /** Regions written (COW) and published after the write pass. */
    std::vector<std::string> writes;
    /** Pages touched per read region; 0 = the whole region. */
    std::size_t readPages = 0;
    /** Pages written per write region; 0 = the whole region. */
    std::size_t writePages = 0;
};

/** A named DAG of stages. */
struct WorkflowSpec
{
    std::string name;
    std::vector<RegionDecl> regions;
    std::vector<StageSpec> stages;

    /**
     * Structural validation: unique non-empty stage names, known
     * dependency names, no self-edges, no cycles, referenced regions
     * declared. Fatal on violation.
     */
    void validate() const;

    /**
     * Topological stage order (indices into stages), stable: among
     * ready stages the lowest spec index runs first. Validates.
     */
    std::vector<std::size_t> topoOrder() const;

    /** Declared pages of @p region; 0 when undeclared. */
    std::size_t regionPages(const std::string &region) const;
};

/** Where and how one stage ran. */
struct StageOutcome
{
    std::string stage;
    std::size_t machine = 0;
    platform::InvocationRecord record;
    /** Chain hand-off cost charged before the stage (all dep edges). */
    sim::SimTime hopLatency;
    /** Region attach/fault/publish work before + around the invoke. */
    sim::SimTime stateLatency;
    /**
     * The placement-sensitive slice of stateLatency: region ensure +
     * attach cost, including any replica streamed over the fabric.
     * Fault work on the attached pages is excluded — both a local and
     * a remote placement pay it identically.
     */
    sim::SimTime attachLatency;
    /** Region bytes streamed to this stage's machine for its attaches. */
    std::size_t transferBytes = 0;
    std::size_t depsLocal = 0;
    std::size_t depsRemote = 0;
    /** Run-relative ready and finish instants (critical-path math). */
    sim::SimTime readyAt;
    sim::SimTime finishAt;
};

/** One workflow run. */
struct WorkflowResult
{
    std::string workflow;
    trace::TraceId traceId = 0;
    std::vector<StageOutcome> stages;
    /** Critical-path end-to-end latency (max stage finish). */
    sim::SimTime e2e;
    std::size_t hopsLocal = 0;
    std::size_t hopsRemote = 0;
    std::size_t transferBytes = 0;
    std::size_t cowFaults = 0;
    std::size_t readFaults = 0;
};

/** Engine knobs. */
struct WorkflowOptions
{
    /**
     * Route stages through Cluster::routeStage with region-residency
     * affinity (NetworkAware co-schedules the chain). Off routes every
     * stage like an ordinary request — the locality-blind baseline.
     */
    bool localityAware = true;
};

/** Drives WorkflowSpecs against a Cluster. */
class WorkflowEngine
{
  public:
    explicit WorkflowEngine(platform::Cluster &cluster,
                            WorkflowOptions options = {})
        : cluster_(cluster), options_(options)
    {}

    /**
     * Run @p spec once. With a disabled @p trace the run self-traces
     * into the machines' ring tracers under a fresh distributed trace
     * id; pass a pinned context for replay-deterministic exports.
     */
    WorkflowResult run(const WorkflowSpec &spec,
                       trace::TraceContext trace = {});

  private:
    platform::Cluster &cluster_;
    WorkflowOptions options_;
};

} // namespace catalyzer::workflow

#endif // CATALYZER_WORKFLOW_WORKFLOW_H
