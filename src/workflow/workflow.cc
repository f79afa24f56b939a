#include "workflow/workflow.h"

#include <algorithm>
#include <map>
#include <memory>

#include "mem/types.h"
#include "sandbox/machine.h"
#include "sim/logging.h"
#include "sim/metric_catalog.h"
#include "state/state_region.h"

namespace catalyzer::workflow {

namespace {

/** Stage index by name; fatal duplicates handled in validate(). */
std::map<std::string, std::size_t>
stageIndex(const WorkflowSpec &spec)
{
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < spec.stages.size(); ++i)
        index.emplace(spec.stages[i].name, i);
    return index;
}

/**
 * One attached region view of a running stage: the fault accounting,
 * the consumer address space layered over the region's shared base,
 * and the attachment handle. Declaration order matters — the space
 * must be destroyed before the observer it reports into.
 */
struct RegionView
{
    RegionView(sim::SimContext &ctx, mem::FrameStore &frames,
               std::string label)
        : faults(ctx.stats()), space(ctx, frames, std::move(label))
    {
        space.setFaultObserver(&faults);
    }

    state::RegionFaultStats faults;
    mem::AddressSpace space;
    state::RegionAttachment handle;
    mem::PageIndex va = 0;
    std::string region;
    bool write = false;
};

} // namespace

void
WorkflowSpec::validate() const
{
    if (stages.empty())
        sim::fatal("workflow %s: no stages", name.c_str());
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < stages.size(); ++i) {
        const StageSpec &stage = stages[i];
        if (stage.name.empty())
            sim::fatal("workflow %s: stage %zu unnamed", name.c_str(), i);
        if (stage.function.empty())
            sim::fatal("workflow %s: stage %s has no function",
                       name.c_str(), stage.name.c_str());
        if (!index.emplace(stage.name, i).second)
            sim::fatal("workflow %s: duplicate stage %s", name.c_str(),
                       stage.name.c_str());
    }
    for (const StageSpec &stage : stages) {
        for (const std::string &dep : stage.after) {
            if (dep == stage.name)
                sim::fatal("workflow %s: stage %s depends on itself",
                           name.c_str(), stage.name.c_str());
            if (index.count(dep) == 0)
                sim::fatal("workflow %s: stage %s depends on unknown "
                           "stage %s",
                           name.c_str(), stage.name.c_str(), dep.c_str());
        }
        for (const std::vector<std::string> *regs :
             {&stage.reads, &stage.writes}) {
            for (const std::string &region : *regs) {
                if (regionPages(region) == 0)
                    sim::fatal("workflow %s: stage %s references "
                               "undeclared region %s",
                               name.c_str(), stage.name.c_str(),
                               region.c_str());
            }
        }
    }
    topoOrder(); // cycle check
}

std::vector<std::size_t>
WorkflowSpec::topoOrder() const
{
    const std::map<std::string, std::size_t> index = stageIndex(*this);
    std::vector<std::size_t> indegree(stages.size(), 0);
    for (const StageSpec &stage : stages) {
        for (const std::string &dep : stage.after) {
            auto it = index.find(dep);
            if (it == index.end() || stages[it->second].name == stage.name)
                continue; // validate() reports these precisely
            ++indegree[index.at(stage.name)];
        }
    }
    std::vector<std::size_t> order;
    std::vector<bool> done(stages.size(), false);
    order.reserve(stages.size());
    // O(n^2) stable Kahn: n is tiny and the lowest ready index first
    // keeps replay order deterministic and independent of map layout.
    for (std::size_t step = 0; step < stages.size(); ++step) {
        std::size_t pick = stages.size();
        for (std::size_t i = 0; i < stages.size(); ++i) {
            if (!done[i] && indegree[i] == 0) {
                pick = i;
                break;
            }
        }
        if (pick == stages.size())
            sim::fatal("workflow %s: dependency cycle", name.c_str());
        done[pick] = true;
        order.push_back(pick);
        for (std::size_t i = 0; i < stages.size(); ++i) {
            if (done[i])
                continue;
            for (const std::string &dep : stages[i].after) {
                if (dep == stages[pick].name)
                    --indegree[i];
            }
        }
    }
    return order;
}

std::size_t
WorkflowSpec::regionPages(const std::string &region) const
{
    for (const RegionDecl &decl : regions) {
        if (decl.name == region)
            return decl.npages;
    }
    return 0;
}

WorkflowResult
WorkflowEngine::run(const WorkflowSpec &spec, trace::TraceContext trace)
{
    spec.validate();
    state::StateRegionStore &store = cluster_.stateRegions();
    const std::size_t machines = cluster_.machineCount();
    const std::map<std::string, std::size_t> index = stageIndex(spec);

    // One distributed trace id threads every hop; with no caller trace
    // the stages self-trace into the machines' always-on rings.
    trace::TraceId tid = trace.traceId();
    if (tid == 0)
        tid = trace::nextTraceId();

    // Replay is run-relative: machine m's image of workflow time t is
    // start[m] + t, the fleet-driver convention, so machines whose
    // clocks diverged before this run still line up.
    std::vector<sim::SimTime> start(machines);
    for (std::size_t m = 0; m < machines; ++m)
        start[m] = cluster_.machine(m).ctx().clock().now();

    WorkflowResult result;
    result.workflow = spec.name;
    result.traceId = tid;
    result.stages.resize(spec.stages.size());

    std::vector<sim::SimTime> finish(spec.stages.size());
    std::vector<std::size_t> placed(spec.stages.size(), 0);

    for (std::size_t i : spec.topoOrder()) {
        const StageSpec &stage = spec.stages[i];
        StageOutcome &out = result.stages[i];
        out.stage = stage.name;

        sim::SimTime ready;
        for (const std::string &dep : stage.after)
            ready = std::max(ready, finish[index.at(dep)]);
        out.readyAt = ready;

        std::size_t target;
        if (options_.localityAware) {
            // Region residency is the affinity signal: a machine
            // already holding the stage's regions saves their
            // transfer; a dependency's machine saves the hop.
            std::vector<std::size_t> affinity(machines, 0);
            for (const std::vector<std::string> *regs :
                 {&stage.reads, &stage.writes}) {
                for (const std::string &region : *regs) {
                    if (!store.exists(region))
                        continue;
                    const std::size_t bytes =
                        mem::bytesForPages(store.regionPages(region));
                    for (net::NodeId holder : store.holders(region)) {
                        if (holder < machines)
                            affinity[holder] += bytes;
                    }
                }
            }
            for (const std::string &dep : stage.after)
                affinity[placed[index.at(dep)]] += mem::kPageSize;
            target = cluster_.routeStage(stage.function, affinity);
        } else {
            target = cluster_.route(stage.function);
        }
        placed[i] = target;
        out.machine = target;

        sandbox::Machine &m = cluster_.machine(target);
        sim::SimContext &ctx = m.ctx();
        {
            const sim::SimTime at = start[target] + ready;
            if (ctx.clock().now() < at)
                ctx.clock().advance(at - ctx.clock().now());
        }

        trace::TraceContext stage_trace(m.tracer(), ctx.clock(), 0, tid);
        trace::ScopedSpan span(stage_trace, "chain-stage");
        span.attr("workflow", spec.name);
        span.attr("stage", stage.name);
        span.attr("machine", static_cast<std::int64_t>(target));

        // Chain hand-off: every dependency edge is one hop into this
        // stage. Same machine = warm in-memory queue; cross machine =
        // marshal/dispatch plus the fabric round trip.
        const sim::SimTime hops_begin = ctx.now();
        for (const std::string &dep : stage.after) {
            const std::size_t from = placed[index.at(dep)];
            if (from == target) {
                ctx.chargeCounted(metrics::kChainHopsLocal,
                                  ctx.costs().chainLocalHop);
                ++out.depsLocal;
                ++result.hopsLocal;
            } else {
                ctx.chargeCounted(metrics::kChainHopsRemote,
                                  ctx.costs().chainRemoteDispatch);
                ctx.charge(cluster_.fabric().rtt(
                    static_cast<net::NodeId>(from),
                    static_cast<net::NodeId>(target), ctx.costs()));
                ++out.depsRemote;
                ++result.hopsRemote;
            }
        }
        out.hopLatency = ctx.now() - hops_begin;

        // Region plumbing. Reads attach (streaming the region over if
        // this machine holds no current replica) and fault the shared
        // layer before the invoke; writes COW after it — the function
        // computes, then its output pages publish as a new version.
        const std::int64_t transfers_before =
            ctx.stats().value(metrics::kStateTransferBytes);
        sim::SimTime state_latency;
        sim::SimTime attach_latency;
        std::vector<std::unique_ptr<RegionView>> views;
        auto viewFor = [&](const std::string &region,
                           bool will_write) -> RegionView & {
            for (auto &view : views) {
                if (view->region == region) {
                    view->write = view->write || will_write;
                    return *view;
                }
            }
            const sim::SimTime attach_begin = ctx.now();
            if (!store.exists(region))
                store.ensure(region, spec.regionPages(region),
                             static_cast<net::NodeId>(target));
            auto view = std::make_unique<RegionView>(
                ctx, m.frames(),
                "wf/" + spec.name + "/" + stage.name + "/" + region);
            view->region = region;
            view->write = will_write;
            view->handle =
                store.attach(region, static_cast<net::NodeId>(target),
                             span.context());
            attach_latency += ctx.now() - attach_begin;
            view->va = view->space.attachBase(view->handle.base());
            views.push_back(std::move(view));
            return *views.back();
        };

        {
            const sim::SimTime t0 = ctx.now();
            for (const std::string &region : stage.reads) {
                RegionView &view = viewFor(
                    region,
                    std::find(stage.writes.begin(), stage.writes.end(),
                              region) != stage.writes.end());
                const std::size_t npages = view.handle.npages();
                const std::size_t n =
                    stage.readPages > 0 ? std::min(stage.readPages, npages)
                                        : npages;
                view.space.touchRange(view.va, n, /*write=*/false);
            }
            state_latency += ctx.now() - t0;
        }

        out.record =
            cluster_.invokeOn(target, stage.function, span.context())
                .record;

        {
            const sim::SimTime t0 = ctx.now();
            for (const std::string &region : stage.writes) {
                RegionView &view = viewFor(region, true);
                const std::size_t npages = view.handle.npages();
                const std::size_t n =
                    stage.writePages > 0
                        ? std::min(stage.writePages, npages)
                        : npages;
                view.space.touchRange(view.va, n, /*write=*/true);
                store.publish(region, static_cast<net::NodeId>(target),
                              view.space.privatePages(), span.context());
            }
            state_latency += ctx.now() - t0;
        }

        for (auto &view : views) {
            result.cowFaults += view->faults.cowFaults();
            result.readFaults += view->faults.readFaults();
            store.detach(view->handle);
        }
        views.clear();

        out.stateLatency = state_latency;
        out.attachLatency = attach_latency;
        out.transferBytes = static_cast<std::size_t>(
            ctx.stats().value(metrics::kStateTransferBytes) - transfers_before);
        result.transferBytes += out.transferBytes;

        finish[i] = ctx.clock().now() - start[target];
        out.finishAt = finish[i];
        span.attr("tier", out.record.tierServed);
    }

    // Critical path: the latest stage finish, run-relative. Book the
    // end-to-end sample on the machine that completed the workflow.
    std::size_t last = 0;
    for (std::size_t i = 0; i < finish.size(); ++i) {
        if (finish[i] > finish[last])
            last = i;
    }
    result.e2e = finish[last];
    sim::SimContext &fctx = cluster_.machine(placed[last]).ctx();
    fctx.stats().incr(metrics::kChainWorkflows);
    fctx.stats().observeMs(metrics::kChainE2eMs, result.e2e.toMs());
    fctx.stats().observeWindowed(metrics::kWinChainE2eMs, fctx.now(),
                                 result.e2e.toMs());
    return result;
}

} // namespace catalyzer::workflow
