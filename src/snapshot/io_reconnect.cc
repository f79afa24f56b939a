#include "snapshot/io_reconnect.h"

#include "sim/logging.h"
#include "sim/metric_catalog.h"

namespace catalyzer::snapshot {

namespace {

/** "reconnect/<kind>": the span of one connection's reconnect. */
trace::Name
reconnectSpanName(vfs::ConnKind kind)
{
    switch (kind) {
      case vfs::ConnKind::File: return "reconnect/file";
      case vfs::ConnKind::Socket: return "reconnect/socket";
      case vfs::ConnKind::LogFile: return "reconnect/logfile";
    }
    return "reconnect/?";
}

} // namespace

sim::SimTime
reconnectConnection(sim::SimContext &ctx, vfs::IoConnection &conn,
                    vfs::FsServer *server, trace::TraceContext trace)
{
    if (conn.established)
        return sim::SimTime::zero();
    const auto &costs = ctx.costs();
    const sim::SimTime before = ctx.now();
    trace::ScopedSpan span(trace, reconnectSpanName(conn.kind));
    span.attr("path", conn.path);

    ctx.charge(costs.ioReconnectBase);
    switch (conn.kind) {
      case vfs::ConnKind::File:
        if (server) {
            vfs::FdEntry entry;
            if (!server->openReadOnly(conn.path, &entry))
                sim::warn("reconnect: %s vanished from rootfs",
                          conn.path.c_str());
        } else {
            ctx.charge(costs.openFile);
        }
        break;
      case vfs::ConnKind::LogFile:
        if (server)
            server->grantLogFile(conn.path);
        else
            ctx.charge(costs.openFile);
        break;
      case vfs::ConnKind::Socket:
        ctx.charge(costs.openSocket);
        break;
    }
    conn.established = true;
    ctx.stats().incr(metrics::kSnapshotIoReconnects);
    return ctx.now() - before;
}

bool
reconnectWithRetry(sim::SimContext &ctx, vfs::IoConnection &conn,
                   vfs::FsServer *server,
                   faults::FaultInjector *injector,
                   trace::TraceContext trace)
{
    if (conn.established)
        return true;
    if (injector != nullptr) {
        for (int attempt = 1;
             injector->shouldFail(faults::FaultSite::IoReconnect,
                                  ctx.stats());
             ++attempt) {
            ctx.charge(faults::kAttemptTimeout);
            if (attempt >= faults::kMaxAttempts) {
                ctx.stats().incr(metrics::kSnapshotIoReconnectFailures);
                sim::debugLog("reconnect: %s failed after %d attempts",
                              conn.path.c_str(), faults::kMaxAttempts);
                return false;
            }
            ctx.stats().incr(metrics::kSnapshotIoReconnectRetries);
            ctx.charge(faults::retryBackoff(attempt, injector->rng()));
        }
    }
    reconnectConnection(ctx, conn, server, trace);
    return true;
}

} // namespace catalyzer::snapshot
