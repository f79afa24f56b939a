/**
 * @file
 * Re-do of I/O system state: re-establishing checkpointed connections.
 */

#ifndef CATALYZER_SNAPSHOT_IO_RECONNECT_H
#define CATALYZER_SNAPSHOT_IO_RECONNECT_H

#include "faults/fault_injector.h"
#include "sim/context.h"
#include "trace/trace.h"
#include "vfs/fs_server.h"
#include "vfs/io_connection.h"

namespace catalyzer::snapshot {

/**
 * Re-establish one checkpointed connection (re-do the open/connect).
 * Files go through the FS server (Gofer RPC + host open + dup); sockets
 * pay the reconnect handshake. Marks the connection established. Emits
 * one "reconnect/<kind>" span when @p trace is enabled.
 *
 * @return the latency charged for this reconnection.
 */
sim::SimTime reconnectConnection(sim::SimContext &ctx,
                                 vfs::IoConnection &conn,
                                 vfs::FsServer *server,
                                 trace::TraceContext trace = {});

/**
 * Like reconnectConnection(), but each attempt may be failed by
 * @p injector (FaultSite::IoReconnect): a failed attempt charges
 * faults::kAttemptTimeout, then backs off and retries up to
 * faults::kMaxAttempts. Returns false when every attempt failed — the
 * connection is left un-established so the first request can retry it
 * lazily; boot paths use that signal to invalidate the function's I/O
 * cache entry.
 * With a null or disabled injector this is exactly reconnectConnection().
 */
bool reconnectWithRetry(sim::SimContext &ctx, vfs::IoConnection &conn,
                        vfs::FsServer *server,
                        faults::FaultInjector *injector,
                        trace::TraceContext trace = {});

} // namespace catalyzer::snapshot

#endif // CATALYZER_SNAPSHOT_IO_RECONNECT_H
