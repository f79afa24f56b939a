/**
 * @file
 * Baseline eager restore (gVisor-restore in the paper).
 *
 * Everything happens on the critical path: decompress and load all
 * application memory, deserialize every metadata object one by one,
 * re-do non-I/O kernel state, and re-establish every I/O connection.
 */

#ifndef CATALYZER_SNAPSHOT_RESTORE_BASELINE_H
#define CATALYZER_SNAPSHOT_RESTORE_BASELINE_H

#include "guest/guest_kernel.h"
#include "mem/address_space.h"
#include "snapshot/func_image.h"
#include "trace/boot_report.h"
#include "vfs/fs_server.h"

namespace catalyzer::snapshot {

/**
 * The stock checkpoint/restore path. Requires a CompressedProto image.
 */
class EagerRestoreEngine
{
  public:
    explicit EagerRestoreEngine(sim::SimContext &ctx) : ctx_(ctx) {}

    /**
     * Restore @p image into a fresh guest: loads memory into @p space,
     * rebuilds @p guest's object graph and thread census, reconnects all
     * I/O through @p server. Books one app-init stage per restore phase
     * into @p report (the Fig. 2 / Fig. 12 rows "restore-app-memory",
     * "restore-kernel", "restore-reconnect-io"), their spans under
     * @p trace with per-connection children under the reconnect phase.
     * Returns where the restored heap landed in @p space.
     */
    mem::PageIndex restore(FuncImage &image, guest::GuestKernel &guest,
                           mem::AddressSpace &space, vfs::FsServer *server,
                           trace::BootReport &report,
                           trace::TraceContext trace = {});

  private:
    sim::SimContext &ctx_;
};

} // namespace catalyzer::snapshot

#endif // CATALYZER_SNAPSHOT_RESTORE_BASELINE_H
