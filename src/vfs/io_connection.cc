#include "vfs/io_connection.h"

namespace catalyzer::vfs {

std::uint64_t
IoConnectionTable::add(ConnKind kind, std::string path,
                       bool used_at_startup, bool used_by_requests)
{
    IoConnection conn;
    conn.id = next_id_++;
    conn.kind = kind;
    conn.path = std::move(path);
    conn.established = true;
    conn.usedAtStartup = used_at_startup;
    conn.usedByRequests = used_by_requests;
    conns_.push_back(std::move(conn));
    return conns_.back().id;
}

void
IoConnectionTable::cloneFrom(const std::vector<IoConnection> &saved)
{
    conns_ = saved;
    next_id_ = 1;
    for (auto &conn : conns_)
        conn.id = next_id_++;
}

void
IoConnectionTable::dropAll()
{
    for (auto &c : conns_)
        c.established = false;
}

} // namespace catalyzer::vfs
