#include "vfs/io_connection.h"

#include <algorithm>

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

IoConnection *
IoConnectionTable::find(std::uint64_t id)
{
    auto it = std::find_if(conns_.begin(), conns_.end(),
                           [id](const IoConnection &c) {
                               return c.id == id;
                           });
    return it == conns_.end() ? nullptr : &*it;
}

std::size_t
IoConnectionTable::establishedCount() const
{
    return static_cast<std::size_t>(
        std::count_if(conns_.begin(), conns_.end(),
                      [](const IoConnection &c) {
                          return c.established;
                      }));
}

void
IoConnectionTable::dropAll()
{
    for (auto &c : conns_)
        c.established = false;
}

} // namespace catalyzer::vfs
