#include "vfs/fd_table.h"

#include "sim/logging.h"

namespace catalyzer::vfs {

int
FdTable::allocate(FdEntry entry, bool *expanded)
{
    return allocateAtLeast(0, std::move(entry), expanded);
}

int
FdTable::allocateAtLeast(int min_fd, FdEntry entry, bool *expanded)
{
    if (expanded)
        *expanded = false;
    if (min_fd < 0)
        sim::panic("FdTable::allocateAtLeast: negative min_fd");
    auto fd = static_cast<std::size_t>(min_fd);
    while (fd < slots_.size() && slots_[fd].has_value())
        ++fd;
    while (fd >= capacity_) {
        capacity_ *= 2;
        if (expanded)
            *expanded = true;
    }
    if (fd >= slots_.size())
        slots_.resize(fd + 1);
    slots_[fd] = std::move(entry);
    ++in_use_;
    return static_cast<int>(fd);
}

void
FdTable::close(int fd)
{
    if (!valid(fd))
        sim::panic("FdTable::close: fd %d not open", fd);
    slots_[static_cast<std::size_t>(fd)].reset();
    --in_use_;
}

FdEntry *
FdTable::get(int fd)
{
    return valid(fd) ? &*slots_[static_cast<std::size_t>(fd)] : nullptr;
}

} // namespace catalyzer::vfs
