#include "vfs/inode_tree.h"

#include "sim/logging.h"

namespace catalyzer::vfs {

InodeTree::InodeTree()
{
    nodes_["/"] = Inode{true, 0};
}

void
InodeTree::ensureParents(const std::string &path)
{
    std::size_t pos = 0;
    while ((pos = path.find('/', pos + 1)) != std::string::npos) {
        const std::string dir = path.substr(0, pos);
        auto it = nodes_.find(dir);
        if (it == nodes_.end())
            nodes_[dir] = Inode{true, 0};
        else if (!it->second.isDir)
            sim::panic("InodeTree: %s is a file, not a directory",
                       dir.c_str());
    }
}

void
InodeTree::addFile(const std::string &path, std::size_t size_bytes)
{
    if (path.empty() || path.front() != '/' || path.back() == '/')
        sim::panic("InodeTree::addFile: bad path '%s'", path.c_str());
    ensureParents(path);
    nodes_[path] = Inode{false, size_bytes};
}

void
InodeTree::addDir(const std::string &path)
{
    if (path.empty() || path.front() != '/')
        sim::panic("InodeTree::addDir: bad path '%s'", path.c_str());
    ensureParents(path + "/");
    nodes_[path] = Inode{true, 0};
}

const Inode *
InodeTree::lookup(const std::string &path) const
{
    auto it = nodes_.find(path);
    return it == nodes_.end() ? nullptr : &it->second;
}

void
InodeTree::unionWith(const InodeTree &overlay)
{
    for (const auto &[path, node] : overlay.nodes_)
        nodes_[path] = node;
}

} // namespace catalyzer::vfs
