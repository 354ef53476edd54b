#include "uarch/mem_hierarchy.hh"

namespace powerchop
{

MemHierarchy::MemHierarchy(const CacheParams &l1, const CacheParams &mlc)
    : l1_(l1), mlc_(mlc)
{
}

std::uint64_t
MemHierarchy::setMlcActiveWays(unsigned ways)
{
    // Fork before the MLC loses lines. The shadow is only ever read,
    // so it holds no dirty or drowsy lines.
    if (!shadowMlc_ && ways < mlc_.params().assoc)
        shadowMlc_.emplace(mlc_.cleanCopy());
    return mlc_.setActiveWays(ways);
}

void
MemHierarchy::resetWindowStats()
{
    l1_.resetWindowStats();
    mlc_.resetWindowStats();
    if (shadowMlc_)
        shadowMlc_->resetWindowStats();
}

} // namespace powerchop
