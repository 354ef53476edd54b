#include "workload/address_stream.hh"

#include "common/logging.hh"

namespace powerchop
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

AddressStream::AddressStream(const AddressStreamSpec &spec)
    : spec_(spec), cursor_(0), hotCursor_(0),
      wsLines_(spec.workingSetBytes / spec.strideBytes),
      hotMask_(isPow2(spec.hotRegionBytes) ? spec.hotRegionBytes - 1 : 0),
      wsMask_(isPow2(spec.workingSetBytes) ? spec.workingSetBytes - 1 : 0),
      hotChance_(spec.hotRegionFrac), randomChance_(spec.randomFrac)
{
    if (spec_.workingSetBytes < spec_.strideBytes)
        fatal("working set (%llu B) smaller than stride",
              static_cast<unsigned long long>(spec_.workingSetBytes));
    if (spec_.hotRegionFrac < 0.0 || spec_.hotRegionFrac > 1.0)
        fatal("hotRegionFrac out of [0,1]");
}

void
AddressStream::reset()
{
    cursor_ = 0;
    hotCursor_ = 0;
}

} // namespace powerchop
