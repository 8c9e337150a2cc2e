#include "arch/memory.hh"

namespace dvi
{
namespace arch
{

const Memory::Page *
Memory::findPageSlow(std::uint64_t idx) const
{
    const auto it = pages.find(idx);
    if (it == pages.end())
        return nullptr;
    tlb[idx & tlbMask] = TlbEntry{idx, it->second.get()};
    return it->second.get();
}

Memory::Page &
Memory::ensurePageSlow(std::uint64_t idx)
{
    std::unique_ptr<Page> &slot = pages[idx];
    if (!slot)
        slot = std::make_unique<Page>();
    tlb[idx & tlbMask] = TlbEntry{idx, slot.get()};
    return *slot;
}

} // namespace arch
} // namespace dvi
