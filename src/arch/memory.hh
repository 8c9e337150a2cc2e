/**
 * @file
 * Sparse 64-bit-word memory for the functional emulator.
 *
 * The simulated machine is word-oriented: all data accesses are
 * 8-byte aligned 64-bit words (the compiler only emits such
 * accesses). Unwritten locations read as zero, which the workload
 * generators rely on for zero-initialized global arrays.
 *
 * Storage is paged rather than per-word: 512-word (4 KB) pages in a
 * hash map, fronted by a 16-entry direct-mapped page TLB indexed by
 * the low bits of the page number. Emulated accesses cluster on a
 * few pages at once (the current stack frames, the global window,
 * the heap arrays a loop walks), so the common case is a shift, one
 * compare and an indexed array access; the hash lookup runs out of
 * line (memory.cc) only on a TLB miss. read() and write() are forced
 * inline and the two miss paths are kept out of line and cold, so
 * the emulator's memory micro-ops carry the TLB probe and no call
 * (left to its size heuristics, the optimizer kept both out of line,
 * with the hash lookup folded into write). Stack and global accesses
 * interleave, so a single-entry page cache would miss on about a
 * third of the accesses of fig09/fig12. Pages never move once
 * allocated (unique_ptr targets), which is what keeps the cached
 * pointers valid; Memory is neither copyable nor movable, so no
 * second object can hold a TLB that points into another's pages.
 * Reading an unwritten page returns 0 and allocates nothing.
 */

#ifndef DVI_ARCH_MEMORY_HH
#define DVI_ARCH_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "base/logging.hh"
#include "base/types.hh"

namespace dvi
{
namespace arch
{

/** Sparse word-addressed memory. */
class Memory
{
    static constexpr unsigned pageShift = 9; ///< 512 words = 4 KB
    static constexpr std::uint64_t pageWords = std::uint64_t(1) << pageShift;
    static constexpr std::uint64_t pageMask = pageWords - 1;

    struct Page
    {
        std::array<std::int64_t, pageWords> data{};
        /** One bit per written word, for touchedWords accounting
         * and forEach enumeration. */
        std::array<std::uint64_t, pageWords / 64> written{};
    };

  public:
    Memory() = default;
    Memory(const Memory &) = delete;
    Memory &operator=(const Memory &) = delete;

    DVI_ALWAYS_INLINE std::int64_t
    read(Addr addr) const
    {
        panic_if(addr % 8 != 0, "unaligned read at ", addr);
        const std::uint64_t w = addr >> 3;
        const std::uint64_t idx = w >> pageShift;
        const TlbEntry &e = tlb[idx & tlbMask];
        if (e.idx == idx)
            return e.page->data[w & pageMask];
        const Page *p = findPageSlow(idx);
        return p ? p->data[w & pageMask] : 0;
    }

    DVI_ALWAYS_INLINE void
    write(Addr addr, std::int64_t value)
    {
        panic_if(addr % 8 != 0, "unaligned write at ", addr);
        const std::uint64_t w = addr >> 3;
        const std::uint64_t idx = w >> pageShift;
        const TlbEntry &e = tlb[idx & tlbMask];
        Page &p = e.idx == idx ? *e.page : ensurePageSlow(idx);
        const std::uint64_t slot = w & pageMask;
        std::uint64_t &bits = p.written[slot >> 6];
        const std::uint64_t bit = std::uint64_t(1) << (slot & 63);
        touched += !(bits & bit);
        bits |= bit;
        p.data[slot] = value;
    }

    /** Distinct words ever written. */
    std::size_t touchedWords() const { return touched; }

    /** Iterate (wordAddr, value) pairs of written words; unordered
     * across pages. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const auto &[idx, page] : pages) {
            for (std::uint64_t g = 0; g < pageWords / 64; ++g) {
                std::uint64_t bits = page->written[g];
                while (bits) {
                    const auto b =
                        static_cast<unsigned>(__builtin_ctzll(bits));
                    bits &= bits - 1;
                    const std::uint64_t slot = g * 64 + b;
                    f(((idx << pageShift) + slot) << 3,
                      page->data[slot]);
                }
            }
        }
    }

  private:
    static constexpr unsigned tlbSlots = 16;
    static constexpr std::uint64_t tlbMask = tlbSlots - 1;
    /** No page number reaches this (addresses are 64-bit, so page
     * numbers have at most 52 bits): marks an empty TLB slot. */
    static constexpr std::uint64_t noPage = ~std::uint64_t(0);

    struct TlbEntry
    {
        std::uint64_t idx = noPage;
        Page *page = nullptr;
    };

    /** TLB miss on a read: the hash lookup, filling the slot when
     * the page exists; nullptr (and no fill) for an unwritten page. */
    DVI_NOINLINE_COLD const Page *findPageSlow(std::uint64_t idx) const;

    /** TLB miss on a write: find or allocate the page, fill the
     * slot. */
    DVI_NOINLINE_COLD Page &ensurePageSlow(std::uint64_t idx);

    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages;
    std::size_t touched = 0;

    /** Page TLB, slot = page number mod tlbSlots. Pages are never
     * deallocated or moved, so a filled slot stays valid for the
     * Memory's lifetime. */
    mutable std::array<TlbEntry, tlbSlots> tlb{};
};

} // namespace arch
} // namespace dvi

#endif // DVI_ARCH_MEMORY_HH
