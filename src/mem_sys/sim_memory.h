/**
 * @file
 * Flat, sparse, copy-on-write simulated memory. Workloads allocate their
 * data structures here; the functional engine and custom components
 * read/write through it. This holds the *up-to-date functional* image;
 * see CommitLog for the retire-time (committed) view used by
 * custom-component loads.
 *
 * The image is a flat page table indexed by page number (addr >>
 * kPageShift). A slot is unmapped (reads as zeros), a private page this
 * memory owns, or a shared read-only page: loadState() points slots
 * straight into the checkpoint's decoded engine blob and pins that blob,
 * so every leg restored from one warm image shares its bytes. The first
 * store to a shared or unmapped page takes a private copy (or a zero
 * page) — the only path that writes page bytes. Single-page accesses
 * (every scalar load/store but a page-straddling one) are inline: one
 * bounds check and one table load, no hash.
 *
 * The table covers a fixed simulated address space (kAddrSpaceBytes): a
 * store beyond it is fatal, naming the address; a read beyond it returns
 * zeros like any unmapped page.
 */

#ifndef PFM_MEM_SYS_SIM_MEMORY_H
#define PFM_MEM_SYS_SIM_MEMORY_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/log.h"
#include "common/types.h"

namespace pfm {

class CkptWriter;
class CkptReader;

class SimMemory
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr Addr kPageBytes = Addr{1} << kPageShift;
    /** Simulated address-space cap (the largest image's brk is ~114 MB). */
    static constexpr Addr kAddrSpaceBytes = Addr{1} << 32;
    static constexpr Addr kMaxPages = kAddrSpaceBytes >> kPageShift;

    SimMemory() = default;

    /** Bump-allocate @p bytes with @p align alignment in the data segment. */
    Addr alloc(Addr bytes, Addr align = 8);

    /** Current top of the allocated data segment. */
    Addr brk() const { return brk_; }

    void readBytes(Addr addr, void* out, unsigned n) const;
    void writeBytes(Addr addr, const void* in, unsigned n);

    template <typename T>
    T
    read(Addr addr) const
    {
        T v{};
        if (!withinPage(addr, sizeof(T)))
            readBytes(addr, &v, sizeof(T));
        else if (const std::uint8_t* p = mapped(addr >> kPageShift))
            std::memcpy(&v, p + pageOffset(addr), sizeof(T));
        return v;
    }

    template <typename T>
    void
    write(Addr addr, T v)
    {
        if (withinPage(addr, sizeof(T)))
            std::memcpy(writable(addr), &v, sizeof(T));
        else
            writeBytes(addr, &v, sizeof(T));
    }

    /** Unsigned integer read of @p n (1/2/4/8) bytes. */
    std::uint64_t
    readInt(Addr addr, unsigned n) const
    {
        std::uint64_t v = 0;
        if (!withinPage(addr, n))
            readBytes(addr, &v, n);
        else if (const std::uint8_t* p = mapped(addr >> kPageShift))
            std::memcpy(&v, p + pageOffset(addr), n);
        return v;
    }

    void
    writeInt(Addr addr, std::uint64_t v, unsigned n)
    {
        if (withinPage(addr, n))
            std::memcpy(writable(addr), &v, n);
        else
            writeBytes(addr, &v, n);
    }

    /** Checkpoint: every mapped page (ascending page index) + brk. */
    void saveState(CkptWriter& w) const;

    /**
     * Map every checkpointed page as a shared slot into the reader's open
     * section blob (pinned for this memory's lifetime) and drop the old
     * image. Page indices must ascend strictly below kMaxPages.
     */
    void loadState(CkptReader& r);

    /**
     * Page-level enumeration for whole-image serializers (the checkpoint
     * engine section and the trace frontend's meta block): mapped page
     * indices (addr >> kPageShift) in ascending order, and the raw bytes
     * of one such page.
     */
    std::vector<Addr> pageIndices() const;
    const std::uint8_t* pageBytes(Addr page_index) const;

    /** Restore the allocation top when rebuilding an image page-by-page. */
    void setBrk(Addr b) { brk_ = b; }

  private:
    static constexpr Addr
    pageOffset(Addr addr)
    {
        return addr & (kPageBytes - 1);
    }

    static constexpr bool
    withinPage(Addr addr, unsigned n)
    {
        return pageOffset(addr) + n <= kPageBytes;
    }

    /** Bytes of page @p page_index; nullptr when unmapped (all zeros). */
    const std::uint8_t*
    mapped(Addr page_index) const
    {
        return page_index < map_.size() ? map_[page_index] : nullptr;
    }

    /** Byte @p addr in its private page, taking that page if need be. */
    std::uint8_t*
    writable(Addr addr)
    {
        const Addr pi = addr >> kPageShift;
        if (pi < own_.size() && own_[pi])
            return own_[pi].get() + pageOffset(addr);
        return privatize(addr);
    }

    /**
     * Copy-on-write: give @p addr's page a private copy of its current
     * bytes (zeros when unmapped) and return @p addr's byte in it. Fatal,
     * naming @p addr, beyond kAddrSpaceBytes.
     */
    std::uint8_t* privatize(Addr addr);

    /** Every mapped page: private (== own_[i].get()) or shared. */
    std::vector<const std::uint8_t*> map_;
    /** Private pages, owned; null for shared and unmapped slots. Always
     *  as long as map_. */
    std::vector<std::unique_ptr<std::uint8_t[]>> own_;
    /** Keeps the checkpoint blob behind the shared slots alive. */
    std::shared_ptr<const std::vector<std::uint8_t>> pin_;
    Addr brk_ = 0x100000; // data segment starts above the code region
};

} // namespace pfm

#endif // PFM_MEM_SYS_SIM_MEMORY_H
