#include "mem_sys/sim_memory.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "sim/checkpoint.h"

namespace pfm {

Addr
SimMemory::alloc(Addr bytes, Addr align)
{
    pfm_assert(align != 0 && (align & (align - 1)) == 0,
               "alignment must be a power of two");
    brk_ = (brk_ + align - 1) & ~(align - 1);
    Addr a = brk_;
    brk_ += bytes;
    return a;
}

void
SimMemory::readBytes(Addr addr, void* out, unsigned n) const
{
    // Page-chunked: one table load + memcpy per touched page. The scalar
    // loads of the functional engine take the inline path unless they
    // straddle two pages; workload setup streams megabytes through here.
    auto* dst = static_cast<std::uint8_t*>(out);
    while (n > 0) {
        const Addr off = pageOffset(addr);
        const unsigned chunk =
            static_cast<unsigned>(std::min<Addr>(kPageBytes - off, n));
        if (const std::uint8_t* p = mapped(addr >> kPageShift))
            std::memcpy(dst, p + off, chunk);
        else
            std::memset(dst, 0, chunk);
        dst += chunk;
        addr += chunk;
        n -= chunk;
    }
}

void
SimMemory::writeBytes(Addr addr, const void* in, unsigned n)
{
    const auto* src = static_cast<const std::uint8_t*>(in);
    while (n > 0) {
        const unsigned chunk = static_cast<unsigned>(
            std::min<Addr>(kPageBytes - pageOffset(addr), n));
        std::memcpy(writable(addr), src, chunk);
        src += chunk;
        addr += chunk;
        n -= chunk;
    }
}

std::uint8_t*
SimMemory::privatize(Addr addr)
{
    const Addr pi = addr >> kPageShift;
    if (pi >= kMaxPages)
        pfm_fatal("store to 0x%llx beyond the %llu GiB simulated address "
                  "space",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(kAddrSpaceBytes >> 30));
    if (pi >= map_.size()) {
        map_.resize(pi + 1, nullptr);
        own_.resize(pi + 1);
    }
    auto page = std::make_unique_for_overwrite<std::uint8_t[]>(kPageBytes);
    if (map_[pi])
        std::memcpy(page.get(), map_[pi], kPageBytes);
    else
        std::memset(page.get(), 0, kPageBytes);
    map_[pi] = page.get();
    own_[pi] = std::move(page);
    return own_[pi].get() + pageOffset(addr);
}

std::vector<Addr>
SimMemory::pageIndices() const
{
    std::vector<Addr> idx;
    for (Addr pi = 0; pi < map_.size(); ++pi)
        if (map_[pi])
            idx.push_back(pi);
    return idx;
}

const std::uint8_t*
SimMemory::pageBytes(Addr page_index) const
{
    const std::uint8_t* p = mapped(page_index);
    pfm_assert(p, "pageBytes() of an unmapped page");
    return p;
}

void
SimMemory::saveState(CkptWriter& w) const
{
    const std::vector<Addr> pages = pageIndices();
    w.put<std::uint64_t>(pages.size());
    for (Addr pi : pages) {
        w.put(pi);
        w.putBytes(map_[pi], kPageBytes);
    }
    w.put(brk_);
}

void
SimMemory::loadState(CkptReader& r)
{
    // No page is copied: every slot points into the section blob, which
    // stays pinned, so N legs restoring one warm image share its bytes
    // and a leg copies only the pages it stores to.
    const std::uint64_t n = r.get<std::uint64_t>();
    std::vector<const std::uint8_t*> map;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr pi = r.get<Addr>();
        if (pi >= kMaxPages)
            r.fail("memory page index " + std::to_string(pi) +
                   " beyond the simulated address space");
        if (pi < map.size())
            r.fail("memory page index " + std::to_string(pi) +
                   (map[pi] ? " repeated" : " out of order"));
        map.resize(pi + 1, nullptr);
        map[pi] = r.view(kPageBytes);
    }
    r.get(brk_);
    map_ = std::move(map);
    own_.clear();
    own_.resize(map_.size());
    pin_ = r.pin();
}

} // namespace pfm
