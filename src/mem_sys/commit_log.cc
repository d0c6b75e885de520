#include "mem_sys/commit_log.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "sim/checkpoint.h"

#include "common/log.h"

namespace pfm {

void
CommitLog::recordStore(SeqNum seq, Addr addr, unsigned size)
{
    pfm_assert(size >= 1 && size <= 8, "store of %u bytes", size);
    pfm_assert(fifo_.empty() || fifo_.back().seq < seq,
               "stores must be recorded in seq order");
    PendingStore& s = fifo_.emplace_back();
    s.seq = seq;
    s.addr = addr;
    s.size = size;
    mem_.readBytes(addr, s.old.data(), size);
}

void
CommitLog::retireStore(SeqNum seq, Addr addr, unsigned size)
{
    pfm_assert(!fifo_.empty() && fifo_.front().seq == seq &&
                   fifo_.front().addr == addr && fifo_.front().size == size,
               "stores must retire in order (seq %llu)",
               (unsigned long long)seq);
    fifo_.pop_front();
}

std::uint64_t
CommitLog::committedRead(Addr addr, unsigned size) const
{
    pfm_assert(size <= 8, "committed read of %u bytes", size);
    std::uint8_t bytes[8] = {};
    unsigned missing = (1u << size) - 1; // bit i: byte addr+i unresolved
    for (const PendingStore& s : fifo_) {
        if (s.addr >= addr + size || addr >= s.addr + s.size)
            continue;
        const Addr lo = std::max(addr, s.addr);
        const Addr hi = std::min(addr + size, s.addr + s.size);
        for (Addr a = lo; a < hi; ++a) {
            const unsigned bit = 1u << (a - addr);
            if (missing & bit) {
                bytes[a - addr] = s.old[a - s.addr];
                missing &= ~bit;
            }
        }
        if (!missing)
            break;
    }
    if (missing == (1u << size) - 1) {
        mem_.readBytes(addr, bytes, size);
    } else {
        for (unsigned i = 0; i < size; ++i)
            if (missing & (1u << i))
                mem_.readBytes(addr + i, &bytes[i], 1);
    }
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= std::uint64_t{bytes[i]} << (8 * i);
    return v;
}


void
CommitLog::saveState(CkptWriter& w) const
{
    // One (addr, seq, pre-store byte) per in-flight store byte, sorted.
    std::vector<std::tuple<Addr, SeqNum, std::uint8_t>> bytes;
    for (const PendingStore& s : fifo_)
        for (unsigned i = 0; i < s.size; ++i)
            bytes.emplace_back(s.addr + i, s.seq, s.old[i]);
    std::sort(bytes.begin(), bytes.end());

    std::uint64_t addrs = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i)
        if (i == 0 || std::get<0>(bytes[i]) != std::get<0>(bytes[i - 1]))
            ++addrs;
    w.put<std::uint64_t>(addrs);
    for (std::size_t i = 0; i < bytes.size();) {
        const Addr a = std::get<0>(bytes[i]);
        std::size_t j = i;
        while (j < bytes.size() && std::get<0>(bytes[j]) == a)
            ++j;
        w.put(a);
        w.put<std::uint64_t>(j - i);
        for (; i < j; ++i) {
            w.put(std::get<1>(bytes[i]));
            w.put(std::get<2>(bytes[i]));
        }
    }
}

void
CommitLog::loadState(CkptReader& r)
{
    // Regroup the per-byte records by store: seq-major, address order.
    std::vector<std::tuple<SeqNum, Addr, std::uint8_t>> bytes;
    std::uint64_t n = r.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
        Addr a = r.get<Addr>();
        std::uint64_t m = r.get<std::uint64_t>();
        for (std::uint64_t j = 0; j < m; ++j) {
            SeqNum seq = r.get<SeqNum>();
            bytes.emplace_back(seq, a, r.get<std::uint8_t>());
        }
    }
    std::sort(bytes.begin(), bytes.end());

    fifo_.clear();
    for (std::size_t i = 0; i < bytes.size();) {
        PendingStore s{};
        s.seq = std::get<0>(bytes[i]);
        s.addr = std::get<1>(bytes[i]);
        for (; i < bytes.size() && std::get<0>(bytes[i]) == s.seq; ++i) {
            if (std::get<1>(bytes[i]) != s.addr + s.size || s.size == 8)
                r.fail("in-flight store seq " + std::to_string(s.seq) +
                       " does not cover 1 to 8 contiguous bytes");
            s.old[s.size++] = std::get<2>(bytes[i]);
        }
        fifo_.push_back(s);
    }
}

} // namespace pfm
