/**
 * @file
 * Tracks stores that have functionally executed but not yet retired, so
 * that custom-component loads (which bypass the store queue and read the
 * data cache) observe *committed* memory state, exactly as the paper's
 * Load Agent semantics require ("they do not search the Store Queue").
 *
 * The functional engine runs at fetch, ahead of retirement, mutating
 * SimMemory immediately; this log remembers the pre-store bytes of every
 * in-flight store so committedRead() can reconstruct the retire-time image.
 */

#ifndef PFM_MEM_SYS_COMMIT_LOG_H
#define PFM_MEM_SYS_COMMIT_LOG_H

#include <array>
#include <cstdint>
#include <deque>

#include "common/types.h"
#include "mem_sys/sim_memory.h"

namespace pfm {

class CkptWriter;
class CkptReader;

class CommitLog
{
  public:
    explicit CommitLog(SimMemory& mem) : mem_(mem) {}

    /**
     * Record a store about to functionally execute. Must be called *before*
     * the bytes are written to SimMemory (it snapshots the old bytes).
     * Stores are recorded in seq order, 1 to 8 bytes each.
     */
    void recordStore(SeqNum seq, Addr addr, unsigned size);

    /**
     * The store @p seq has retired; its bytes become architectural. It
     * must be the oldest in-flight store (stores retire in order).
     */
    void retireStore(SeqNum seq, Addr addr, unsigned size);

    /**
     * Read @p size bytes at @p addr as of the last retired store, i.e. with
     * all in-flight stores' effects undone.
     */
    std::uint64_t committedRead(Addr addr, unsigned size) const;

    /**
     * The image is the historical per-byte layout (address-major, seq
     * order within a byte), so replacing the byte map by a FIFO did not
     * change checkpoint bytes.
     */
    void saveState(CkptWriter& w) const;
    void loadState(CkptReader& r);

  private:
    /** One in-flight store and the bytes it overwrote. */
    struct PendingStore {
        SeqNum seq;
        Addr addr;
        unsigned size;
        std::array<std::uint8_t, 8> old; ///< pre-store bytes [0, size)
    };

    SimMemory& mem_;
    // In-flight stores, oldest first: the committed value of a byte is the
    // pre-store byte of the oldest store covering it, else memory's.
    std::deque<PendingStore> fifo_;
};

} // namespace pfm

#endif // PFM_MEM_SYS_COMMIT_LOG_H
