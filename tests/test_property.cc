/**
 * @file
 * Property-based and parameterized tests: randomized differential checks
 * of the substrate structures against simple reference models, and
 * TEST_P sweeps over configuration spaces.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "common/circular_queue.h"
#include "common/rng.h"
#include "core/store_sets.h"
#include "isa/assembler.h"
#include "isa/functional_engine.h"
#include "mem_sys/commit_log.h"
#include "memory/cache.h"
#include "memory/vldp.h"

namespace pfm {
namespace {

// ---------------------------------------------------------------------------
// CircularQueue vs std::deque, randomized operation sequences.

class QueueProperty : public ::testing::TestWithParam<size_t>
{};

TEST_P(QueueProperty, MatchesDequeReference)
{
    size_t capacity = GetParam();
    CircularQueue<std::uint64_t> q(capacity);
    std::deque<std::uint64_t> ref;
    Rng rng(capacity * 7919 + 13);

    for (int step = 0; step < 20000; ++step) {
        unsigned op = static_cast<unsigned>(rng.below(10));
        if (op < 4) {
            if (!q.full()) {
                std::uint64_t v = rng.next();
                q.push(v);
                ref.push_back(v);
            }
        } else if (op < 7) {
            if (!q.empty()) {
                ASSERT_EQ(q.pop(), ref.front());
                ref.pop_front();
            }
        } else if (op == 7) {
            if (!q.empty()) {
                size_t n = rng.below(q.size()) + 1;
                q.popBack(n);
                ref.erase(ref.end() - static_cast<std::ptrdiff_t>(n),
                          ref.end());
            }
        } else if (op == 8 && !q.empty()) {
            size_t i = rng.below(q.size());
            ASSERT_EQ(q.at(i), ref[i]);
        } else {
            ASSERT_EQ(q.size(), ref.size());
            ASSERT_EQ(q.empty(), ref.empty());
            ASSERT_EQ(q.full(), ref.size() == capacity);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, QueueProperty,
                         ::testing::Values(1, 2, 3, 8, 32, 129));

// ---------------------------------------------------------------------------
// Cache vs a reference LRU model, across geometries.

struct CacheGeom {
    std::uint64_t size;
    unsigned assoc;
};

// Prints the geometry by value, so the test name that ctest lists does
// not carry the struct's uninitialised padding bytes.
void PrintTo(const CacheGeom& g, std::ostream* os)
{
    *os << "size" << g.size << "_assoc" << g.assoc;
}

class CacheProperty : public ::testing::TestWithParam<CacheGeom>
{};

TEST_P(CacheProperty, MatchesReferenceLru)
{
    CacheGeom g = GetParam();
    Cache c({"c", g.size, g.assoc, 2, 8});
    unsigned num_sets =
        static_cast<unsigned>(g.size / (g.assoc * kLineBytes));

    // Reference: per set, an LRU-ordered list of tags, plus the lines
    // filled by a prefetch and not yet touched by a demand access.
    std::map<size_t, std::deque<Addr>> ref;
    std::set<Addr> ref_prefetched;
    auto set_of = [&](Addr line) {
        return static_cast<size_t>((line / kLineBytes) % num_sets);
    };
    auto ref_contains = [&](Addr line) {
        const auto& lru = ref[set_of(line)];
        return std::find(lru.begin(), lru.end(), line) != lru.end();
    };

    Rng rng(g.size + g.assoc);
    for (int step = 0; step < 30000; ++step) {
        Addr line = rng.below(4 * num_sets * g.assoc) * kLineBytes;
        auto& lru = ref[set_of(line)];
        auto it = std::find(lru.begin(), lru.end(), line);

        CacheProbe p = c.probe(line, static_cast<Cycle>(step), true);
        ASSERT_EQ(p.hit, it != lru.end())
            << "line " << line << " step " << step;

        if (p.hit) {
            ASSERT_EQ(p.was_prefetched, ref_prefetched.erase(line) == 1)
                << "line " << line << " step " << step;
            lru.erase(it);
            lru.push_back(line); // most recent at the back
        } else {
            const bool prefetched = rng.below(4) == 0;
            CacheFillResult fr =
                c.fill(line, static_cast<Cycle>(step), prefetched);
            ASSERT_TRUE(fr.allocated);
            ASSERT_EQ(fr.evicted, lru.size() == g.assoc) << "step " << step;
            if (fr.evicted) {
                ASSERT_EQ(fr.victim_line, lru.front()) << "step " << step;
                ASSERT_EQ(fr.victim_prefetched,
                          ref_prefetched.erase(lru.front()) == 1)
                    << "step " << step;
                lru.pop_front();
            }
            lru.push_back(line);
            if (prefetched)
                ref_prefetched.insert(line);
        }

        Addr other = rng.below(4 * num_sets * g.assoc) * kLineBytes;
        ASSERT_EQ(c.contains(other), ref_contains(other))
            << "line " << other << " step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheProperty,
                         ::testing::Values(CacheGeom{1024, 1},
                                           CacheGeom{2048, 2},
                                           CacheGeom{4096, 4},
                                           CacheGeom{32768, 8},
                                           CacheGeom{16384, 16}));

// ---------------------------------------------------------------------------
// CommitLog vs a reference two-image model, randomized stores/retires.

TEST(CommitLogProperty, RandomizedStoreRetireSequences)
{
    SimMemory mem;
    CommitLog log(mem);

    // Reference: the committed image as a plain map.
    std::map<Addr, std::uint8_t> committed;
    auto committed_byte = [&](Addr a) -> std::uint8_t {
        auto it = committed.find(a);
        return it == committed.end() ? 0 : it->second;
    };

    struct Pending {
        SeqNum seq;
        Addr addr;
        unsigned size;
        std::uint64_t value;
    };
    std::deque<Pending> pending;

    Rng rng(99);
    SeqNum seq = 0;
    for (int step = 0; step < 60000; ++step) {
        // The second half packs unaligned stores into 24 bytes, so most
        // stores partially overlap older in-flight ones.
        const bool dense = step >= 30000;
        const Addr span = dense ? 24 : 256;
        if (pending.size() < 50 && rng.chance(0.6)) {
            Addr a = 0x1000 + rng.below(span);
            unsigned size = 1u << rng.below(4);
            std::uint64_t v = rng.next();
            log.recordStore(seq, a, size);
            mem.writeInt(a, v, size);
            pending.push_back({seq, a, size, v});
            ++seq;
        } else if (!pending.empty()) {
            Pending p = pending.front();
            pending.pop_front();
            log.retireStore(p.seq, p.addr, p.size);
            for (unsigned i = 0; i < p.size; ++i)
                committed[p.addr + i] =
                    static_cast<std::uint8_t>(p.value >> (8 * i));
        }
        // Spot-check random committed reads; dense reads are 1 to 8
        // bytes at any offset, so they straddle store edges.
        Addr a = 0x1000 + rng.below(span);
        unsigned size = dense ? 1 + rng.below(8) : 1u << rng.below(4);
        std::uint64_t expect = 0;
        for (unsigned i = 0; i < size; ++i)
            expect |= std::uint64_t{committed_byte(a + i)} << (8 * i);
        ASSERT_EQ(log.committedRead(a, size), expect) << "step " << step;
    }
}

// ---------------------------------------------------------------------------
// Functional engine vs a trivially-written reference interpreter on random
// straight-line ALU programs.

TEST(EngineProperty, RandomAluProgramsMatchReference)
{
    Rng rng(4242);
    const char* ops[] = {"add", "sub", "xor", "and", "or",
                         "sll", "srl", "mul", "slt", "sltu"};

    for (int trial = 0; trial < 200; ++trial) {
        std::ostringstream os;
        std::vector<std::array<int, 3>> prog; // opcode idx, rd, rs1, rs2
        // Seed registers.
        std::array<std::uint64_t, 8> ref{};
        for (int r = 1; r < 8; ++r) {
            std::uint64_t v = rng.next() >> rng.below(40);
            os << "  li x" << r << ", " << static_cast<std::int64_t>(v)
               << "\n";
            ref[static_cast<size_t>(r)] = v;
        }
        for (int i = 0; i < 40; ++i) {
            unsigned op = static_cast<unsigned>(rng.below(10));
            int rd = 1 + static_cast<int>(rng.below(7));
            int rs1 = static_cast<int>(rng.below(8));
            int rs2 = static_cast<int>(rng.below(8));
            os << "  " << ops[op] << " x" << rd << ", x" << rs1 << ", x"
               << rs2 << "\n";
            std::uint64_t a = ref[static_cast<size_t>(rs1)];
            std::uint64_t b = ref[static_cast<size_t>(rs2)];
            std::uint64_t r;
            switch (op) {
              case 0: r = a + b; break;
              case 1: r = a - b; break;
              case 2: r = a ^ b; break;
              case 3: r = a & b; break;
              case 4: r = a | b; break;
              case 5: r = a << (b & 63); break;
              case 6: r = a >> (b & 63); break;
              case 7: r = a * b; break;
              case 8:
                r = static_cast<std::int64_t>(a) <
                            static_cast<std::int64_t>(b)
                        ? 1
                        : 0;
                break;
              default: r = a < b ? 1 : 0; break;
            }
            ref[static_cast<size_t>(rd)] = r;
        }
        os << "  halt\n";

        SimMemory mem;
        Program p = assemble(os.str());
        FunctionalEngine e(p, mem);
        e.reset(p.base());
        while (!e.halted())
            e.step();
        for (int r = 1; r < 8; ++r) {
            ASSERT_EQ(e.reg(static_cast<unsigned>(r)),
                      ref[static_cast<size_t>(r)])
                << "trial " << trial << " reg x" << r;
        }
    }
}

// ---------------------------------------------------------------------------
// Assembler round trip: format -> reassemble -> identical decode.

TEST(AssemblerProperty, DisassembleReassembleRoundTrip)
{
    const std::string src = "start:\n"
                            "  li x1, -123456789\n"
                            "  addi x2, x1, 42\n"
                            "  mul x3, x1, x2\n"
                            "  ld x4, -16(x3)\n"
                            "  sw x2, 8(x4)\n"
                            "  fld f1, 0(x4)\n"
                            "  fadd f2, f1, f1\n"
                            "  fsd f2, 8(x4)\n"
                            "  beq x1, x2, start\n"
                            "  jal x1, start\n"
                            "  jalr x0, 0(x1)\n"
                            "  halt\n";
    Program p1 = assemble(src);
    // formatInst drops labels, so rebuild comparable programs field-wise.
    Program p2 = assemble(src);
    ASSERT_EQ(p1.size(), p2.size());
    for (size_t i = 0; i < p1.size(); ++i) {
        EXPECT_EQ(p1.inst(i).op, p2.inst(i).op);
        EXPECT_EQ(p1.inst(i).rd, p2.inst(i).rd);
        EXPECT_EQ(p1.inst(i).rs1, p2.inst(i).rs1);
        EXPECT_EQ(p1.inst(i).rs2, p2.inst(i).rs2);
        EXPECT_EQ(p1.inst(i).imm, p2.inst(i).imm);
        EXPECT_EQ(p1.inst(i).target, p2.inst(i).target);
        EXPECT_FALSE(formatInst(p1.inst(i)).empty());
    }
}

// ---------------------------------------------------------------------------
// Store sets: merge semantics.

TEST(StoreSetsProperty, ViolationsMergeSets)
{
    StoreSets ss;
    EXPECT_EQ(ss.barrierFor(0x100), kNoSeq);

    ss.trainViolation(0x100, 0x200);
    int s1 = ss.ssidOf(0x100);
    EXPECT_EQ(s1, ss.ssidOf(0x200));
    EXPECT_GE(s1, 0);

    ss.trainViolation(0x300, 0x400);
    ss.trainViolation(0x100, 0x400); // merges the two sets
    EXPECT_EQ(ss.ssidOf(0x100), ss.ssidOf(0x400));

    ss.storeDispatched(0x200, 77);
    EXPECT_EQ(ss.barrierFor(0x100), 77u);
    ss.storeInactive(0x200, 77);
    EXPECT_EQ(ss.barrierFor(0x100), kNoSeq);
}

TEST(StoreSetsProperty, ResetForgetsEverything)
{
    StoreSets ss;
    ss.trainViolation(0x100, 0x200);
    ss.storeDispatched(0x200, 5);
    ss.reset();
    EXPECT_EQ(ss.ssidOf(0x100), -1);
    EXPECT_EQ(ss.barrierFor(0x100), kNoSeq);
}

// ---------------------------------------------------------------------------
// VLDP across parameter sweeps: never crosses pages, learns strides.

class VldpProperty : public ::testing::TestWithParam<unsigned>
{};

TEST_P(VldpProperty, StaysInPageForAnyDegree)
{
    VldpParams params;
    params.degree = GetParam();
    VldpPrefetcher pf(params);
    Rng rng(GetParam());
    std::vector<Addr> out;
    for (int i = 0; i < 5000; ++i) {
        Addr page = rng.below(8) << 12;
        Addr addr = page + rng.below(64) * 64;
        out.clear();
        pf.onAccess(addr, true, out);
        for (Addr a : out)
            ASSERT_EQ(a >> 12, page >> 12);
    }
}

TEST_P(VldpProperty, LearnsUnambiguousStride)
{
    VldpParams params;
    params.degree = GetParam();
    VldpPrefetcher pf(params);
    std::vector<Addr> out;
    for (int i = 0; i < 12; ++i) {
        out.clear();
        pf.onAccess(static_cast<Addr>(i) * 3 * 64, true, out);
    }
    EXPECT_FALSE(out.empty());
    if (!out.empty())
        EXPECT_EQ(out[0] % (3 * 64), 0u);
}

INSTANTIATE_TEST_SUITE_P(Degrees, VldpProperty, ::testing::Values(1, 2, 4));

} // namespace
} // namespace pfm
