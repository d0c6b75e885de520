/**
 * @file
 * Reference-model differential suite for the PMP pattern-merging tables
 * (mirrors test_layout_equiv.cc): the production PmpTables against the
 * straight-line refmodel::RefPmp on 10k-event random access streams —
 * identical prefetch candidate sequences, identical saveState() bytes,
 * and cross-restores in both directions.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "components/pmp_prefetcher.h"
#include "reference_pmp.h"
#include "sim/checkpoint.h"

namespace pfm {
namespace {

std::string
tmpPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

std::vector<unsigned char>
readFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<unsigned char>(std::istreambuf_iterator<char>(is),
                                      std::istreambuf_iterator<char>());
}

/**
 * A stream that exercises every table path: dense sequential region
 * sweeps (patterns that merge), strided walks with varying trigger
 * offsets (distinct PHT sets, backward distances), revisits of recent
 * regions (accumulation hits), and uniform noise (accumulation churn,
 * PHT replacement pressure).
 */
std::vector<Addr>
makeStream(std::uint64_t seed, std::size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<Addr> ev;
    ev.reserve(n);

    std::uniform_int_distribution<int> pct(0, 99);
    std::uniform_int_distribution<std::uint64_t> pick_region(0, 511);
    std::uint64_t seq_region = 1000;
    unsigned seq_off = 0;
    std::uint64_t stride_addr = 0x40'0000;
    unsigned stride = 3;

    while (ev.size() < n) {
        int kind = pct(rng);
        if (kind < 35) {
            // Sequential burst inside one region (4-12 lines).
            unsigned burst = 4 + static_cast<unsigned>(rng() % 9);
            for (unsigned i = 0; i < burst && ev.size() < n; ++i) {
                ev.push_back(seq_region * 4096 +
                             static_cast<Addr>(seq_off) * 64);
                if (++seq_off >= 64) {
                    seq_off = 0;
                    ++seq_region;
                }
            }
            if (rng() % 4 == 0) { // new sweep, random entry offset
                seq_region = 1000 + (rng() % 64);
                seq_off = static_cast<unsigned>(rng() % 64);
            }
        } else if (kind < 60) {
            // Strided walk crossing regions (forward + backward bits).
            unsigned steps = 3 + static_cast<unsigned>(rng() % 6);
            for (unsigned i = 0; i < steps && ev.size() < n; ++i) {
                ev.push_back(stride_addr);
                stride_addr += static_cast<Addr>(stride) * 64;
            }
            if (rng() % 3 == 0) {
                stride = 1 + static_cast<unsigned>(rng() % 7);
                stride_addr = 0x40'0000 + (rng() % 256) * 4096 +
                              (rng() % 64) * 64;
            }
        } else if (kind < 85) {
            // Revisit a random nearby region (accumulation-table hits).
            std::uint64_t region = 1000 + pick_region(rng) % 48;
            ev.push_back(region * 4096 + (rng() % 64) * 64);
        } else {
            // Uniform noise over a wide range (churn both tables).
            ev.push_back((rng() % 100'000) * 64);
        }
    }
    return ev;
}

template <typename Model>
std::vector<unsigned char>
stateBytes(const Model& m, const std::string& name)
{
    const std::string path = tmpPath(name);
    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("pmp");
    m.saveState(w);
    w.endSection();
    w.finish();
    std::vector<unsigned char> bytes = readFile(path);
    ckptRemove(path);
    return bytes;
}

// ---------------------------------------------------------------- lockstep

TEST(PmpEquiv, LockstepOnRandomStreams)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xC0FFEEull}) {
        SCOPED_TRACE(seed);
        PmpTables prod;
        refmodel::RefPmp ref;

        std::vector<Addr> prod_out, ref_out;
        for (Addr a : makeStream(seed, 10'000)) {
            prod_out.clear();
            ref_out.clear();
            prod.onAccess(a, prod_out);
            ref.onAccess(a, ref_out);
            ASSERT_EQ(prod_out, ref_out) << "addr=" << std::hex << a;
        }

        EXPECT_EQ(stateBytes(prod, "pmp_equiv_prod.ckpt"),
                  stateBytes(ref, "pmp_equiv_ref.ckpt"));
    }
}

TEST(PmpEquiv, LockstepWithNonDefaultGeometry)
{
    // Shapes that stress the corner parameters: a tiny accumulation table
    // (heavy FIFO churn), few ways (replacement pressure), an aggressive
    // merge threshold, and max_distance at the dd == 32 fold point where
    // forward and backward rotation distances coincide.
    PmpParams p;
    p.acc_entries = 4;
    p.pht_ways = 2;
    p.merge_threshold_pct = 30;
    p.degree = 16;
    p.max_distance = 32;

    PmpTables prod(p);
    refmodel::RefPmp ref(p);

    std::vector<Addr> prod_out, ref_out;
    for (Addr a : makeStream(7, 10'000)) {
        prod_out.clear();
        ref_out.clear();
        prod.onAccess(a, prod_out);
        ref.onAccess(a, ref_out);
        ASSERT_EQ(prod_out, ref_out) << "addr=" << std::hex << a;
    }

    EXPECT_EQ(stateBytes(prod, "pmp_geom_prod.ckpt"),
              stateBytes(ref, "pmp_geom_ref.ckpt"));
}

// ------------------------------------------------------------- round trips

TEST(PmpEquiv, ProductionCheckpointRestoresIntoReference)
{
    PmpTables prod;
    std::vector<Addr> stream = makeStream(99, 12'000);
    std::vector<Addr> out;
    for (std::size_t i = 0; i < 6'000; ++i) {
        out.clear();
        prod.onAccess(stream[i], out);
    }

    const std::string path = tmpPath("pmp_cross.ckpt");
    {
        CkptWriter w(path);
        w.writeHeader(CkptHeader{});
        w.beginSection("pmp");
        prod.saveState(w);
        w.endSection();
        w.finish();
    }
    refmodel::RefPmp ref;
    {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("pmp");
        ref.loadState(r);
        r.endSection();
    }
    ckptRemove(path);

    std::vector<Addr> prod_out, ref_out;
    for (std::size_t i = 6'000; i < stream.size(); ++i) {
        prod_out.clear();
        ref_out.clear();
        prod.onAccess(stream[i], prod_out);
        ref.onAccess(stream[i], ref_out);
        ASSERT_EQ(prod_out, ref_out);
    }
    EXPECT_EQ(stateBytes(prod, "pmp_cross_prod.ckpt"),
              stateBytes(ref, "pmp_cross_ref.ckpt"));
}

TEST(PmpEquiv, ReferenceCheckpointRestoresIntoProduction)
{
    refmodel::RefPmp ref;
    std::vector<Addr> stream = makeStream(2026, 12'000);
    std::vector<Addr> out;
    for (std::size_t i = 0; i < 6'000; ++i) {
        out.clear();
        ref.onAccess(stream[i], out);
    }

    const std::string path = tmpPath("pmp_cross2.ckpt");
    {
        CkptWriter w(path);
        w.writeHeader(CkptHeader{});
        w.beginSection("pmp");
        ref.saveState(w);
        w.endSection();
        w.finish();
    }
    PmpTables prod;
    {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("pmp");
        prod.loadState(r);
        r.endSection();
    }
    ckptRemove(path);

    std::vector<Addr> prod_out, ref_out;
    for (std::size_t i = 6'000; i < stream.size(); ++i) {
        prod_out.clear();
        ref_out.clear();
        prod.onAccess(stream[i], prod_out);
        ref.onAccess(stream[i], ref_out);
        ASSERT_EQ(prod_out, ref_out);
    }
    EXPECT_EQ(stateBytes(prod, "pmp_cross2_prod.ckpt"),
              stateBytes(ref, "pmp_cross2_ref.ckpt"));
}

TEST(PmpEquiv, ResetMatchesFreshTables)
{
    PmpTables a, b;
    std::vector<Addr> out;
    for (Addr addr : makeStream(5, 2'000))
        a.onAccess(addr, out);
    a.reset();
    EXPECT_EQ(stateBytes(a, "pmp_reset_a.ckpt"),
              stateBytes(b, "pmp_reset_b.ckpt"));
}

} // namespace
} // namespace pfm
