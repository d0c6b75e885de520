/**
 * @file
 * Unit tests for the memory hierarchy: cache hit/miss timing, MSHR limits,
 * prefetchers, DRAM bandwidth, hierarchy composition, and the cache
 * checkpoint payload (round trip, malformed planes and MSHR arrays).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "memory/cache.h"
#include "memory/dram.h"
#include "memory/hierarchy.h"
#include "memory/next_n_line.h"
#include "memory/vldp.h"
#include "sim/checkpoint.h"

namespace pfm {
namespace {

TEST(Cache, MissThenHit)
{
    Cache c({"c", 1024, 2, 2, 4});
    CacheProbe p = c.probe(0x1000, 10, true);
    EXPECT_FALSE(p.hit);
    c.fill(0x1000, 50, false);
    p = c.probe(0x1000, 60, true);
    EXPECT_TRUE(p.hit);
    EXPECT_EQ(p.data_ready, 62u); // now + latency
}

TEST(Cache, HitUnderFillWaitsForFill)
{
    Cache c({"c", 1024, 2, 2, 4});
    c.fill(0x1000, 100, false);
    CacheProbe p = c.probe(0x1000, 60, true);
    EXPECT_TRUE(p.hit);
    EXPECT_EQ(p.data_ready, 102u); // fill completes at 100, +2 latency
}

TEST(Cache, LruEviction)
{
    // 2 ways, 64B lines, 128B cache -> 1 set.
    Cache c({"c", 128, 2, 1, 4});
    c.fill(0x0000, 0, false);
    c.fill(0x1000, 0, false);
    c.probe(0x0000, 10, true); // touch way 0 so 0x1000 is LRU
    c.fill(0x2000, 20, false); // evicts 0x1000
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(0x2000));
}

TEST(Cache, MshrLimitDelaysMisses)
{
    Cache c({"c", 1024, 2, 2, 2});
    Cycle t1 = c.mshrAcquire(0);
    c.holdMshr(300);
    Cycle t2 = c.mshrAcquire(0);
    c.holdMshr(300);
    EXPECT_EQ(t1, 0u);
    EXPECT_EQ(t2, 0u);
    // Both MSHRs busy until 300: the third miss waits.
    Cycle t3 = c.mshrAcquire(10);
    EXPECT_EQ(t3, 300u);
}

TEST(Cache, PrefetchUsefulTracking)
{
    Cache c({"c", 1024, 2, 2, 4});
    c.fill(0x1000, 10, true); // prefetched
    c.probe(0x1000, 20, true);
    EXPECT_EQ(c.stats().get("prefetch_useful"), 1u);
}

TEST(NextNLine, PrefetchesOnMissOnly)
{
    NextNLinePrefetcher pf(2);
    std::vector<Addr> out;
    pf.onAccess(0x1000, false, out);
    EXPECT_TRUE(out.empty());
    pf.onAccess(0x1000, true, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 0x1040u);
    EXPECT_EQ(out[1], 0x1080u);
}

TEST(Vldp, LearnsConstantStride)
{
    VldpPrefetcher pf;
    std::vector<Addr> out;
    // Train: lines 0,2,4,6,8 in page 0 (delta 2).
    for (int i = 0; i < 6; ++i) {
        out.clear();
        pf.onAccess(static_cast<Addr>(i) * 2 * 64, true, out);
    }
    EXPECT_FALSE(out.empty());
    // Last access was line 10; the learned +2 delta predicts line 12.
    EXPECT_EQ(out[0], Addr{12 * 64});
}

TEST(Vldp, LearnsDeltaPattern)
{
    VldpPrefetcher pf;
    std::vector<Addr> out;
    // Pattern +1, +3 repeating within a page: lines 0,1,4,5,8,9,12...
    std::vector<std::int64_t> lines = {0, 1, 4, 5, 8, 9, 12, 13, 16};
    for (auto l : lines) {
        out.clear();
        pf.onAccess(static_cast<Addr>(l) * 64, true, out);
    }
    // After the trailing (+1,+3) history the predictor offers +1: line 17.
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], Addr{17 * 64});
}

TEST(Vldp, DoesNotCrossPages)
{
    VldpPrefetcher pf;
    std::vector<Addr> out;
    for (int i = 58; i < 64; ++i) {
        out.clear();
        pf.onAccess(static_cast<Addr>(i) * 64, true, out);
    }
    for (Addr a : out)
        EXPECT_LT(a, Addr{4096});
}

TEST(Dram, FixedLatency)
{
    Dram d({250, 4, 32});
    EXPECT_EQ(d.access(100), 350u);
}

TEST(Dram, BandwidthGapSerializes)
{
    Dram d({250, 4, 32});
    Cycle a = d.access(0);
    Cycle b = d.access(0);
    Cycle c = d.access(0);
    EXPECT_EQ(a, 250u);
    EXPECT_EQ(b, 254u);
    EXPECT_EQ(c, 258u);
}

TEST(Dram, OutstandingCap)
{
    Dram d({250, 0, 2});
    Cycle a = d.access(0);
    Cycle b = d.access(0);
    Cycle c = d.access(0); // must wait for a slot
    EXPECT_EQ(a, 250u);
    EXPECT_EQ(b, 250u);
    EXPECT_GE(c, 500u);
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyParams
    smallParams()
    {
        HierarchyParams p;
        p.l1d_next_n = 0;      // disable prefetchers for exact timing
        p.vldp_enabled = false;
        return p;
    }
};

TEST_F(HierarchyTest, ColdMissGoesToDram)
{
    Hierarchy h(smallParams());
    MemAccessResult r = h.access(0x100000, 0, MemAccessType::kLoad);
    EXPECT_EQ(r.service_level, 4);
    // L1 lookup (2) + L2 lookup (10) + L3 lookup (30) + DRAM 250.
    EXPECT_EQ(r.done, 292u);
}

TEST_F(HierarchyTest, SecondAccessHitsL1)
{
    Hierarchy h(smallParams());
    MemAccessResult r1 = h.access(0x100000, 0, MemAccessType::kLoad);
    MemAccessResult r2 =
        h.access(0x100008, r1.done, MemAccessType::kLoad);
    EXPECT_EQ(r2.service_level, 1);
    EXPECT_EQ(r2.done, r1.done + 2);
}

TEST_F(HierarchyTest, HitUnderMissSharesFill)
{
    Hierarchy h(smallParams());
    MemAccessResult r1 = h.access(0x100000, 0, MemAccessType::kLoad);
    // Another access to the same line while the fill is outstanding.
    MemAccessResult r2 = h.access(0x100010, 5, MemAccessType::kLoad);
    EXPECT_EQ(r2.service_level, 1);
    EXPECT_EQ(r2.done, r1.done + 2);
}

TEST_F(HierarchyTest, IndependentMissesOverlap)
{
    Hierarchy h(smallParams());
    MemAccessResult r1 = h.access(0x100000, 0, MemAccessType::kLoad);
    MemAccessResult r2 = h.access(0x200000, 0, MemAccessType::kLoad);
    // MLP: the second miss does not serialize behind the first
    // (modulo the DRAM issue gap).
    EXPECT_LT(r2.done, r1.done + 50);
}

TEST_F(HierarchyTest, PerfectDcacheShortCircuits)
{
    HierarchyParams p = smallParams();
    p.perfect_dcache = true;
    Hierarchy h(p);
    MemAccessResult r = h.access(0x900000, 7, MemAccessType::kLoad);
    EXPECT_EQ(r.done, 9u);
    EXPECT_EQ(r.service_level, 1);
}

TEST_F(HierarchyTest, NextLinePrefetchWarmsL1)
{
    HierarchyParams p = smallParams();
    p.l1d_next_n = 2;
    Hierarchy h(p);
    h.access(0x100000, 0, MemAccessType::kLoad);
    EXPECT_TRUE(h.l1d().contains(0x100040));
    EXPECT_TRUE(h.l1d().contains(0x100080));
}

TEST_F(HierarchyTest, WarmMakesLinesHit)
{
    Hierarchy h(smallParams());
    h.warm(0x400000);
    MemAccessResult r = h.access(0x400000, 0, MemAccessType::kLoad);
    EXPECT_EQ(r.service_level, 1);
}

TEST_F(HierarchyTest, FlushForgetsEverything)
{
    Hierarchy h(smallParams());
    h.access(0x100000, 0, MemAccessType::kLoad);
    h.flush();
    MemAccessResult r = h.access(0x100000, 1000, MemAccessType::kLoad);
    EXPECT_EQ(r.service_level, 4);
}

std::string
tmpPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

std::vector<char>
readFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    return std::vector<char>(std::istreambuf_iterator<char>(is),
                             std::istreambuf_iterator<char>());
}

/** Write a one-section image whose payload @p body fills. */
void
writeImage(const std::string& path,
           const std::function<void(CkptWriter&)>& body)
{
    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("memory");
    body(w);
    w.endSection();
    w.finish();
}

/** Save @p h to @p path as a one-section image. */
void
saveHierarchy(const Hierarchy& h, const std::string& path)
{
    writeImage(path, [&h](CkptWriter& w) { h.saveState(w); });
}

void
loadHierarchy(Hierarchy& h, const std::string& path)
{
    CkptReader r(path);
    r.readHeader();
    r.beginSection("memory");
    h.loadState(r);
    r.endSection();
}

TEST(MemoryCheckpoint, SaveLoadSaveIsByteIdentical)
{
    // Default (Table 1) geometry with both prefetchers on: every cache
    // plane, the MSHR and DRAM slot arrays and the VLDP tables hold
    // non-trivial state when saved.
    Hierarchy warmed{HierarchyParams{}};
    Rng rng(7);
    Cycle now = 0;
    for (int i = 0; i < 20'000; ++i) {
        now += rng.below(4);
        const Addr addr = rng.below(1u << 22) * 8;
        warmed.access(addr, now, rng.below(4) == 0 ? MemAccessType::kStore
                                                   : MemAccessType::kLoad);
    }

    const std::string first = tmpPath("mem_roundtrip_1.ckpt");
    const std::string second = tmpPath("mem_roundtrip_2.ckpt");
    saveHierarchy(warmed, first);
    Hierarchy restored{HierarchyParams{}};
    loadHierarchy(restored, first);
    saveHierarchy(restored, second);
    EXPECT_EQ(readFile(first), readFile(second));

    // The restored copy also behaves identically from here on.
    for (int i = 0; i < 2'000; ++i) {
        now += rng.below(4);
        const Addr addr = rng.below(1u << 22) * 8;
        MemAccessResult a = warmed.access(addr, now, MemAccessType::kLoad);
        MemAccessResult b = restored.access(addr, now, MemAccessType::kLoad);
        ASSERT_EQ(a.done, b.done) << "access " << i;
        ASSERT_EQ(a.service_level, b.service_level) << "access " << i;
    }
    ckptRemove(first);
    ckptRemove(second);
}

using MemoryCheckpointDeathTest = ::testing::Test;

TEST(MemoryCheckpointDeathTest, MalformedPlanesAndMshrArraysAreFatal)
{
    // Cache "c": 1024 B, 2 ways -> 8 sets x 2 ways = 16 entries per
    // plane; 2 MSHRs. Each image gets one field wrong.
    const CacheParams params{"c", 1024, 2, 2, 2};
    const std::vector<Addr> tags(16, kBadAddr);
    const std::vector<Cycle> cycles(16, 0);
    const std::vector<std::uint8_t> flags(16, 0);
    auto planes = [&](CkptWriter& w, const std::vector<Addr>& t) {
        w.putVec(t);
        w.putVec(cycles);
        w.putVec(cycles);
        w.putVec(flags);
        w.put<std::uint64_t>(0); // LRU clock
    };

    struct Corruption {
        const char* name;
        std::function<void(CkptWriter&)> body;
        const char* message;
    };
    const std::vector<Corruption> cases = {
        {"short_tag_plane",
         [&](CkptWriter& w) { planes(w, std::vector<Addr>(15, kBadAddr)); },
         "c tag plane has 15 entries, expected 16 \\(section 'memory'\\)"},
        {"mshr_count",
         [&](CkptWriter& w) {
             planes(w, tags);
             w.putVec(std::vector<Cycle>{0, 0, 0});
         },
         "c MSHR array has 3 entries, expected 2 \\(section 'memory'\\)"},
        {"unsorted_mshrs",
         [&](CkptWriter& w) {
             planes(w, tags);
             w.putVec(std::vector<Cycle>{500, 100});
         },
         "c MSHR array is not sorted \\(section 'memory'\\)"},
    };
    for (const Corruption& c : cases) {
        SCOPED_TRACE(c.name);
        const std::string path = tmpPath(std::string("cache_") + c.name);
        writeImage(path, c.body);
        auto load = [&] {
            Cache cache(params);
            CkptReader r(path);
            r.readHeader();
            r.beginSection("memory");
            cache.loadState(r);
        };
        EXPECT_EXIT(load(), ::testing::ExitedWithCode(1), c.message);
        ckptRemove(path);
    }
}

TEST(MemoryCheckpointDeathTest, MalformedDramSlotArraysAreFatal)
{
    const std::vector<std::pair<std::vector<Cycle>, const char*>> cases = {
        {{0, 0, 0}, "dram slot array has 3 entries, expected 2"},
        {{900, 300}, "dram slot array is not sorted"},
    };
    for (const auto& [slots, message] : cases) {
        SCOPED_TRACE(message);
        const std::string path = tmpPath("dram_slots.ckpt");
        writeImage(path, [&slots = slots](CkptWriter& w) {
            w.put<Cycle>(0); // next issue cycle
            w.putVec(slots);
        });
        auto load = [&] {
            Dram dram({250, 2, 2});
            CkptReader r(path);
            r.readHeader();
            r.beginSection("memory");
            dram.loadState(r);
        };
        EXPECT_EXIT(load(), ::testing::ExitedWithCode(1), message);
        ckptRemove(path);
    }
}

} // namespace
} // namespace pfm
