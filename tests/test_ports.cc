/**
 * @file
 * TimedPort and cdc:: unit/property tests: the CDC rounding rule must be
 * monotonic and agree with the per-agent availability math it replaced
 * (ObsQ-R's now+1, IntQ-F's now + delay*clk_div + 1) across clock ratios
 * 1-8; occupancy/queueing-latency telemetry must track pushes and pops;
 * and a port holding a *padded* packet type must checkpoint round-trip
 * through the CkptIO field-wise hook with stamps intact.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "common/stats.h"
#include "common/timed_port.h"
#include "sim/checkpoint.h"

namespace pfm {
namespace {

std::string
tmpPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------
// cdc:: rounding properties
// ---------------------------------------------------------------------

TEST(CdcProperty, CrossingAvailMatchesLegacyAgentMath)
{
    // The refactor folded two per-agent formulas into crossingAvail():
    //   ObsQ-R / IntQ-IS / ObsQ-EX:  avail = now + 1          (latency 0)
    //   IntQ-F (predAvail):          avail = now + D*C + 1    (latency D*C)
    for (unsigned clk_div = 1; clk_div <= 8; ++clk_div) {
        for (unsigned delay = 0; delay <= 8; ++delay) {
            for (Cycle now = 0; now < 64; ++now) {
                EXPECT_EQ(cdc::crossingAvail(now, 0), now + 1);
                const Cycle lat =
                    static_cast<Cycle>(delay) * clk_div;
                EXPECT_EQ(cdc::crossingAvail(now, lat),
                          now + lat + 1);
            }
        }
    }
}

TEST(CdcProperty, CrossingAvailIsMonotonic)
{
    // Later pushes (or longer latencies) may never become visible
    // earlier: FIFO order through the port implies stamp order.
    for (Cycle lat = 0; lat <= 32; ++lat) {
        for (Cycle now = 0; now < 128; ++now) {
            EXPECT_LE(cdc::crossingAvail(now, lat),
                      cdc::crossingAvail(now + 1, lat));
            EXPECT_LE(cdc::crossingAvail(now, lat),
                      cdc::crossingAvail(now, lat + 1));
            EXPECT_GT(cdc::crossingAvail(now, lat), now);
        }
    }
}

TEST(CdcProperty, NextEdgeIsStrictlyLaterMinimalMultiple)
{
    for (unsigned clk_div = 1; clk_div <= 8; ++clk_div) {
        for (Cycle now = 0; now < 128; ++now) {
            const Cycle e = cdc::nextEdge(now, clk_div);
            EXPECT_GT(e, now);
            EXPECT_EQ(e % clk_div, 0u);
            EXPECT_LE(e - now, clk_div); // minimal: no edge was skipped
        }
    }
}

TEST(CdcProperty, AlignToEdgeIsMinimalAtOrAfterAndIdempotent)
{
    for (unsigned clk_div = 1; clk_div <= 8; ++clk_div) {
        for (Cycle want = 0; want < 128; ++want) {
            const Cycle e = cdc::alignToEdge(want, clk_div);
            EXPECT_GE(e, want);
            EXPECT_EQ(e % clk_div, 0u);
            EXPECT_LT(e - want, clk_div); // minimal
            EXPECT_EQ(cdc::alignToEdge(e, clk_div), e); // idempotent
        }
    }
}

TEST(CdcProperty, NextEdgeAgreesWithAlignToEdge)
{
    // nextEdge(now) is "strictly after", alignToEdge is "at or after":
    // they must coincide on alignToEdge(now + 1).
    for (unsigned clk_div = 1; clk_div <= 8; ++clk_div)
        for (Cycle now = 0; now < 128; ++now)
            EXPECT_EQ(cdc::nextEdge(now, clk_div),
                      cdc::alignToEdge(now + 1, clk_div));
}

// ---------------------------------------------------------------------
// TimedPort availability gating + telemetry
// ---------------------------------------------------------------------

TEST(TimedPort, PopReadyEnforcesAvailStamp)
{
    StatGroup stats;
    TimedPort<int> port(stats, "t", "int", 4, /*latency=*/3);

    port.push(42, /*now=*/10); // avail = 10 + 3 + 1 = 14
    int out = 0;
    EXPECT_FALSE(port.popReady(out, 13));
    EXPECT_FALSE(port.headReady(13));
    EXPECT_EQ(port.headAvail(), 14u);
    EXPECT_TRUE(port.headReady(14));
    EXPECT_TRUE(port.popReady(out, 14));
    EXPECT_EQ(out, 42);
    EXPECT_TRUE(port.empty());
    EXPECT_EQ(port.headAvail(), kNoCycle);
}

TEST(TimedPort, PopNowIgnoresAvailStamp)
{
    StatGroup stats;
    TimedPort<int> port(stats, "t", "int", 4);
    port.push(7, 100); // avail = 101
    int out = 0;
    EXPECT_TRUE(port.popNow(out, 100)); // drain before it is visible
    EXPECT_EQ(out, 7);
}

TEST(TimedPort, OccupancyAndQueueLatencyStats)
{
    StatGroup stats;
    TimedPort<int> port(stats, "t", "int", 4);

    // Occupancy is sampled *after* each push: 1, 2, 3.
    port.push(1, 0);
    port.push(2, 0);
    port.push(3, 0);
    int out = 0;
    // Queueing latency is pop-cycle minus push-cycle: 5, 9, 9.
    ASSERT_TRUE(port.popReady(out, 5));
    ASSERT_TRUE(port.popReady(out, 9));
    ASSERT_TRUE(port.popReady(out, 9));

    const PortStatsSnapshot s = port.telemetry().snapshot();
    EXPECT_EQ(s.name, "t");
    EXPECT_EQ(s.pushes, 3u);
    EXPECT_DOUBLE_EQ(s.occ_avg, 2.0);
    EXPECT_DOUBLE_EQ(s.occ_max, 3.0);
    EXPECT_EQ(s.pops, 3u);
    EXPECT_NEAR(s.qlat_avg, 23.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(s.qlat_max, 9.0);
    EXPECT_EQ(s.full_stalls, 0u);
}

TEST(TimedPort, TryPushCountsFullStalls)
{
    StatGroup stats;
    TimedPort<int> port(stats, "t", "int", 2);
    EXPECT_TRUE(port.tryPush(1, 0));
    EXPECT_TRUE(port.tryPush(2, 0));
    EXPECT_FALSE(port.tryPush(3, 0));
    EXPECT_FALSE(port.tryPushAt(4, 9, 0));
    port.noteFullStall(); // producer stalled before building a packet
    EXPECT_EQ(port.telemetry().fullStalls(), 3u);
    EXPECT_EQ(stats.get("port.t.full_stalls"), 3u);
}

TEST(TimedPort, DumpPrintsLiveContents)
{
    StatGroup stats;
    TimedPort<int> port(stats, "obsq_x", "int", 4);
    port.pushAt(5, /*avail=*/77, /*now=*/70);
    std::ostringstream os;
    port.dump(os);
    EXPECT_EQ(os.str(),
              "port obsq_x<int>: 1/4 entries, head avail=77 pushed=70, "
              "full_stalls=0\n");
}

TEST(TimedPortDeathTest, ZeroCapacityIsFatalNamingThePort)
{
    StatGroup stats;
    auto make = [&stats] {
        TimedPort<int> port(stats, "obsq_r", "int", 0);
    };
    EXPECT_EXIT(make(), ::testing::ExitedWithCode(1),
                "port 'obsq_r': queue capacity must be nonzero");
}

// ---------------------------------------------------------------------
// Checkpoint round-trip for a padded packet type
// ---------------------------------------------------------------------

/** Deliberately padded: 7 bytes of padding after `tag`. */
struct PaddedPkt {
    std::uint8_t tag = 0;
    std::uint64_t value = 0;
};
static_assert(sizeof(PaddedPkt) > 9, "test wants a padded struct");
static_assert(!kCkptRawOk<PaddedPkt>,
              "padded struct must take the CkptIO path");

} // namespace

template <> struct CkptIO<PaddedPkt> {
    static constexpr std::size_t kWireSize = 9;
    static void
    save(CkptWriter& w, const PaddedPkt& p)
    {
        w.put(p.tag);
        w.put(p.value);
    }
    static void
    load(CkptReader& r, PaddedPkt& p)
    {
        r.get(p.tag);
        r.get(p.value);
    }
};

namespace {

TEST(TimedPort, CheckpointRoundTripPaddedPacket)
{
    const std::string path = tmpPath("ckpt_timed_port.ckpt");

    StatGroup stats_a;
    TimedPort<PaddedPkt> a(stats_a, "t", "PaddedPkt", 8, /*latency=*/2);
    a.push({1, 0x1111}, 10);          // avail 13, pushed 10
    a.push({2, 0x2222}, 11);          // avail 14, pushed 11
    a.pushAt({3, 0x3333}, 99, 12);    // absolute avail, pushed 12

    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("port");
    a.saveState(w);
    w.endSection();
    w.finish();

    StatGroup stats_b;
    TimedPort<PaddedPkt> b(stats_b, "t", "PaddedPkt", 8, /*latency=*/2);
    CkptReader r(path);
    r.readHeader();
    r.beginSection("port");
    b.loadState(r);
    r.endSection();

    ASSERT_EQ(b.size(), 3u);
    // Avail stamps survive: entry 3 is gated until its absolute cycle.
    PaddedPkt out;
    ASSERT_TRUE(b.popReady(out, 13));
    EXPECT_EQ(out.tag, 1);
    EXPECT_EQ(out.value, 0x1111u);
    ASSERT_TRUE(b.popReady(out, 14));
    EXPECT_EQ(out.tag, 2);
    EXPECT_FALSE(b.popReady(out, 98));
    ASSERT_TRUE(b.popReady(out, 99));
    EXPECT_EQ(out.tag, 3);
    EXPECT_EQ(out.value, 0x3333u);

    // Pushed stamps survive too: the restored port's queueing-latency
    // samples must match what the uninterrupted port would have recorded
    // (pop at 13/14/99 minus push at 10/11/12).
    const PortStatsSnapshot s = b.telemetry().snapshot();
    EXPECT_EQ(s.pops, 3u);
    EXPECT_DOUBLE_EQ(s.qlat_max, 87.0);
    EXPECT_NEAR(s.qlat_avg, (3.0 + 3.0 + 87.0) / 3.0, 1e-9);
    ckptRemove(path);
}

TEST(TimedPort, CheckpointRoundTripEmptyPort)
{
    const std::string path = tmpPath("ckpt_timed_port_empty.ckpt");

    StatGroup stats_a;
    TimedPort<PaddedPkt> a(stats_a, "t", "PaddedPkt", 4);
    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("port");
    a.saveState(w);
    w.endSection();
    w.finish();

    StatGroup stats_b;
    TimedPort<PaddedPkt> b(stats_b, "t", "PaddedPkt", 4);
    b.push({9, 9}, 0); // stale entry must be discarded by loadState()
    CkptReader r(path);
    r.readHeader();
    r.beginSection("port");
    b.loadState(r);
    r.endSection();
    EXPECT_TRUE(b.empty());
    ckptRemove(path);
}

} // namespace
} // namespace pfm
