/**
 * @file
 * Layout-equivalence property tests for the SoA hot-structure rewrite.
 *
 * The flat-arena TAGE banks, per-kind fold arrays, SoA statistical
 * corrector, and packed loop words are layout changes only: against the
 * reference array-of-structs implementation (tests/reference_tage_scl.h,
 * kept verbatim from the pre-SoA sources) the production predictor must
 * produce identical predictions on random branch streams and an identical
 * saveState() byte stream. Because the wire format is shared, a
 * checkpoint written by either layout must restore into the other with no
 * behavioral drift — that cross-restore is the strongest single check
 * that the checkpoint image never picked up layout details.
 *
 * The sorted MSHR and DRAM slot arrays get the same treatment against
 * the linear-argmin pools they replaced (tests/reference_slots.h): equal
 * start cycles, event horizons and stall counters on random sequences.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "branch/tage.h"
#include "branch/tage_scl.h"
#include "common/rng.h"
#include "memory/cache.h"
#include "memory/dram.h"
#include "reference_slots.h"
#include "reference_tage_scl.h"
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

/** One branch event of the synthetic stream. */
struct BranchEvent {
    Addr pc;
    bool taken;
};

/**
 * A stream that exercises every predictor component: a few constant-trip
 * loops (loop predictor), history-correlated branches (tagged tables and
 * the SC), biased-random branches (base table, allocation churn), and
 * enough distinct PCs to force tag aliasing in 10-bit banks.
 */
std::vector<BranchEvent>
makeStream(std::uint64_t seed, size_t n)
{
    std::mt19937_64 rng(seed);
    std::vector<BranchEvent> ev;
    ev.reserve(n);

    // PC pool: 96 branch sites spread over a few "pages".
    std::vector<Addr> pcs;
    for (unsigned i = 0; i < 96; ++i)
        pcs.push_back(0x40'0000 + 4 * (i * 7 + (i % 3) * 1024));

    unsigned loop_iter[4] = {0, 0, 0, 0};
    const unsigned loop_trip[4] = {7, 12, 3, 33};
    std::uint64_t hist = 0;

    std::uniform_int_distribution<size_t> pick_pc(0, pcs.size() - 1);
    std::uniform_int_distribution<int> pct(0, 99);

    for (size_t i = 0; i < n; ++i) {
        int kind = pct(rng);
        if (kind < 20) {
            // Constant-trip loop branch.
            unsigned l = static_cast<unsigned>(rng() % 4);
            bool taken = ++loop_iter[l] < loop_trip[l];
            if (!taken)
                loop_iter[l] = 0;
            ev.push_back({0x50'0000 + 4096 * l, taken});
        } else if (kind < 60) {
            // History-correlated: outcome is a parity of recent outcomes.
            Addr pc = pcs[pick_pc(rng) % 32];
            bool taken = ((hist >> 2) ^ (hist >> 5) ^ (hist >> 11)) & 1;
            ev.push_back({pc, taken});
        } else if (kind < 90) {
            // Biased-random per-PC.
            size_t p = pick_pc(rng);
            bool taken = pct(rng) < static_cast<int>(20 + (p * 61) % 60);
            ev.push_back({pcs[p], taken});
        } else {
            // Pure noise on a wide PC range (allocation pressure).
            ev.push_back({0x60'0000 + 4 * (rng() & 0xFFFF), (rng() & 1) != 0});
        }
        hist = (hist << 1) | (ev.back().taken ? 1 : 0);
    }
    return ev;
}

template <typename Predictor>
std::vector<unsigned char>
stateBytes(const Predictor& p, const std::string& name)
{
    const std::string path = tmpPath(name);
    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("bp");
    p.saveState(w);
    w.endSection();
    w.finish();
    std::vector<unsigned char> bytes = readFile(path);
    ckptRemove(path);
    return bytes;
}

// ---------------------------------------------------------------- lockstep

TEST(LayoutEquiv, TageLockstepOnRandomStreams)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xDEADull}) {
        SCOPED_TRACE(seed);
        TageParams params;
        TagePredictor prod(params);
        refmodel::TagePredictor ref(params);

        for (const BranchEvent& e : makeStream(seed, 10'000)) {
            bool p = prod.predict(e.pc);
            bool r = ref.predict(e.pc);
            ASSERT_EQ(p, r) << "pc=" << std::hex << e.pc;
            prod.update(e.pc, e.taken);
            ref.update(e.pc, e.taken);
        }

        EXPECT_EQ(stateBytes(prod, "layout_tage_prod.ckpt"),
                  stateBytes(ref, "layout_tage_ref.ckpt"));
    }
}

TEST(LayoutEquiv, TageSclLockstepOnRandomStream)
{
    TageSclPredictor prod;
    refmodel::TageSclPredictor ref;

    for (const BranchEvent& e : makeStream(7, 10'000)) {
        bool p = prod.predict(e.pc);
        bool r = ref.predict(e.pc);
        ASSERT_EQ(p, r) << "pc=" << std::hex << e.pc;
        prod.update(e.pc, e.taken);
        ref.update(e.pc, e.taken);
    }

    EXPECT_EQ(stateBytes(prod, "layout_scl_prod.ckpt"),
              stateBytes(ref, "layout_scl_ref.ckpt"));
}

TEST(LayoutEquiv, TageSclFusedPathMatchesReference)
{
    // The production fused predictAndTrain() against the reference's
    // split predict()+update(): same predictions, same final state bytes.
    TageSclPredictor prod;
    refmodel::TageSclPredictor ref;

    for (const BranchEvent& e : makeStream(1234, 10'000)) {
        bool p = prod.predictAndTrain(e.pc, e.taken);
        bool r = ref.predict(e.pc);
        ref.update(e.pc, e.taken);
        ASSERT_EQ(p, r) << "pc=" << std::hex << e.pc;
    }

    EXPECT_EQ(stateBytes(prod, "layout_fused_prod.ckpt"),
              stateBytes(ref, "layout_fused_ref.ckpt"));
}

// ------------------------------------------------------------- round trips

TEST(LayoutEquiv, TageSclCheckpointRoundTripContinuesIdentically)
{
    // Train, save, restore into a fresh predictor, and run both onward:
    // the restored SoA banks must be indistinguishable from the originals.
    TageSclPredictor a;
    std::vector<BranchEvent> stream = makeStream(99, 16'000);
    for (size_t i = 0; i < 8'000; ++i) {
        a.predict(stream[i].pc);
        a.update(stream[i].pc, stream[i].taken);
    }

    const std::string path = tmpPath("layout_rt.ckpt");
    {
        CkptWriter w(path);
        w.writeHeader(CkptHeader{});
        w.beginSection("bp");
        a.saveState(w);
        w.endSection();
        w.finish();
    }
    TageSclPredictor b;
    {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("bp");
        b.loadState(r);
        r.endSection();
    }
    ckptRemove(path);

    for (size_t i = 8'000; i < stream.size(); ++i) {
        ASSERT_EQ(a.predict(stream[i].pc), b.predict(stream[i].pc));
        a.update(stream[i].pc, stream[i].taken);
        b.update(stream[i].pc, stream[i].taken);
    }
    EXPECT_EQ(stateBytes(a, "layout_rt_a.ckpt"),
              stateBytes(b, "layout_rt_b.ckpt"));
}

TEST(LayoutEquiv, ReferenceCheckpointRestoresIntoProductionLayout)
{
    // The wire format is layout-independent: state written by the
    // reference AoS model restores into the SoA production predictor and
    // the two continue in lockstep.
    refmodel::TageSclPredictor ref;
    std::vector<BranchEvent> stream = makeStream(2026, 12'000);
    for (size_t i = 0; i < 6'000; ++i) {
        ref.predict(stream[i].pc);
        ref.update(stream[i].pc, stream[i].taken);
    }

    const std::string path = tmpPath("layout_cross.ckpt");
    {
        CkptWriter w(path);
        w.writeHeader(CkptHeader{});
        w.beginSection("bp");
        ref.saveState(w);
        w.endSection();
        w.finish();
    }
    TageSclPredictor prod;
    {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("bp");
        prod.loadState(r);
        r.endSection();
    }
    ckptRemove(path);

    for (size_t i = 6'000; i < stream.size(); ++i) {
        ASSERT_EQ(prod.predict(stream[i].pc), ref.predict(stream[i].pc));
        prod.update(stream[i].pc, stream[i].taken);
        ref.update(stream[i].pc, stream[i].taken);
    }
    EXPECT_EQ(stateBytes(prod, "layout_cross_prod.ckpt"),
              stateBytes(ref, "layout_cross_ref.ckpt"));
}

TEST(LayoutEquiv, NonDefaultGeometryLockstep)
{
    // Shapes where tag_bits-1 != log_tagged_entries (so the tagB fold
    // cannot alias the index fold) and where the ctr width differs: the
    // SoA fold sharing must key off the geometry, not assume the default.
    TageParams params;
    params.num_tables = 6;
    params.log_tagged_entries = 9;
    params.tag_bits = 12;
    params.ctr_bits = 2;
    params.min_history = 4;
    params.max_history = 130;

    TagePredictor prod(params);
    refmodel::TagePredictor ref(params);

    for (const BranchEvent& e : makeStream(555, 10'000)) {
        ASSERT_EQ(prod.predict(e.pc), ref.predict(e.pc))
            << "pc=" << std::hex << e.pc;
        prod.update(e.pc, e.taken);
        ref.update(e.pc, e.taken);
    }

    EXPECT_EQ(stateBytes(prod, "layout_geom_prod.ckpt"),
              stateBytes(ref, "layout_geom_ref.ckpt"));
}

/**
 * A jittered, mostly rising cycle: steps back by up to 8 cycles now and
 * then (callers hand the pools non-monotone times) and repeats values
 * often enough to create ties between slots.
 */
Cycle
jitteredNow(Rng& rng, Cycle& base)
{
    base += rng.below(6);
    return base >= 8 ? base - rng.below(9) : base;
}

TEST(LayoutEquiv, MshrSlotsMatchArgminReference)
{
    for (unsigned mshrs : {1u, 2u, 5u, 16u, 128u}) {
        SCOPED_TRACE(mshrs);
        Cache prod({"c", 1024, 2, 2, mshrs});
        refmodel::MshrPool ref(mshrs);
        Rng rng(mshrs);
        Cycle base = 0;
        for (int step = 0; step < 20'000; ++step) {
            const Cycle now = jitteredNow(rng, base);
            const Cycle start = prod.mshrAcquire(now);
            ASSERT_EQ(ref.mshrAcquire(now), start) << "step " << step;
            // Usually hold the slot, as a demand miss does; sometimes
            // acquire only, and sometimes hold it until before `start`.
            const std::uint64_t kind = rng.below(8);
            if (kind != 0) {
                const Cycle done = kind == 1 ? rng.below(start + 1)
                                             : start + 4 * rng.below(40);
                prod.holdMshr(done);
                ref.holdMshr(done);
            }
            const Cycle q = now + rng.below(200);
            ASSERT_EQ(ref.nextEventCycle(q), prod.nextEventCycle(q))
                << "step " << step;
        }
        EXPECT_EQ(ref.mshr_stalls, prod.stats().get("mshr_stalls"));
    }
}

TEST(LayoutEquiv, DramSlotsMatchArgminReference)
{
    for (unsigned outstanding : {1u, 3u, 64u}) {
        for (unsigned gap : {0u, 2u}) {
            SCOPED_TRACE(outstanding * 10 + gap);
            const DramParams params{250, gap, outstanding};
            Dram prod(params);
            refmodel::Dram ref(params);
            Rng rng(outstanding * 31 + gap);
            Cycle base = 0;
            for (int step = 0; step < 20'000; ++step) {
                const Cycle now = jitteredNow(rng, base);
                ASSERT_EQ(ref.access(now), prod.access(now))
                    << "step " << step;
                const Cycle q = now + rng.below(600);
                ASSERT_EQ(ref.nextEventCycle(q), prod.nextEventCycle(q))
                    << "step " << step;
            }
            EXPECT_EQ(ref.queue_delay_events,
                      prod.stats().get("queue_delay_events"));
        }
    }
}

} // namespace
} // namespace pfm
