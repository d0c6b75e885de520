/**
 * @file
 * Checkpoint/restore subsystem tests.
 *
 * Property: for a spread of configurations (bare core vs PFM component,
 * fastfwd on/off, short/long warmups) a run that saves a checkpoint at
 * the warmup boundary and a second run that restores it must together be
 * indistinguishable from one uninterrupted run — same BENCH row and the
 * same whole-machine digest (tests/identity.h). Corruption tests: every malformed checkpoint
 * (truncated, bit-flipped, wrong version, reordered sections, trailing
 * garbage, config drift) dies through pfm_fatal naming the checkpoint and
 * the offending section — never a crash or a silent misload. The
 * checked-in astar_bare_v5 fixture (manifest, blob store and digest
 * pair) pins the on-disk format of the current writer (regenerate with
 * PFM_REGEN_FIXTURES=1 on a format bump). Workload section: a restore
 * takes every registered workload's descriptor from its checkpoint and
 * builds nothing, and every malformed, missing or foreign descriptor
 * dies naming the 'workload' section. (Shared-store dedup and blob
 * corruption live in test_ckpt_store.cc.)
 */

#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "identity.h"
#include "isa/instruction.h"
#include "mem_sys/sim_memory.h"
#include "sim/checkpoint.h"
#include "sim/options.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "workloads/registry.h"

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

void
writeFile(const std::string& path, const std::vector<unsigned char>& data)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(os.good()) << path;
}

// ---------------------------------------------------------------- identity

struct CkConfig {
    const char* name;
    const char* workload;
    const char* component;
    const char* tokens;
    std::uint64_t warmup;
    bool fastfwd;
};

// Spread over the axes the checkpoint has to survive: bare core vs every
// FSM-prefetcher workload family, fastfwd on and off, short and long
// warmups, slow RF clocks and port policies. (astar/bfs "auto" components
// rely on warmup-snooped configuration and refuse to checkpoint; they are
// covered by the negative tests below.)
const CkConfig kConfigs[] = {
    {"astar_bare_ff", "astar", "none", "", 6000, true},
    {"astar_bare_noff_shortwarm", "astar", "none", "", 3000, false},
    {"bfs_bare_ff", "bfs-roads", "none", "", 6000, true},
    {"libq_pf_ff", "libquantum", "auto", "clk4_w4 delay0 queue32 portALL",
     6000, true},
    {"libq_pf_noff", "libquantum", "auto", "clk4_w4 delay0 queue32 portALL",
     6000, false},
    {"lbm_pf_slow_ff", "lbm", "auto", "clk8_w1 delay8 queue8 portLS1",
     12000, true},
    {"milc_pf_ff_longwarm", "milc", "auto", "", 12000, true},
    {"bwaves_pf_noff", "bwaves", "auto", "", 3000, false},
    {"leslie_pf_ff_nol1pf", "leslie", "auto", "noL1pf", 6000, true},
    // PMP adds the cache-observation tap plus the accounting tables to
    // the pfm section; both fastfwd flavours must round-trip.
    {"lbm_pmp_ff", "lbm", "pmp", "clk4_w4 delay0 queue32 portALL", 6000,
     true},
    {"astar_pmp_noff", "astar", "pmp", "", 3000, false},
};

SimOptions
ckOptions(const CkConfig& cfg)
{
    SimOptions o;
    o.workload = cfg.workload;
    o.component = cfg.component;
    o.warmup_instructions = cfg.warmup;
    o.max_instructions = 24'000;
    o.fastfwd = cfg.fastfwd;
    if (cfg.tokens[0] != '\0')
        applyTokens(o, cfg.tokens);
    return o;
}

TEST(Checkpoint, RoundTripIdentityAcrossConfigs)
{
    for (const CkConfig& cfg : kConfigs) {
        SCOPED_TRACE(cfg.name);
        const std::string path =
            tmpPath(std::string("ckpt_rt_") + cfg.name + ".ckpt");

        Simulator ref(ckOptions(cfg));
        SimResult r_ref = ref.run();

        SimOptions save_opt = ckOptions(cfg);
        save_opt.checkpoint_save = path;
        Simulator saver(save_opt);
        SimResult r_save = saver.run();

        SimOptions load_opt = ckOptions(cfg);
        load_opt.checkpoint_load = path;
        Simulator loader(load_opt);
        SimResult r_load = loader.run();

        // Saving must not perturb the run it happens in, and the
        // restored run must be indistinguishable from the uninterrupted
        // one.
        const MachineDigest d_ref = ref.machineDigest();
        expectSameRow(r_ref, r_save);
        expectSameMachine(d_ref, saver.machineDigest());
        expectSameRow(r_ref, r_load);
        expectSameMachine(d_ref, loader.machineDigest());

        ckptRemove(path);
    }
}

TEST(Checkpoint, WarmupOnlyLegPlusMeasurementLegMatchesUninterrupted)
{
    // The sharded-sweep shape with the component attached throughout: a
    // warmup-only leg (max_instructions = 0) saves, a measurement leg
    // restores, and together they must reproduce the uninterrupted run.
    const std::string path = tmpPath("ckpt_warmleg.ckpt");
    SimOptions base;
    base.workload = "libquantum";
    base.component = "auto";
    base.warmup_instructions = 6000;
    base.max_instructions = 24'000;

    Simulator ref(base);
    SimResult r_ref = ref.run();

    SimOptions warm = base;
    warm.max_instructions = 0;
    warm.checkpoint_save = path;
    Simulator warmer(warm);
    warmer.run();

    SimOptions meas = base;
    meas.checkpoint_load = path;
    Simulator loader(meas);
    SimResult r_load = loader.run();

    expectSameRow(r_ref, r_load);
    expectSameMachine(ref, loader);
    ckptRemove(path);
}

TEST(Checkpoint, BareWarmupSharedAcrossDeferredConfigs)
{
    // One bare-core warmup checkpoint must serve deferred-component
    // measurement legs of *different* PFM parameters, each matching its
    // own uninterrupted deferred-attach reference.
    const std::string path = tmpPath("ckpt_shared.ckpt");
    SimOptions warm;
    warm.workload = "lbm";
    warm.component = "none";
    warm.warmup_instructions = 4000;
    warm.max_instructions = 0;
    warm.checkpoint_save = path;
    Simulator warmer(warm);
    warmer.run();

    for (const char* tokens : {"clk4_w4 delay0 queue32 portALL",
                               "clk8_w1 delay8 queue8 portLS1"}) {
        SCOPED_TRACE(tokens);
        SimOptions leg;
        leg.workload = "lbm";
        leg.component = "auto";
        leg.defer_component = true;
        leg.warmup_instructions = 4000;
        leg.max_instructions = 16'000;
        applyTokens(leg, tokens);

        Simulator ref(leg);
        SimResult r_ref = ref.run();

        SimOptions load = leg;
        load.checkpoint_load = path;
        Simulator loader(load);
        SimResult r_load = loader.run();

        expectSameRow(r_ref, r_load);
        expectSameMachine(ref, loader);
    }
    ckptRemove(path);
}

TEST(Checkpoint, PmpWarmupAndDeferredAttachIdentity)
{
    // PMP has static configuration, so it is deferral-eligible: a
    // bare-core warmup checkpoint plus a deferred PMP measurement leg
    // must match the uninterrupted deferred PMP run — including the
    // pattern tables and accounting state that begin empty at the
    // boundary ROI begin.
    const std::string path = tmpPath("ckpt_pmp_defer.ckpt");
    SimOptions warm;
    warm.workload = "lbm";
    warm.component = "none";
    warm.warmup_instructions = 4000;
    warm.max_instructions = 0;
    warm.checkpoint_save = path;
    Simulator warmer(warm);
    warmer.run();

    SimOptions leg;
    leg.workload = "lbm";
    leg.component = "pmp";
    leg.defer_component = true;
    leg.warmup_instructions = 4000;
    leg.max_instructions = 16'000;

    Simulator ref(leg);
    SimResult r_ref = ref.run();

    SimOptions load = leg;
    load.checkpoint_load = path;
    Simulator loader(load);
    SimResult r_load = loader.run();

    expectSameRow(r_ref, r_load);
    expectSameMachine(ref, loader);
    ckptRemove(path);
}

TEST(Checkpoint, SavedFilesAreByteIdentical)
{
    // Determinism of the writer itself: two identical runs must produce
    // bit-for-bit identical manifests and blobs (hash-stable golden
    // fixtures depend on this; unordered containers are serialized
    // sorted). Each save has its own store, which the manifest does not
    // name, so the manifests may be compared whole.
    const std::string p1 = tmpPath("ckpt_det_1.ckpt");
    const std::string p2 = tmpPath("ckpt_det_2.ckpt");
    SimOptions o;
    o.workload = "libquantum";
    o.component = "auto";
    o.warmup_instructions = 5000;
    o.max_instructions = 0;

    o.checkpoint_save = p1;
    Simulator a(o);
    a.run();
    o.checkpoint_save = p2;
    Simulator b(o);
    b.run();

    EXPECT_EQ(readFile(p1), readFile(p2));
    const CkptFileInfo i1 = inspectCkptFile(p1);
    const CkptFileInfo i2 = inspectCkptFile(p2);
    ASSERT_EQ(5u, i1.blobs.size()); // workload, engine, memory, core, pfm
    ASSERT_EQ(i1.blobs.size(), i2.blobs.size());
    for (std::size_t i = 0; i < i1.blobs.size(); ++i)
        EXPECT_EQ(readFile(i1.blobs[i].path), readFile(i2.blobs[i].path));
    ckptRemove(p1);
    ckptRemove(p2);
}

TEST(Checkpoint, SweepRunnerShardedMatchesSerialReference)
{
    // End-to-end through the two-phase SweepRunner: a warmup leg saved
    // through the content-addressed store plus a measurement leg must
    // reproduce the uninterrupted deferred run, with the runner assigning
    // and cleaning up the checkpoint path.
    auto leg = []() {
        SimOptions o;
        o.workload = "lbm";
        o.component = "auto";
        o.defer_component = true;
        o.warmup_instructions = 4000;
        o.max_instructions = 16'000;
        applyTokens(o, "clk4_w4 delay0 queue32 portALL");
        return o;
    };
    SimOptions warm;
    warm.workload = "lbm";
    warm.component = "none";
    warm.warmup_instructions = 4000;

    SweepSpec spec;
    RunHandle w = spec.addWarmup("warmup/lbm", warm);
    RunHandle serial = spec.add("serial/lbm", leg());
    RunHandle shard = spec.addMeasurement("sharded/lbm", leg(), w);

    SweepRunner runner(2);
    runner.run(spec);

    expectSameRow(runner.sim(serial), runner.sim(shard));
    // The warmup leg retired exactly the warmup budget and measured
    // nothing.
    EXPECT_EQ(0.0, runner.sim(w).ipc);
}

// ---------------------------------------------------------- shared restore

/**
 * The daemon's leg shape on its largest image: a libquantum leg with a
 * deferred prefetcher restored from a bare warmup at @p ckpt (none:
 * the uninterrupted reference). libquantum stores into its register
 * array, so every leg takes private copies of pages it shares.
 */
SimOptions
sharedLeg(const std::string& ckpt)
{
    SimOptions o;
    o.workload = "libquantum";
    o.component = "auto";
    o.defer_component = true;
    o.warmup_instructions = 6000;
    o.max_instructions = 24'000;
    applyTokens(o, "clk4_w4 delay0 queue32 portALL");
    o.checkpoint_load = ckpt;
    return o;
}

std::string
saveSharedWarmup(const std::string& name)
{
    const std::string path = tmpPath(name);
    SimOptions warm = sharedLeg("");
    warm.component = "none";
    warm.defer_component = false;
    warm.max_instructions = 0;
    warm.checkpoint_save = path;
    Simulator warmer(warm);
    warmer.run();
    return path;
}

TEST(SharedRestore, SiblingRunLeavesARestoredImageAlone)
{
    // Two simulators restored from one checkpoint share its memory image
    // (the decoded engine blob). Running one to its budget must leave the
    // other exactly as restored, and its own run must then match an
    // uninterrupted one.
    const std::string path = saveSharedWarmup("shared_sibling.ckpt");
    Simulator ref(sharedLeg(""));
    const SimResult r_ref = ref.run();

    Simulator idle(sharedLeg(path));
    idle.loadCheckpoint(path);
    const MachineDigest restored = idle.machineDigest();

    Simulator busy(sharedLeg(path));
    const SimResult r_busy = busy.run();
    expectSameRow(r_ref, r_busy);
    expectSameMachine(ref, busy);

    expectSameMachine(restored, idle.machineDigest());
    const SimResult r_idle = idle.run();
    expectSameRow(r_ref, r_idle);
    expectSameMachine(ref, idle);
    ckptRemove(path);
}

TEST(SharedRestore, ConcurrentLegsOnTwoThreadsMatchUninterrupted)
{
    // The daemon's two workers: each builds and runs a leg restored from
    // one warm checkpoint at the same time. A third simulator restored
    // first keeps the blob decoded, so both legs map its pages, and it
    // must still read as restored when they are done.
    const std::string path = saveSharedWarmup("shared_threads.ckpt");
    Simulator ref(sharedLeg(""));
    const SimResult r_ref = ref.run();

    Simulator keeper(sharedLeg(path));
    keeper.loadCheckpoint(path);
    const MachineDigest restored = keeper.machineDigest();

    std::unique_ptr<Simulator> legs[2];
    SimResult results[2];
    std::vector<std::thread> workers;
    for (int i = 0; i < 2; ++i)
        workers.emplace_back([&, i] {
            legs[i] = std::make_unique<Simulator>(sharedLeg(path));
            results[i] = legs[i]->run();
        });
    for (std::thread& t : workers)
        t.join();

    for (int i = 0; i < 2; ++i) {
        SCOPED_TRACE(i);
        expectSameRow(r_ref, results[i]);
        expectSameMachine(ref, *legs[i]);
    }
    expectSameMachine(restored, keeper.machineDigest());
    ckptRemove(path);
}

// ------------------------------------------------------------------ oracle

TEST(MachineDigest, EqualRunsAgreeAndOneCounterNamesItsSection)
{
    SimOptions o;
    o.workload = "lbm";
    o.component = "auto";
    o.warmup_instructions = 2000;
    o.max_instructions = 8000;
    Simulator a(o);
    a.run();
    Simulator b(o);
    b.run();

    // The digest-only writer folds each put() into a running CRC.
    EXPECT_EQ(ckptCrc32("abcdefghij", 10),
              ckptCrc32("hij", 3, ckptCrc32("abcdefg", 7)));

    const MachineDigest da = a.machineDigest();
    ASSERT_EQ(4u, da.size());
    EXPECT_EQ("engine", da[0].name);
    EXPECT_EQ("memory", da[1].name);
    EXPECT_EQ("core", da[2].name);
    EXPECT_EQ("pfm", da[3].name);
    expectSameMachine(da, b.machineDigest());

    // One L1D counter is a few bytes of a multi-megabyte image; the
    // oracle must still see it and blame the hierarchy.
    ++b.memory().l1d().stats().counter("misses");
    EXPECT_NONFATAL_FAILURE(expectSameMachine(da, b.machineDigest()),
                            "section 'memory'");
    expectSameMachine(da, b.machineDigest(), {"memory"});
}

TEST(MachineDigest, UncoveredComponentListIsExact)
{
    // Every component the simulator can attach: the ones that do not
    // checkpoint (whose private state the digest misses) must be exactly
    // the declared list, so the list can only shrink.
    const std::pair<const char*, const char*> kAttachable[] = {
        {"astar", "auto"},       {"astar", "alt"},
        {"astar", "slipstream"}, {"bfs-roads", "auto"},
        {"bfs-roads", "slipstream"}, {"libquantum", "auto"},
        {"bwaves", "auto"},      {"lbm", "auto"},
        {"milc", "auto"},        {"leslie", "auto"},
        {"lbm", "pmp"},
    };
    std::set<std::string> uncovered;
    for (const auto& [workload, component] : kAttachable) {
        SimOptions o;
        o.workload = workload;
        o.component = component;
        Simulator sim(o);
        ASSERT_NE(nullptr, sim.pfm());
        const CustomComponent* comp = sim.pfm()->component();
        if (!comp->supportsCheckpoint())
            uncovered.insert(comp->name());
    }
    EXPECT_EQ(kDigestUncoveredComponents, uncovered);
}

// ------------------------------------------------------------- serializer

TEST(Checkpoint, WriterReaderPrimitivesRoundTrip)
{
    const std::string path = tmpPath("ckpt_prims.ckpt");
    CkptHeader h;
    h.fingerprint = 0xDEADBEEFCAFEF00Dull;
    h.workload = "wl";
    h.component = "comp";
    h.retired = 1234;

    CkptWriter w(path);
    w.writeHeader(h);
    w.beginSection("alpha");
    w.put<std::uint32_t>(7);
    w.putString("hello");
    w.putVec(std::vector<std::uint64_t>{1, 2, 3});
    w.endSection();
    w.beginSection("beta");
    std::deque<std::int16_t> dq{-5, 6};
    w.putDeque(dq);
    w.endSection();
    w.finish();

    CkptReader r(path);
    CkptHeader got = r.readHeader();
    EXPECT_EQ(kCkptFormatVersion, got.version);
    EXPECT_EQ(h.fingerprint, got.fingerprint);
    EXPECT_EQ(h.workload, got.workload);
    EXPECT_EQ(h.component, got.component);
    EXPECT_EQ(h.retired, got.retired);

    r.beginSection("alpha");
    EXPECT_EQ(7u, r.get<std::uint32_t>());
    EXPECT_EQ("hello", r.getString());
    std::vector<std::uint64_t> v;
    r.getVec(v);
    EXPECT_EQ((std::vector<std::uint64_t>{1, 2, 3}), v);
    r.endSection();
    r.beginSection("beta");
    std::deque<std::int16_t> dq2;
    r.getDeque(dq2);
    EXPECT_EQ(dq, dq2);
    r.endSection();
    EXPECT_TRUE(r.atEnd());
    ckptRemove(path);
}

// ------------------------------------------------------------ atomic write

/** Minimal valid image via the primitives (no simulator run needed). */
void
writeTinyImage(const std::string& path, std::uint32_t payload)
{
    CkptHeader h;
    h.fingerprint = 1;
    h.workload = "wl";
    h.component = "comp";
    h.retired = 0;
    CkptWriter w(path);
    w.writeHeader(h);
    w.beginSection("alpha");
    w.put<std::uint32_t>(payload);
    w.endSection();
    w.finish();
}

bool
fileExists(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    return is.good();
}

TEST(Checkpoint, SuccessfulSaveLeavesNoTempFile)
{
    const std::string path = tmpPath("ckpt_atomic_clean.ckpt");
    writeTinyImage(path, 7);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
    ckptRemove(path);
}

TEST(Checkpoint, StaleTempFromInterruptedWriteIsInvisible)
{
    // A writer killed between fwrite and rename leaves only <path>.tmp.
    // Readers must never see it — the final path stays absent — and a
    // later save replaces the stale temp and publishes atomically.
    const std::string path = tmpPath("ckpt_atomic_stale.ckpt");
    writeFile(path + ".tmp", {0xDE, 0xAD, 0xBE, 0xEF});
    EXPECT_FALSE(fileExists(path));
    writeTinyImage(path, 42);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
    CkptReader r(path);
    r.readHeader();
    r.beginSection("alpha");
    EXPECT_EQ(42u, r.get<std::uint32_t>());
    r.endSection();
    EXPECT_TRUE(r.atEnd());
    ckptRemove(path);
}

// ------------------------------------------------------------- corruption

using CheckpointDeathTest = ::testing::Test;

/** Small bare-core config so corruption tests stay fast. */
SimOptions
smallBareOptions()
{
    SimOptions o;
    o.workload = "astar";
    o.component = "none";
    o.warmup_instructions = 2000;
    o.max_instructions = 0;
    o.core.bp_kind = BpKind::kBimodal;
    o.mem.l2 = CacheParams{"l2", 64 * 1024, 8, 10, 16};
    o.mem.l3 = CacheParams{"l3", 256 * 1024, 16, 30, 16};
    return o;
}

std::string
saveSmallCheckpoint(const std::string& name)
{
    const std::string path = tmpPath(name);
    SimOptions o = smallBareOptions();
    o.checkpoint_save = path;
    Simulator sim(o);
    sim.run();
    return path;
}

void
loadSmall(const std::string& path)
{
    SimOptions o = smallBareOptions();
    o.checkpoint_load = path;
    o.max_instructions = 1000;
    Simulator sim(o);
    sim.run();
}

TEST(CheckpointDeathTest, MissingFileIsFatal)
{
    EXPECT_EXIT(loadSmall(tmpPath("ckpt_does_not_exist.ckpt")),
                ::testing::ExitedWithCode(1), "cannot open for reading");
}

TEST(CheckpointDeathTest, UnwritableSavePathIsFatalAndLeavesNothing)
{
    // Creating the store fails before a single byte lands anywhere; the
    // death-test child shares our filesystem, so the parent can assert
    // neither the manifest, its temp nor its store exists afterwards.
    const std::string path =
        tmpPath("ckpt_no_such_dir") + "/ckpt_unwritable.ckpt";
    SimOptions o = smallBareOptions();
    o.checkpoint_save = path;
    EXPECT_EXIT(
        {
            Simulator sim(o);
            sim.run();
        },
        ::testing::ExitedWithCode(1), "cannot create store directory");
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
    struct stat st{};
    EXPECT_NE(0, ::stat(ckptStoreDir(path, "").c_str(), &st));
}

TEST(CheckpointDeathTest, RenameFailureRemovesTempImage)
{
    // Final path occupied by a directory: the blobs and the temp manifest
    // are written but the rename cannot publish the manifest. The failure
    // path must remove the temp so an interrupted save leaves no partial
    // manifest under either name.
    const std::string path = tmpPath("ckpt_rename_blocked");
    ASSERT_EQ(0, ::mkdir(path.c_str(), 0755));
    EXPECT_EXIT(writeTinyImage(path, 9), ::testing::ExitedWithCode(1),
                "cannot rename temp manifest into place");
    EXPECT_FALSE(fileExists(path + ".tmp"));
    ::rmdir(path.c_str());
    ckptStoreRemoveDir(ckptStoreDir(path, ""));
}

TEST(CheckpointDeathTest, TruncatedFileIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_trunc.ckpt");
    std::vector<unsigned char> bytes = readFile(path);
    bytes.resize(bytes.size() / 2);
    writeFile(path, bytes);
    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "truncated");
    ckptRemove(path);
}

/**
 * Flip the low bit of the first stored byte of the blob holding the
 * checkpoint's final section: a raw payload byte (the CRC fails) or the
 * first LZ token, whose match length then no longer adds up (the stream
 * fails to decode). Only the file changes: the blob was never read here,
 * so the death-test child cannot be served a cached copy.
 */
void
flipLastSectionBlob(const std::string& path)
{
    const CkptFileInfo info = inspectCkptFile(path);
    ASSERT_FALSE(info.blobs.empty()) << path;
    const std::string blob = info.blobs.back().path;
    std::vector<unsigned char> bytes = readFile(blob);
    ASSERT_GT(bytes.size(), kCkptBlobHeaderBytes);
    bytes[kCkptBlobHeaderBytes] ^= 0x01;
    writeFile(blob, bytes);
}

TEST(CheckpointDeathTest, FlippedPayloadByteIsFatalWithSectionName)
{
    const std::string path = saveSmallCheckpoint("ckpt_flip.ckpt");
    // Both failure modes must name the final ("core") section.
    flipLastSectionBlob(path);
    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "(corrupt compressed blob|CRC mismatch in blob).*"
                "section 'core'");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, FlippedHeaderAndFlagBitsAreFatal)
{
    // Manifest of the small bare checkpoint: magic u64, version u32,
    // fingerprint u64, "astar" and "none" (u32 length + bytes), retired
    // u64 at offsets 37..44, the store subdir (empty: the file's own),
    // the section count (4), then the entries ("workload": name, hash
    // u64, raw length u64, raw CRC u32, flags u8 at 85). Flipped header bits
    // fail the manifest CRC; a flag bit no writer sets, with the CRC
    // re-signed, fails the flags check.
    struct Corruption {
        std::size_t offset;
        unsigned char bits;
        bool resign;
        const char* message;
    };
    const Corruption cases[] = {
        {37, 0x01, false, "manifest CRC mismatch"},
        {44, 0x80, false, "manifest CRC mismatch"},
        {85, 0x10, true,
         "unknown flags 1[67] in manifest entry 'workload'"},
    };
    for (const Corruption& c : cases) {
        SCOPED_TRACE(c.offset);
        const std::string path = saveSmallCheckpoint("ckpt_hdr.ckpt");
        std::vector<unsigned char> bytes = readFile(path);
        ASSERT_GT(bytes.size(), 86u);
        ASSERT_EQ(0, std::memcmp(&bytes[45], "\0\0\0\0\4\0\0\0"
                                             "\x08\0\0\0workload", 20));
        bytes[c.offset] ^= c.bits;
        if (c.resign) {
            const std::uint32_t crc =
                ckptCrc32(bytes.data(), bytes.size() - 4);
            std::memcpy(&bytes[bytes.size() - 4], &crc, 4);
        }
        writeFile(path, bytes);
        EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                    c.message);
        ckptRemove(path);
    }
}

/**
 * Rewrite the checkpoint at @p path section by section through
 * CkptReader and CkptWriter, letting @p mutate edit each raw payload: a
 * corruption that keeps every CRC valid, so only the loaders' own checks
 * can catch it. @p write, when given, lists the sections to write back
 * (each one of @p names) in order: a section dropped or moved.
 */
void
rewriteSections(
    const std::string& path, const std::vector<std::string>& names,
    const std::function<void(const CkptHeader&, const std::string&,
                             std::vector<unsigned char>&)>& mutate,
    std::vector<std::string> write = {})
{
    CkptReader r(path);
    const CkptHeader h = r.readHeader();
    std::vector<std::vector<unsigned char>> payloads;
    for (const std::string& name : names) {
        r.beginSection(name);
        payloads.emplace_back(r.remaining());
        r.getBytes(payloads.back().data(), payloads.back().size());
        r.endSection();
        mutate(h, name, payloads.back());
    }
    ASSERT_TRUE(r.atEnd());

    if (write.empty())
        write = names;
    CkptWriter w(path);
    w.writeHeader(h);
    for (const std::string& name : write) {
        const std::size_t i = static_cast<std::size_t>(
            std::find(names.begin(), names.end(), name) - names.begin());
        ASSERT_LT(i, names.size()) << name;
        w.beginSection(name);
        w.putBytes(payloads[i].data(), payloads[i].size());
        w.endSection();
    }
    w.finish();
}

TEST(CheckpointDeathTest, IqListDisagreeingWithSlabIsFatal)
{
    // The IQ is derived state: the loader checks the stored list against
    // the slab's waiting records. Drop one entry from the "core" payload
    // and save it again, so only that check can catch it.
    const std::string path = saveSmallCheckpoint("ckpt_iq.ckpt");
    std::uint64_t dropped = 0;
    rewriteSections(path, {"workload", "engine", "memory", "core"},
                    [&dropped](const CkptHeader& h, const std::string& name,
                               std::vector<unsigned char>& bytes) {
        if (name != "core")
            return;
        auto u64At = [&bytes](std::size_t off) {
            std::uint64_t v;
            std::memcpy(&v, &bytes[off], 8);
            return v;
        };

        // The slab window follows retired_ (== the header's retired
        // count) and halt_retired_: head_seq_ (== retired_),
        // dispatch_end_, fetch_end_, engine_next_, staged_valid_, then
        // one fixed-size record per seq of [head_seq_, engine_next_),
        // each led by its seq.
        std::vector<unsigned char> window(17, 0);
        std::memcpy(&window[0], &h.retired, 8);
        std::memcpy(&window[9], &h.retired, 8);
        auto w = std::search(bytes.begin(), bytes.end(), window.begin(),
                             window.end());
        ASSERT_NE(bytes.end(), w);
        const std::size_t head_at =
            static_cast<std::size_t>(w - bytes.begin() + 9);
        const std::uint64_t head = u64At(head_at);
        const std::uint64_t dispatch_end = u64At(head_at + 8);
        const std::uint64_t engine_next = u64At(head_at + 24);
        // seq, pc, next_pc, taken, mem_addr, mem_size, result,
        // store_val, dispatch_ready, 5 prediction flags, state, src1,
        // src2, complete_cycle, mem_barrier, forwarded, forwarded_from,
        // service_level.
        const std::size_t kRecordBytes = 8 * 3 + 1 + 8 + 1 + 8 * 3 + 5 +
                                         1 + 8 * 4 + 1 + 8 + 4;
        const std::size_t records = head_at + 33;
        for (std::uint64_t s = head; s != engine_next; ++s)
            ASSERT_EQ(s, u64At(records + (s - head) * kRecordBytes));

        const std::size_t iq =
            records + (engine_next - head) * kRecordBytes;
        const std::uint64_t n = u64At(iq);
        ASSERT_GT(n, 0u) << "no waiting instruction at the save point";
        dropped = u64At(iq + 8);
        ASSERT_GE(dropped, head);
        ASSERT_LT(dropped, dispatch_end);
        const std::uint64_t fewer = n - 1;
        std::memcpy(&bytes[iq], &fewer, 8);
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(iq + 8),
                    bytes.begin() + static_cast<std::ptrdiff_t>(iq + 16));
    });
    ASSERT_NE(0u, dropped);

    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "IQ list lacks waiting seq " + std::to_string(dropped) +
                    " \\(section 'core'\\)");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, EnginePageIndicesOutOfOrderRepeatedOrBeyondCap)
{
    // The engine payload holds the registers, pc, seq and halted flag,
    // then the memory image: a page count and one {index u64, 4 KiB}
    // entry per page in strictly ascending index order. Each case edits
    // one index and keeps every CRC valid, so only the memory loader can
    // catch it, naming the index and the section.
    const std::size_t count_at = kNumArchRegs * sizeof(RegVal) + 8 + 8 + 1;
    const std::size_t entry_bytes = 8 + SimMemory::kPageBytes;
    auto indexAt = [&](std::vector<unsigned char>& bytes, std::size_t i) {
        return &bytes[count_at + 8 + i * entry_bytes];
    };
    struct Case {
        const char* name;
        std::function<std::string(std::vector<unsigned char>&)> mutate;
    };
    const Case cases[] = {
        {"out of order",
         [&](std::vector<unsigned char>& bytes) {
             std::uint64_t first;
             std::memcpy(&first, indexAt(bytes, 0), 8);
             std::swap_ranges(indexAt(bytes, 0), indexAt(bytes, 0) + 8,
                              indexAt(bytes, 1));
             return std::to_string(first) + " out of order";
         }},
        {"repeated",
         [&](std::vector<unsigned char>& bytes) {
             std::uint64_t first;
             std::memcpy(&first, indexAt(bytes, 0), 8);
             std::memcpy(indexAt(bytes, 1), &first, 8);
             return std::to_string(first) + " repeated";
         }},
        {"beyond the cap",
         [&](std::vector<unsigned char>& bytes) {
             std::uint64_t n;
             std::memcpy(&n, &bytes[count_at], 8);
             const std::uint64_t cap = SimMemory::kMaxPages;
             std::memcpy(indexAt(bytes, n - 1), &cap, 8);
             return std::to_string(cap) +
                    " beyond the simulated address space";
         }},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        const std::string path = saveSmallCheckpoint("ckpt_pages.ckpt");
        std::string message;
        rewriteSections(path, {"workload", "engine", "memory", "core"},
                        [&](const CkptHeader&, const std::string& name,
                            std::vector<unsigned char>& bytes) {
            if (name != "engine")
                return;
            std::uint64_t n;
            std::memcpy(&n, &bytes[count_at], 8);
            ASSERT_GE(n, 2u);
            ASSERT_GT(bytes.size(), count_at + 8 + n * entry_bytes + 8);
            std::uint64_t first;
            std::uint64_t second;
            std::memcpy(&first, indexAt(bytes, 0), 8);
            std::memcpy(&second, indexAt(bytes, 1), 8);
            ASSERT_LT(first, second); // the layout above is right
            message = c.mutate(bytes);
        });
        ASSERT_FALSE(message.empty());
        EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                    "memory page index " + message +
                        " \\(section 'engine'\\)");
        ckptRemove(path);
    }
}

TEST(CheckpointDeathTest, WrongVersionTagIsFatal)
{
    // 99: from the future. 4: the retired layout without a workload
    // section. 3: the retired per-line cache layout. 2: the retired
    // pre-compression layout.
    for (unsigned char version : {99, 4, 3, 2}) {
        SCOPED_TRACE(static_cast<int>(version));
        const std::string path = saveSmallCheckpoint("ckpt_ver.ckpt");
        std::vector<unsigned char> bytes = readFile(path);
        // Format version u32 sits right after the u64 magic and is
        // checked before the manifest CRC.
        bytes[8] = version;
        writeFile(path, bytes);
        EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                    "format version " + std::to_string(version) +
                        " != supported version 5");
        ckptRemove(path);
    }
}

TEST(CheckpointDeathTest, BadMagicIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_magic.ckpt");
    std::vector<unsigned char> bytes = readFile(path);
    bytes[0] ^= 0xFF;
    writeFile(path, bytes);
    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "bad magic, not a PFM checkpoint");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, TrailingBytesAreFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_trail.ckpt");
    std::vector<unsigned char> bytes = readFile(path);
    bytes.insert(bytes.end(), {1, 2, 3, 4});
    writeFile(path, bytes);
    EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                "trailing bytes after manifest");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, SectionOrderMismatchIsFatal)
{
    const std::string path = tmpPath("ckpt_order.ckpt");
    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("alpha");
    w.put<std::uint32_t>(1);
    w.endSection();
    w.finish();

    auto read_wrong_order = [&path] {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("beta");
    };
    EXPECT_EXIT(read_wrong_order(), ::testing::ExitedWithCode(1),
                "expected section 'beta', found 'alpha' \\(section order "
                "mismatch\\)");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, UnconsumedSectionBytesAreFatal)
{
    const std::string path = tmpPath("ckpt_under.ckpt");
    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("alpha");
    w.put<std::uint64_t>(42);
    w.endSection();
    w.finish();

    auto underread = [&path] {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("alpha");
        r.get<std::uint32_t>();
        r.endSection();
    };
    EXPECT_EXIT(underread(), ::testing::ExitedWithCode(1),
                "unconsumed payload bytes.*section 'alpha'");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, ImplausibleElementCountIsFatal)
{
    const std::string path = tmpPath("ckpt_count.ckpt");
    CkptWriter w(path);
    w.writeHeader(CkptHeader{});
    w.beginSection("alpha");
    w.put<std::uint64_t>(0xFFFFFFFFFFFFull); // count with no bytes behind it
    w.endSection();
    w.finish();

    auto overread = [&path] {
        CkptReader r(path);
        r.readHeader();
        r.beginSection("alpha");
        std::vector<std::uint64_t> v;
        r.getVec(v);
    };
    EXPECT_EXIT(overread(), ::testing::ExitedWithCode(1),
                "implausible element count.*section 'alpha'");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, WrongWorkloadIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_wl.ckpt");
    auto load_other = [&path] {
        SimOptions o = smallBareOptions();
        o.workload = "bfs-roads";
        o.checkpoint_load = path;
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(load_other(), ::testing::ExitedWithCode(1),
                "saved for workload 'astar', not 'bfs-roads'");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, ComponentPresenceMismatchIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_comp.ckpt");
    auto load_with_component = [&path] {
        SimOptions o = smallBareOptions();
        o.component = "auto"; // bare checkpoint, component attached now
        o.checkpoint_load = path;
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(load_with_component(), ::testing::ExitedWithCode(1),
                "lacks a PFM component but this simulator attached one");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, ConfigFingerprintDriftIsFatal)
{
    const std::string path = saveSmallCheckpoint("ckpt_fp.ckpt");
    auto load_other_config = [&path] {
        SimOptions o = smallBareOptions();
        o.core.rob_size = 128; // warmed-up state depends on this
        o.checkpoint_load = path;
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(load_other_config(), ::testing::ExitedWithCode(1),
                "config fingerprint");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, CorruptPmpSectionIsFatalWithSectionName)
{
    // The PMP tables and prefetch accounting serialize into the trailing
    // "pfm" section; a flipped payload byte there must die through the
    // CRC check naming that section, never restore garbage tables.
    const std::string path = tmpPath("ckpt_pmp_flip.ckpt");
    SimOptions o;
    o.workload = "lbm";
    o.component = "pmp";
    o.warmup_instructions = 4000;
    o.max_instructions = 0;
    o.checkpoint_save = path;
    Simulator saver(o);
    saver.run();

    flipLastSectionBlob(path); // the final ("pfm") section

    auto load_pmp = [&path] {
        SimOptions lo;
        lo.workload = "lbm";
        lo.component = "pmp";
        lo.warmup_instructions = 4000;
        lo.max_instructions = 1000;
        lo.checkpoint_load = path;
        Simulator sim(lo);
        sim.run();
    };
    EXPECT_EXIT(load_pmp(), ::testing::ExitedWithCode(1),
                "(corrupt compressed blob|CRC mismatch in blob).*"
                "section 'pfm'");
    ckptRemove(path);
}

TEST(CheckpointDeathTest, UnsupportedComponentSaveIsFatal)
{
    // The astar predictor's configuration is snooped during warmup;
    // checkpointing through it would silently drop that state, so the
    // simulator must refuse by name.
    auto save_astar_auto = [] {
        SimOptions o;
        o.workload = "astar";
        o.component = "auto";
        o.warmup_instructions = 2000;
        o.max_instructions = 0;
        o.checkpoint_save = tmpPath("ckpt_astar_auto.ckpt");
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(save_astar_auto(), ::testing::ExitedWithCode(1),
                "component 'astar-predictor' does not support "
                "checkpointing");
}

TEST(CheckpointDeathTest, UnsupportedComponentDeferralIsFatal)
{
    auto defer_astar_auto = [] {
        SimOptions o;
        o.workload = "astar";
        o.component = "auto";
        o.defer_component = true;
        o.warmup_instructions = 2000;
        o.max_instructions = 1000;
        Simulator sim(o);
        sim.run();
    };
    EXPECT_EXIT(defer_astar_auto(), ::testing::ExitedWithCode(1),
                "cannot be attached at the warmup boundary");
}

// ------------------------------------------------------ workload section

/** Every descriptor field of @p got equals @p want's; the image aside. */
void
expectSameDescriptor(const Workload& want, const Workload& got)
{
    EXPECT_EQ(want.name, got.name);
    EXPECT_EQ(want.entry, got.entry);
    EXPECT_EQ(want.program.base(), got.program.base());
    ASSERT_EQ(want.program.size(), got.program.size());
    for (std::size_t i = 0; i < want.program.size(); ++i) {
        const Instruction& a = want.program.inst(i);
        const Instruction& b = got.program.inst(i);
        EXPECT_TRUE(a.op == b.op && a.rd == b.rd && a.rs1 == b.rs1 &&
                    a.rs2 == b.rs2 && a.imm == b.imm &&
                    a.target == b.target)
            << "instruction " << i << ": " << formatInst(a) << " vs "
            << formatInst(b);
    }
    EXPECT_EQ(want.program.labels(), got.program.labels());
    EXPECT_EQ(want.init_regs, got.init_regs);
    EXPECT_EQ(want.pcs, got.pcs);
    EXPECT_EQ(want.data, got.data);
    EXPECT_EQ(want.meta, got.meta);
}

TEST(WorkloadDescriptor, RestoreTakesEveryRegisteredWorkloadFromItsCheckpoint)
{
    // A restore builds nothing: the constructor decodes the checkpoint's
    // workload section over an empty memory, and run() maps the saved
    // image into it.
    for (const std::string& name : workloadNames()) {
        SCOPED_TRACE(name);
        const std::string path = tmpPath("ckpt_desc_" + name + ".ckpt");
        SimOptions o;
        o.workload = name;
        o.component = "none";
        o.warmup_instructions = 0;
        o.max_instructions = 0;

        SimOptions save = o;
        save.checkpoint_save = path;
        Simulator saver(save);
        saver.run();

        SimOptions load = o;
        load.checkpoint_load = path;
        Simulator restored(load);
        EXPECT_TRUE(restored.workload().mem->pageIndices().empty());
        expectSameDescriptor(makeWorkload(name), restored.workload());
        restored.run();
        expectSameMachine(saver, restored);
        ckptRemove(path);
    }
}

using WorkloadDescriptorDeathTest = ::testing::Test;

TEST(WorkloadDescriptorDeathTest, MalformedDescriptorIsFatalNamingTheSection)
{
    // The astar descriptor: its name ("astar": u32 length + 5 bytes),
    // entry u64, program base u64, instruction count u64 at 25, then 16
    // bytes per instruction from 33 (opcode u8, rd/rs1/rs2 u8, imm i64,
    // target i32), the label count u64 and one {name, index u64} per
    // label. Each case edits the payload and keeps every CRC valid, so
    // only the descriptor decoder can catch it.
    constexpr std::size_t kInsts = 33;
    auto labelsAt = [](const std::vector<unsigned char>& bytes) {
        std::uint64_t n;
        std::memcpy(&n, &bytes[25], 8);
        return kInsts + 16 * static_cast<std::size_t>(n);
    };
    struct Case {
        const char* name;
        std::function<std::string(std::vector<unsigned char>&)> mutate;
    };
    const Case cases[] = {
        {"unknown opcode",
         [](std::vector<unsigned char>& bytes) {
             bytes[kInsts] = 0xFF;
             return std::string("invalid opcode 255");
         }},
        {"register beyond the file",
         [](std::vector<unsigned char>& bytes) {
             bytes[kInsts + 1] = kNumArchRegs;
             return "instruction register " + std::to_string(kNumArchRegs) +
                    " beyond";
         }},
        {"label past the program",
         [&](std::vector<unsigned char>& bytes) {
             const std::size_t first = labelsAt(bytes) + 8;
             std::uint32_t len;
             std::memcpy(&len, &bytes[first], 4);
             const std::uint64_t past = (labelsAt(bytes) - kInsts) / 16;
             std::memcpy(&bytes[first + 4 + len], &past, 8);
             return "label '.*' index " + std::to_string(past) +
                    " past the program";
         }},
        {"label repeated",
         [&](std::vector<unsigned char>& bytes) {
             // Replace every label with two copies of {"a", index 0}.
             const std::size_t count = labelsAt(bytes);
             std::uint64_t n;
             std::memcpy(&n, &bytes[count], 8);
             std::size_t end = count + 8;
             for (std::uint64_t i = 0; i < n; ++i) {
                 std::uint32_t len;
                 std::memcpy(&len, &bytes[end], 4);
                 end += 4 + len + 8;
             }
             const unsigned char two[8] = {2};
             const unsigned char label[13] = {1, 0, 0, 0, 'a'};
             std::vector<unsigned char> labels(two, two + 8);
             labels.insert(labels.end(), label, label + 13);
             labels.insert(labels.end(), label, label + 13);
             bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(count),
                         bytes.begin() + static_cast<std::ptrdiff_t>(end));
             bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(count),
                          labels.begin(), labels.end());
             return std::string("label 'a' repeated or out of order");
         }},
        {"entry outside the program",
         [](std::vector<unsigned char>& bytes) {
             std::memset(&bytes[9], 0, 8);
             return std::string("entry PC 0 outside the program");
         }},
        {"truncated string",
         [](std::vector<unsigned char>& bytes) {
             bytes.resize(6); // mid-way through "astar"
             return std::string("truncated string");
         }},
        {"trailing byte",
         [](std::vector<unsigned char>& bytes) {
             bytes.push_back(0);
             return std::string("trailing bytes after the workload "
                                "descriptor");
         }},
        {"name differs from the header",
         [](std::vector<unsigned char>& bytes) {
             bytes[4] = 'b';
             return std::string("descriptor names workload 'bstar' but "
                                "the header names 'astar'");
         }},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        const std::string path = saveSmallCheckpoint("ckpt_desc.ckpt");
        std::string message;
        rewriteSections(path, {"workload", "engine", "memory", "core"},
                        [&](const CkptHeader&, const std::string& name,
                            std::vector<unsigned char>& bytes) {
            if (name != "workload")
                return;
            ASSERT_EQ(0, std::memcmp(bytes.data(), "\5\0\0\0astar", 9));
            message = c.mutate(bytes);
        });
        ASSERT_FALSE(message.empty());
        EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                    message + ".* \\(section 'workload'\\)");
        ckptRemove(path);
    }
}

TEST(WorkloadDescriptorDeathTest, MissingOrMisorderedSectionIsFatal)
{
    const std::vector<std::vector<std::string>> orders = {
        {"engine", "memory", "core"},
        {"engine", "workload", "memory", "core"},
    };
    for (const std::vector<std::string>& order : orders) {
        SCOPED_TRACE(order.size());
        const std::string path = saveSmallCheckpoint("ckpt_desc_order.ckpt");
        rewriteSections(
            path, {"workload", "engine", "memory", "core"},
            [](const CkptHeader&, const std::string&,
               std::vector<unsigned char>&) {},
            order);
        EXPECT_EXIT(loadSmall(path), ::testing::ExitedWithCode(1),
                    "expected section 'workload', found 'engine' "
                    "\\(section order mismatch\\) \\(section 'workload'\\)");
        ckptRemove(path);
    }
}

TEST(WorkloadDescriptorDeathTest, DirectLoadOfAnotherProgramIsFatal)
{
    // loadCheckpoint() into a simulator that built its own workload
    // compares the descriptor byte for byte, so a checkpoint cannot pair
    // another program with this build's image (or this program with its).
    const std::string path = saveSmallCheckpoint("ckpt_desc_direct.ckpt");
    rewriteSections(path, {"workload", "engine", "memory", "core"},
                    [](const CkptHeader&, const std::string& name,
                       std::vector<unsigned char>& bytes) {
        if (name == "workload")
            bytes[33 + 4] ^= 1; // the first instruction's immediate
    });
    auto load_built = [&path] {
        Simulator sim(smallBareOptions());
        sim.loadCheckpoint(path);
    };
    EXPECT_EXIT(load_built(), ::testing::ExitedWithCode(1),
                "descriptor differs from workload 'astar' as this "
                "simulator built it \\(section 'workload'\\)");
    ckptRemove(path);
}

// ------------------------------------------------------------ golden file

SimOptions
fixtureOptions()
{
    SimOptions o = smallBareOptions();
    o.max_instructions = 20'000;
    return o;
}

/** One "name:crc:bytes" field per section, space-separated. */
std::string
formatDigest(const MachineDigest& d)
{
    std::ostringstream os;
    for (const CkptSectionDigest& sec : d) {
        char crc[16];
        std::snprintf(crc, sizeof crc, "%08x", sec.crc);
        os << (&sec == &d.front() ? "" : " ") << sec.name << ":" << crc
           << ":" << sec.bytes;
    }
    return os.str();
}

MachineDigest
parseDigest(const std::string& line)
{
    MachineDigest d;
    std::istringstream is(line);
    std::string field;
    while (is >> field) {
        const std::size_t a = field.find(':');
        const std::size_t b = field.rfind(':');
        EXPECT_LT(a, b) << field;
        if (a >= b)
            break;
        d.push_back({field.substr(0, a),
                     static_cast<std::uint32_t>(
                         std::stoul(field.substr(a + 1, b - a - 1), nullptr,
                                    16)),
                     std::stoull(field.substr(b + 1))});
    }
    return d;
}

/**
 * Restore @p fixture, run the measurement and check two digests against
 * the two lines of @p digest_file: the report (SimResult head + the core
 * and memory stat dumps; the fixture is bare-core), then the whole
 * machine after the run (machineDigest(): every cache plane, DRAM slot
 * and l1i/l1d/l2/l3/dram counter the report does not show). With
 * @p regen set, write them to @p digest_file instead of comparing.
 */
void
checkFixtureDigest(const std::string& fixture,
                   const std::string& digest_file, bool regen)
{
    SimOptions o = fixtureOptions();
    o.checkpoint_load = fixture;
    Simulator sim(o);
    SimResult r = sim.run();

    char head[160];
    std::snprintf(head, sizeof head,
                  "cycles=%llu instructions=%llu ipc=%.17g mpki=%.17g\n",
                  (unsigned long long)r.cycles,
                  (unsigned long long)r.instructions, r.ipc, r.mpki);
    std::ostringstream report_os;
    report_os << head;
    sim.core().stats().dump(report_os);
    sim.memory().stats().dump(report_os);
    const std::string report = report_os.str();
    char digest[16];
    std::snprintf(digest, sizeof digest, "%08x",
                  ckptCrc32(report.data(), report.size()));
    const MachineDigest machine = sim.machineDigest();

    if (regen) {
        std::ofstream os(digest_file, std::ios::trunc);
        os << digest << "\n" << formatDigest(machine) << "\n";
        ASSERT_TRUE(os.good());
        GTEST_SKIP() << "fixture regenerated, digest " << digest;
    }

    std::ifstream is(digest_file);
    ASSERT_TRUE(is.good()) << digest_file;
    std::string expected;
    std::string expected_machine;
    std::getline(is, expected);
    std::getline(is, expected_machine);
    // A mismatch means the simulator's measured-phase behaviour or the
    // checkpoint format changed. If intentional: bump kCkptFormatVersion
    // when the *format* changed, and regenerate the fixture with
    // PFM_REGEN_FIXTURES=1.
    EXPECT_EQ(expected, digest);
    expectSameMachine(parseDigest(expected_machine), machine);
}

TEST(Checkpoint, GoldenFixtureReportDigestV5)
{
    // Current-format fixture: the manifest astar_bare_v5.ckpt and its
    // own store astar_bare_v5.ckpt.blobs/ (compressed blobs, so the
    // digests also pin the blob encoding).
    const std::string dir = PFM_FIXTURES_DIR;
    const std::string fixture = dir + "/astar_bare_v5.ckpt";
    const bool regen = std::getenv("PFM_REGEN_FIXTURES") != nullptr;

    if (regen) {
        ckptRemove(fixture);
        SimOptions o = fixtureOptions();
        o.max_instructions = 0;
        o.checkpoint_save = fixture;
        Simulator sim(o);
        sim.run();
    }

    checkFixtureDigest(fixture, dir + "/astar_bare_v5.digest", regen);
}

} // namespace
} // namespace pfm
