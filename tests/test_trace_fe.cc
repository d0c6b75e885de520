/**
 * @file
 * Trace-frontend tests.
 *
 * Identity property: a run replayed from a recorded trace
 * (--workload=trace:<path>) is indistinguishable from the native run
 * that recorded it — byte-identical BENCH JSON rows and the same
 * whole-machine digest outside the engine section (tests/identity.h),
 * across fastfwd on/off and bare-core/component configurations, and a
 * replay sharded through a warmup checkpoint (trace cursor serialized)
 * matches the uninterrupted replay in every section. Registry property:
 * every name in workloadNames() builds. Corruption property: every
 * malformed trace (missing file, bad magic, truncation, bit flips) dies
 * through pfm_fatal naming the trace — never a crash or a silent
 * misload.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "identity.h"
#include "sim/checkpoint.h"
#include "sim/options.h"
#include "sim/simulator.h"
#include "trace_fe/trace_format.h"
#include "trace_fe/trace_source.h"
#include "workloads/registry.h"

namespace pfm {
namespace {

std::string
tmpPath(const std::string& name)
{
    return ::testing::TempDir() + name;
}

bool
fileExists(const std::string& path)
{
    std::ifstream is(path);
    return is.good();
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

SimOptions
smallOptions(const std::string& workload, const std::string& component)
{
    SimOptions o;
    o.workload = workload;
    o.component = component;
    o.warmup_instructions = 5'000;
    o.max_instructions = 20'000;
    return o;
}

// --------------------------------------------------------------- registry

TEST(WorkloadRegistry, EveryListedNameBuilds)
{
    for (const std::string& name : workloadNames()) {
        SCOPED_TRACE(name);
        Workload w = makeWorkload(name);
        EXPECT_EQ(w.name, name);
        EXPECT_NE(w.mem, nullptr);
        EXPECT_GT(w.program.size(), 0u);
        EXPECT_TRUE(w.program.contains(w.entry));
    }
}

// ------------------------------------------------------ record -> replay

struct ReplayConfig {
    const char* name;
    const char* component;
    bool fastfwd;
};

// Prints the config by value, so the test name that ctest lists does not
// carry the struct's pointer bytes (which move with every link).
void PrintTo(const ReplayConfig& c, std::ostream* os)
{
    *os << c.component << (c.fastfwd ? "/fastfwd" : "/nofastfwd");
}

class TraceReplayIdentity : public ::testing::TestWithParam<ReplayConfig> {
};

TEST_P(TraceReplayIdentity, ReplayMatchesNativeByteForByte)
{
    const ReplayConfig& cfg = GetParam();
    const std::string trace_path =
        tmpPath(std::string("trace_id_") + cfg.name + ".pfmtrace");

    SimOptions native = smallOptions("bfs-roads", cfg.component);
    native.fastfwd = cfg.fastfwd;
    native.record_trace = trace_path;

    SimResult native_result;
    MachineDigest native_digest;
    {
        Simulator sim(native);
        native_result = sim.run();
        native_digest = sim.machineDigest();
    }
    ASSERT_TRUE(fileExists(trace_path));
    EXPECT_FALSE(fileExists(trace_path + ".tmp"));

    SimOptions replay = smallOptions("trace:" + trace_path, cfg.component);
    replay.fastfwd = cfg.fastfwd;
    {
        Simulator sim(replay);
        EXPECT_EQ(sim.workload().name, "bfs-roads");
        expectSameRow(sim.run(), native_result);
        // The engine section holds the trace cursor here and the
        // functional engine natively: different by construction.
        expectSameMachine(sim.machineDigest(), native_digest, {"engine"});
    }
    std::remove(trace_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TraceReplayIdentity,
    ::testing::Values(ReplayConfig{"bare_ff", "none", true},
                      ReplayConfig{"bare_noff", "none", false},
                      ReplayConfig{"comp_ff", "auto", true},
                      ReplayConfig{"comp_noff", "auto", false}),
    [](const ::testing::TestParamInfo<ReplayConfig>& info) {
        return info.param.name;
    });

TEST(TraceRecord, RecordingIsDeterministic)
{
    const std::string p1 = tmpPath("trace_det_1.pfmtrace");
    const std::string p2 = tmpPath("trace_det_2.pfmtrace");
    for (const std::string& p : {p1, p2}) {
        SimOptions o = smallOptions("bfs-roads", "none");
        o.record_trace = p;
        runSim(o);
    }
    EXPECT_EQ(readFile(p1), readFile(p2));
    EXPECT_EQ(trace::traceFileId(p1), trace::traceFileId(p2));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST(TraceRecord, MetaBlockIsTheDescriptorThenAnUnchangedImage)
{
    // The meta block opens with the workload descriptor, the bytes a
    // checkpoint's workload section holds, and its whole payload is what
    // the format wrote before the descriptor was split out: the length
    // and CRC below come from a trace recorded by that code with this
    // command line (`quickstart <args>`), which therefore still replays.
    const std::string path = tmpPath("trace_meta.pfmtrace");
    std::vector<std::string> args = {
        "quickstart", "--workload=astar", "--component=none",
        "--warmup=1000", "--instructions=2000", "--record-trace=" + path};
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    SimOptions o = parseCommandLine(static_cast<int>(argv.size()),
                                    argv.data());
    const SimResult native = runSim(o);

    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(nullptr, f);
    trace::readHeader(f, path);
    const trace::BlockHeader bh = trace::readBlockHeader(f, path);
    std::vector<std::uint8_t> meta;
    trace::readBlockPayload(f, bh, meta, path);
    std::fclose(f);
    const std::vector<std::uint8_t> desc =
        trace::encodeWorkloadDescriptor(makeWorkload("astar"));
    ASSERT_LT(desc.size(), meta.size());
    EXPECT_TRUE(std::equal(desc.begin(), desc.end(), meta.begin()));
    EXPECT_EQ(1063542u, meta.size());
    EXPECT_EQ(0xF68FB327u, ckptCrc32(meta.data(), meta.size()));

    SimOptions replay = o;
    replay.workload = "trace:" + path;
    replay.record_trace.clear();
    expectSameRow(runSim(replay), native);
    std::remove(path.c_str());
}

TEST(TraceReplay, RunsDryCleanlyUnderALargerBudget)
{
    const std::string path = tmpPath("trace_dry.pfmtrace");
    SimOptions rec = smallOptions("bfs-roads", "none");
    rec.record_trace = path;
    runSim(rec);

    TraceSource src(path);
    const std::uint64_t recorded = src.header().instret;
    ASSERT_GT(recorded, 0u);

    // A budget far past the recording: the replay must terminate on
    // end-of-stream (Core::done() once every produced record retired),
    // retiring exactly the recorded stream.
    SimOptions replay = smallOptions("trace:" + path, "none");
    replay.max_instructions = recorded * 10;
    SimResult r = runSim(replay);
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.instructions, recorded);
    std::remove(path.c_str());
}

// ------------------------------------------------- cursor checkpointing

TEST(TraceCheckpoint, ShardedReplayMatchesUninterrupted)
{
    const std::string trace_path = tmpPath("trace_shard.pfmtrace");
    const std::string ckpt_path = tmpPath("trace_shard.ckpt");
    SimOptions rec = smallOptions("bfs-roads", "none");
    rec.record_trace = trace_path;
    runSim(rec);

    SimOptions replay = smallOptions("trace:" + trace_path, "none");
    Simulator whole(replay);
    const SimResult r_whole = whole.run();

    SimOptions save = replay;
    save.checkpoint_save = ckpt_path;
    runSim(save);

    SimOptions load = replay;
    load.checkpoint_load = ckpt_path;
    Simulator loader(load);
    expectSameRow(loader.run(), r_whole);
    expectSameMachine(loader, whole);
    std::remove(trace_path.c_str());
    ckptRemove(ckpt_path);
}

TEST(TraceCheckpointDeathTest, ReRecordedTraceDiesByFingerprint)
{
    const std::string trace_path = tmpPath("trace_refp.pfmtrace");
    const std::string ckpt_path = tmpPath("trace_refp.ckpt");
    SimOptions rec = smallOptions("bfs-roads", "none");
    rec.record_trace = trace_path;
    runSim(rec);

    SimOptions save = smallOptions("trace:" + trace_path, "none");
    save.checkpoint_save = ckpt_path;
    runSim(save);

    // Re-record with a different length: same path, different content id.
    SimOptions rec2 = smallOptions("bfs-roads", "none");
    rec2.record_trace = trace_path;
    rec2.max_instructions = 30'000;
    runSim(rec2);

    SimOptions load = smallOptions("trace:" + trace_path, "none");
    load.checkpoint_load = ckpt_path;
    EXPECT_EXIT(runSim(load), ::testing::ExitedWithCode(1),
                "config fingerprint");
    std::remove(trace_path.c_str());
    ckptRemove(ckpt_path);
}

// -------------------------------------------------- flag incompatibility

TEST(TraceRecordDeathTest, RecordingForbidsCheckpointing)
{
    SimOptions o = smallOptions("bfs-roads", "none");
    o.record_trace = tmpPath("trace_excl.pfmtrace");
    o.checkpoint_save = tmpPath("trace_excl.ckpt");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "exclusive");
}

TEST(TraceRecordDeathTest, RecordingAReplayIsRejected)
{
    const std::string path = tmpPath("trace_rerec.pfmtrace");
    SimOptions rec = smallOptions("bfs-roads", "none");
    rec.record_trace = path;
    runSim(rec);

    SimOptions o = smallOptions("trace:" + path, "none");
    o.record_trace = tmpPath("trace_rerec2.pfmtrace");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "re-record");
    std::remove(path.c_str());
}

// ------------------------------------------------------------ corruption

/** A small recorded trace for the corruption tests. */
std::string
recordSmallTrace(const std::string& name)
{
    const std::string path = tmpPath(name);
    SimOptions o = smallOptions("bfs-roads", "none");
    o.record_trace = path;
    runSim(o);
    return path;
}

TEST(TraceCorruptionDeathTest, MissingFileIsFatal)
{
    SimOptions o = smallOptions(
        "trace:" + tmpPath("trace_does_not_exist.pfmtrace"), "none");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "cannot open");
}

TEST(TraceCorruptionDeathTest, BadMagicIsFatal)
{
    const std::string path = recordSmallTrace("trace_badmagic.pfmtrace");
    auto bytes = readFile(path);
    bytes[0] ^= 0xFF;
    writeFile(path, bytes);
    SimOptions o = smallOptions("trace:" + path, "none");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "bad magic");
    std::remove(path.c_str());
}

TEST(TraceCorruptionDeathTest, HeaderBitFlipIsFatal)
{
    const std::string path = recordSmallTrace("trace_hdrflip.pfmtrace");
    auto bytes = readFile(path);
    bytes[9] ^= 0x01; // inside the version/ISA region, caught by CRC
    writeFile(path, bytes);
    SimOptions o = smallOptions("trace:" + path, "none");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "trace ");
    std::remove(path.c_str());
}

TEST(TraceCorruptionDeathTest, TruncationIsFatal)
{
    const std::string path = recordSmallTrace("trace_trunc.pfmtrace");
    auto bytes = readFile(path);
    bytes.resize(bytes.size() / 2);
    writeFile(path, bytes);
    SimOptions o = smallOptions("trace:" + path, "none");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "trace ");
    std::remove(path.c_str());
}

TEST(TraceCorruptionDeathTest, PayloadBitFlipIsFatalByRun)
{
    const std::string path = recordSmallTrace("trace_payload.pfmtrace");
    auto bytes = readFile(path);
    // Flip one byte well into the file: lands in a block payload (CRC
    // mismatch on decode) or a block header (framing violation at open).
    bytes[bytes.size() / 2] ^= 0x10;
    writeFile(path, bytes);
    SimOptions o = smallOptions("trace:" + path, "none");
    EXPECT_EXIT(
        {
            Simulator sim(o);
            sim.run();
        },
        ::testing::ExitedWithCode(1), "trace ");
    std::remove(path.c_str());
}

TEST(TraceCorruptionDeathTest, TrailingGarbageIsFatal)
{
    const std::string path = recordSmallTrace("trace_trailing.pfmtrace");
    auto bytes = readFile(path);
    bytes.push_back(0xAB);
    writeFile(path, bytes);
    SimOptions o = smallOptions("trace:" + path, "none");
    EXPECT_EXIT({ Simulator sim(o); }, ::testing::ExitedWithCode(1),
                "trailing bytes");
    std::remove(path.c_str());
}

} // namespace
} // namespace pfm
