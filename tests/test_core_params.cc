/**
 * @file
 * Parameterized core-configuration tests: resource bounds and
 * monotonicity properties of the pipeline model (wider/larger never
 * hurts, narrower/smaller enforces its bound).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/core.h"
#include "isa/functional_engine.h"
#include "isa/assembler.h"

namespace pfm {
namespace {

struct RunResult {
    double ipc;
    Cycle cycles;
    std::uint64_t mispredicts;
};

RunResult
runProgram(const std::string& src, const CoreParams& cp,
           HierarchyParams hp = {})
{
    SimMemory mem;
    Program prog = assemble(src);
    FunctionalEngine engine(prog, mem);
    engine.reset(prog.base());
    Hierarchy hier(hp);
    Core core(cp, engine, hier);
    Cycle guard = 0;
    while (!core.done()) {
        core.tick();
        if (++guard > 50'000'000)
            ADD_FAILURE() << "runaway core";
    }
    return {core.ipc(), core.cycle(),
            core.stats().get("branch_mispredicts")};
}

std::string
independentAluProgram(int n)
{
    std::ostringstream os;
    for (int i = 0; i < n; ++i)
        os << "  addi x" << (1 + i % 8) << ", x0, " << i << "\n";
    os << "  halt\n";
    return os.str();
}

std::string
mlpProgram(int loads)
{
    std::ostringstream os;
    os << "  li x1, 0x400000\n";
    // Distinct pages, offset by a line each so L1 sets don't alias.
    for (int i = 0; i < loads; ++i)
        os << "  ld x" << (2 + i % 6) << ", " << i * (4096 + 64)
           << "(x1)\n";
    os << "  halt\n";
    return os.str();
}

class FetchWidthSweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(FetchWidthSweep, IpcBoundedByWidth)
{
    CoreParams cp;
    cp.fetch_width = GetParam();
    cp.retire_width = GetParam();
    cp.alu_lanes = GetParam(); // don't let lane count mask the width bound
    RunResult r = runProgram(independentAluProgram(600), cp);
    EXPECT_LE(r.ipc, static_cast<double>(GetParam()) + 0.01);
    EXPECT_GT(r.ipc, static_cast<double>(GetParam()) * 0.6);
}

INSTANTIATE_TEST_SUITE_P(Widths, FetchWidthSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(CoreParamProperty, WiderIsNeverSlower)
{
    std::string prog = independentAluProgram(800);
    CoreParams narrow;
    narrow.fetch_width = narrow.retire_width = 2;
    CoreParams wide;
    wide.fetch_width = wide.retire_width = 6;
    EXPECT_LE(runProgram(prog, narrow).ipc,
              runProgram(prog, wide).ipc + 0.01);
}

TEST(CoreParamProperty, BiggerRobExtractsMoreMlp)
{
    HierarchyParams hp;
    hp.l1d_next_n = 0;
    hp.vldp_enabled = false;
    hp.l1d.mshrs = 96; // make the ROB, not the MSHR pool, the MLP limiter
    std::string prog = mlpProgram(96);
    CoreParams small;
    small.rob_size = 16;
    small.iq_size = 16;
    CoreParams big;
    big.rob_size = 224;
    RunResult rs = runProgram(prog, small, hp);
    RunResult rb = runProgram(prog, big, hp);
    // A 224-entry window overlaps far more of the 96 independent misses.
    EXPECT_LT(rb.cycles, rs.cycles / 2);
}

TEST(CoreParamProperty, DeeperFrontendCostsMoreOnMispredicts)
{
    // Data-dependent branch stream: every iteration ~50% mispredict.
    std::string prog = "  li x2, 2000\n"
                       "  li x5, 12345\n"
                       "loop:\n"
                       "  slli x6, x5, 13\n"
                       "  xor x5, x5, x6\n"
                       "  srli x6, x5, 7\n"
                       "  xor x5, x5, x6\n"
                       "  andi x7, x5, 1\n"
                       "  beq x7, x0, skip\n"
                       "  addi x8, x8, 1\n"
                       "skip:\n"
                       "  addi x2, x2, -1\n"
                       "  bne x2, x0, loop\n"
                       "  halt\n";
    CoreParams shallow;
    shallow.frontend_depth = 3;
    CoreParams deep;
    deep.frontend_depth = 12;
    RunResult rs = runProgram(prog, shallow);
    RunResult rd = runProgram(prog, deep);
    EXPECT_LT(rs.cycles, rd.cycles);
}

TEST(CoreParamProperty, IqSizeGatesIndependentWork)
{
    HierarchyParams hp;
    hp.l1d_next_n = 0;
    hp.vldp_enabled = false;
    // A long-latency load followed by independent ALU work: a tiny IQ
    // blocks the ALU work behind the load's occupancy.
    std::ostringstream os;
    os << "  li x1, 0x400000\n"
          "  li x9, 40\n"
          "outer:\n"
          "  ld x2, 0(x1)\n";
    for (int i = 0; i < 30; ++i)
        os << "  addi x" << (3 + i % 5) << ", x0, " << i << "\n";
    os << "  addi x1, x1, 4096\n"
          "  addi x9, x9, -1\n"
          "  bne x9, x0, outer\n"
          "  halt\n";
    CoreParams tiny;
    tiny.iq_size = 2;
    CoreParams normal;
    RunResult rt = runProgram(os.str(), tiny, hp);
    RunResult rn = runProgram(os.str(), normal, hp);
    EXPECT_LT(rn.cycles, rt.cycles);
}

TEST(CoreParamProperty, PrfPressureStallsDispatch)
{
    CoreParams starved;
    starved.prf_size = kNumArchRegs + 4; // almost no rename headroom
    RunResult r = runProgram(independentAluProgram(400), starved);
    CoreParams normal;
    RunResult rn = runProgram(independentAluProgram(400), normal);
    EXPECT_LT(rn.cycles, r.cycles);
}

class BpKindSweep : public ::testing::TestWithParam<BpKind>
{};

TEST_P(BpKindSweep, AllPredictorsRunLoopsCorrectly)
{
    CoreParams cp;
    cp.bp_kind = GetParam();
    RunResult r = runProgram("  li x2, 500\n"
                             "loop:\n"
                             "  addi x3, x3, 1\n"
                             "  addi x2, x2, -1\n"
                             "  bne x2, x0, loop\n"
                             "  halt\n",
                             cp);
    EXPECT_GT(r.ipc, 0.5);
    if (GetParam() == BpKind::kPerfect)
        EXPECT_EQ(r.mispredicts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, BpKindSweep,
                         ::testing::Values(BpKind::kTageScl,
                                           BpKind::kBimodal,
                                           BpKind::kPerfect));

TEST(CoreParamProperty, WriteBufferSizeBoundsStoreBursts)
{
    HierarchyParams hp;
    hp.l1d_next_n = 0;
    hp.vldp_enabled = false;
    std::ostringstream os;
    os << "  li x1, 0x400000\n";
    for (int i = 0; i < 256; ++i)
        os << "  sd x0, " << i * 4096 << "(x1)\n";
    os << "  halt\n";
    CoreParams tiny;
    tiny.write_buffer_size = 1;
    CoreParams normal;
    RunResult rt = runProgram(os.str(), tiny, hp);
    RunResult rn = runProgram(os.str(), normal, hp);
    EXPECT_LE(rn.cycles, rt.cycles);
}

} // namespace
} // namespace pfm
