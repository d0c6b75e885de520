/**
 * @file
 * CLI-parsing error paths: every malformed parameter token, instruction
 * count (flag or PFM_INSTRUCTIONS) or jobs value must produce a pfm
 * diagnostic (exit 1 through pfm_fatal, or a warning plus fallback for
 * the advisory PFM_JOBS environment variable) — never an uncaught
 * std::invalid_argument out of the numeric parse, and never a silent 0.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sim/options.h"
#include "sim/sweep.h"

namespace pfm {
namespace {

using OptionsErrorDeathTest = ::testing::Test;

TEST(OptionsErrorDeathTest, ClkTokenEmptyDividerIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "clk_w4"), ::testing::ExitedWithCode(1),
                "bad number '' in parameter token 'clk_w4'");
}

TEST(OptionsErrorDeathTest, ClkTokenEmptyWidthIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "clk4_w"), ::testing::ExitedWithCode(1),
                "bad number '' in parameter token 'clk4_w'");
}

TEST(OptionsErrorDeathTest, ClkTokenGarbageDividerIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "clk4x_w2"), ::testing::ExitedWithCode(1),
                "bad number '4x' in parameter token 'clk4x_w2'");
}

TEST(OptionsErrorDeathTest, ClkTokenMissingSeparatorIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "clk4w2"), ::testing::ExitedWithCode(1),
                "bad clk token");
}

TEST(OptionsErrorDeathTest, ClkTokenZeroDividerIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "clk0_w4"), ::testing::ExitedWithCode(1),
                "clock ratio must be nonzero in parameter token 'clk0_w4'");
}

TEST(OptionsErrorDeathTest, ClkTokenZeroWidthIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "clk4_w0"), ::testing::ExitedWithCode(1),
                "width must be nonzero in parameter token 'clk4_w0'");
}

TEST(OptionsErrorDeathTest, QueueTokenZeroIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "queue0"), ::testing::ExitedWithCode(1),
                "queue capacity must be nonzero in parameter token 'queue0'");
}

TEST(OptionsErrorDeathTest, QueueTokenOverflowIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "queue99999999999"),
                ::testing::ExitedWithCode(1),
                "number '99999999999' out of range in parameter token "
                "'queue99999999999'");
}

TEST(OptionsErrorDeathTest, DelayTokenGarbageIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "delayX"), ::testing::ExitedWithCode(1),
                "bad number 'X' in parameter token 'delayX'");
}

TEST(OptionsErrorDeathTest, DelayTokenEmptyNumberIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "delay"), ::testing::ExitedWithCode(1),
                "bad number '' in parameter token 'delay'");
}

TEST(OptionsErrorDeathTest, QueueTokenEmptyNumberIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "queue"), ::testing::ExitedWithCode(1),
                "bad number '' in parameter token 'queue'");
}

TEST(OptionsErrorDeathTest, QueueTokenNegativeIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "queue-1"), ::testing::ExitedWithCode(1),
                "bad number '-1' in parameter token 'queue-1'");
}

TEST(OptionsErrorDeathTest, ScopeTokenGarbageIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "scopeXL"), ::testing::ExitedWithCode(1),
                "bad number 'XL' in parameter token 'scopeXL'");
}

TEST(OptionsErrorDeathTest, CtxTokenGarbageIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "ctxfoo"), ::testing::ExitedWithCode(1),
                "bad number 'foo' in parameter token 'ctxfoo'");
}

TEST(OptionsErrorDeathTest, CtxTokenTrailingGarbageIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "ctx100q"), ::testing::ExitedWithCode(1),
                "bad number '100q' in parameter token 'ctx100q'");
}

TEST(OptionsErrorDeathTest, FastfwdTokenGarbageValueIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "fastfwd=maybe"), ::testing::ExitedWithCode(1),
                "bad fastfwd token 'fastfwd=maybe'");
}

TEST(OptionsErrorDeathTest, FastfwdTokenTrailingGarbageIsFatal)
{
    SimOptions o;
    EXPECT_EXIT(applyToken(o, "fastfwdish"), ::testing::ExitedWithCode(1),
                "bad fastfwd token 'fastfwdish'");
}

TEST(OptionsErrors, WellFormedTokensStillParse)
{
    SimOptions o;
    applyTokens(o, "clk4_w2 delay3 queue16 scope8 ctx0x100 fastfwd=off");
    EXPECT_FALSE(o.fastfwd);
    EXPECT_EQ(o.pfm.clk_div, 4u);
    EXPECT_EQ(o.pfm.width, 2u);
    EXPECT_EQ(o.pfm.delay, 3u);
    EXPECT_EQ(o.pfm.queue_size, 16u);
    EXPECT_EQ(o.astar_index_queue, 8u);
    EXPECT_EQ(o.bfs_queue_entries, 8u);
    EXPECT_EQ(o.pfm.context_switch_interval, 0x100u);
}

TEST(OptionsErrorDeathTest, CheckpointSaveEmptyPathIsFatal)
{
    char prog[] = "pfm_sim";
    char flag[] = "--checkpoint-save=";
    char* argv[] = {prog, flag};
    EXPECT_EXIT(parseCommandLine(2, argv), ::testing::ExitedWithCode(1),
                "--checkpoint-save= requires a file path");
}

TEST(OptionsErrorDeathTest, CheckpointLoadEmptyPathIsFatal)
{
    char prog[] = "pfm_sim";
    char flag[] = "--checkpoint-load=";
    char* argv[] = {prog, flag};
    EXPECT_EXIT(parseCommandLine(2, argv), ::testing::ExitedWithCode(1),
                "--checkpoint-load= requires a file path");
}

TEST(OptionsErrors, CheckpointFlagsParse)
{
    char prog[] = "pfm_sim";
    char save[] = "--checkpoint-save=/tmp/a.ckpt";
    char load[] = "--checkpoint-load=/tmp/b.ckpt";
    char defer[] = "--defer-component";
    char* argv[] = {prog, save, load, defer};
    SimOptions o = parseCommandLine(4, argv);
    EXPECT_EQ(o.checkpoint_save, "/tmp/a.ckpt");
    EXPECT_EQ(o.checkpoint_load, "/tmp/b.ckpt");
    EXPECT_TRUE(o.defer_component);
}

TEST(OptionsErrorDeathTest, InstructionCountGarbageIsFatal)
{
    struct Case {
        const char* arg;
        const char* message;
    };
    const Case cases[] = {
        {"--instructions=abc", "bad number 'abc' in '--instructions=abc'"},
        {"--instructions=12abc",
         "bad number '12abc' in '--instructions=12abc'"},
        {"--instructions=-1", "bad number '-1' in '--instructions=-1'"},
        {"--instructions=", "bad number '' in '--instructions='"},
        {"--warmup=1e6", "bad number '1e6' in '--warmup=1e6'"},
        {"--warmup=99999999999999999999",
         "number '99999999999999999999' out of range in "
         "'--warmup=99999999999999999999'"},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.arg);
        char prog[] = "pfm_sim";
        std::string arg = c.arg;
        char* argv[] = {prog, arg.data()};
        EXPECT_EXIT(parseCommandLine(2, argv), ::testing::ExitedWithCode(1),
                    c.message);
    }
}

TEST(OptionsErrorDeathTest, InstructionBudgetEnvGarbageIsFatal)
{
    for (const char* value : {"abc", "12abc", " 5", ""}) {
        SCOPED_TRACE(value);
        setenv("PFM_INSTRUCTIONS", value, 1);
        EXPECT_EXIT(defaultInstructionBudget(), ::testing::ExitedWithCode(1),
                    std::string("bad number '") + value +
                        "' in PFM_INSTRUCTIONS");
    }
    unsetenv("PFM_INSTRUCTIONS");
}

TEST(OptionsErrors, InstructionCountsParse)
{
    setenv("PFM_INSTRUCTIONS", "0x1000", 1);
    EXPECT_EQ(defaultInstructionBudget(), 0x1000u);
    char prog[] = "pfm_sim";
    char warmup[] = "--warmup=500";
    char* argv[] = {prog, warmup};
    SimOptions o = parseCommandLine(2, argv);
    EXPECT_EQ(o.max_instructions, 0x1000u);
    EXPECT_EQ(o.warmup_instructions, 500u);
    char insts[] = "--instructions=60000";
    argv[1] = insts;
    EXPECT_EQ(parseCommandLine(2, argv).max_instructions, 60000u);
    unsetenv("PFM_INSTRUCTIONS");
}

TEST(OptionsErrorDeathTest, ExplicitJobsEqGarbageIsFatal)
{
    char prog[] = "bench";
    char jobs[] = "--jobs=abc";
    char* argv[] = {prog, jobs};
    EXPECT_EXIT(resolveJobs(2, argv), ::testing::ExitedWithCode(1),
                "invalid jobs count 'abc'");
}

TEST(OptionsErrorDeathTest, ExplicitJobsZeroIsFatal)
{
    char prog[] = "bench";
    char jobs[] = "--jobs=0";
    char* argv[] = {prog, jobs};
    EXPECT_EXIT(resolveJobs(2, argv), ::testing::ExitedWithCode(1),
                "invalid jobs count '0'");
}

TEST(OptionsErrorDeathTest, ExplicitJobsSeparateValueGarbageIsFatal)
{
    char prog[] = "bench";
    char flag[] = "--jobs";
    char val[] = "many";
    char* argv[] = {prog, flag, val};
    EXPECT_EXIT(resolveJobs(3, argv), ::testing::ExitedWithCode(1),
                "invalid jobs count 'many'");
}

TEST(OptionsErrorDeathTest, ShortJobsGarbageIsFatal)
{
    char prog[] = "bench";
    char jobs[] = "-jfoo";
    char* argv[] = {prog, jobs};
    EXPECT_EXIT(resolveJobs(2, argv), ::testing::ExitedWithCode(1),
                "invalid jobs count 'foo'");
}

TEST(OptionsErrorDeathTest, ExplicitJobsTrailingGarbageIsFatal)
{
    char prog[] = "bench";
    char jobs[] = "--jobs=4x";
    char* argv[] = {prog, jobs};
    EXPECT_EXIT(resolveJobs(2, argv), ::testing::ExitedWithCode(1),
                "invalid jobs count '4x'");
}

TEST(OptionsErrors, InvalidJobsEnvWarnsAndFallsBack)
{
    // The environment is advisory: a garbage value must not kill the
    // process; it falls back to the hardware default.
    setenv("PFM_JOBS", "abc", 1);
    EXPECT_GE(resolveJobs(), 1u);
    setenv("PFM_JOBS", "0", 1);
    EXPECT_GE(resolveJobs(), 1u);
    setenv("PFM_JOBS", "-3", 1);
    EXPECT_GE(resolveJobs(), 1u);
    unsetenv("PFM_JOBS");
}

TEST(OptionsErrors, ValidJobsEnvStillHonoured)
{
    setenv("PFM_JOBS", "3", 1);
    EXPECT_EQ(resolveJobs(), 3u);
    unsetenv("PFM_JOBS");
}

TEST(OptionsErrors, ArgvOverridesInvalidEnv)
{
    setenv("PFM_JOBS", "bogus", 1);
    char prog[] = "bench";
    char jobs[] = "--jobs=4";
    char* argv[] = {prog, jobs};
    EXPECT_EQ(resolveJobs(2, argv), 4u);
    unsetenv("PFM_JOBS");
}

} // namespace
} // namespace pfm
