#include "sim/options.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/log.h"

namespace pfm {

std::uint64_t
parseNumber(const std::string& text, int base, const std::string& where,
            std::uint64_t max)
{
    // strtoull alone would skip leading space and negate a '-' sign.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        pfm_fatal("bad number '%s' in %s", text.c_str(), where.c_str());
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, base);
    if (*end != '\0')
        pfm_fatal("bad number '%s' in %s", text.c_str(), where.c_str());
    if (errno == ERANGE || v > max)
        pfm_fatal("number '%s' out of range in %s", text.c_str(),
                  where.c_str());
    return v;
}

namespace {

/** The decimal numeric field of a parameter token, e.g. "8" of "queue8". */
unsigned
tokenNumber(const std::string& token, const std::string& digits)
{
    return static_cast<unsigned>(
        parseNumber(digits, 10, "parameter token '" + token + "'",
                    std::numeric_limits<unsigned>::max()));
}

/**
 * tokenNumber() for fields where zero is structurally meaningless — a
 * clock ratio, machine width or queue capacity of 0 describes hardware
 * that cannot exist (and would divide-by-zero or trip the TimedPort
 * capacity check much later, far from the offending flag).
 */
unsigned
tokenNumberNonzero(const std::string& token, const std::string& digits,
                   const char* what)
{
    unsigned v = tokenNumber(token, digits);
    if (v == 0)
        pfm_fatal("%s must be nonzero in parameter token '%s'", what,
                  token.c_str());
    return v;
}

} // namespace

void
applyToken(SimOptions& opt, const std::string& token)
{
    if (token.empty())
        return;
    if (token.rfind("clk", 0) == 0) {
        // clkC_wW
        size_t us = token.find("_w");
        if (us == std::string::npos)
            pfm_fatal("bad clk token '%s' (expected clkC_wW)",
                      token.c_str());
        opt.pfm.clk_div =
            tokenNumberNonzero(token, token.substr(3, us - 3), "clock ratio");
        opt.pfm.width =
            tokenNumberNonzero(token, token.substr(us + 2), "width");
        return;
    }
    if (token.rfind("delay", 0) == 0) {
        opt.pfm.delay = tokenNumber(token, token.substr(5));
        return;
    }
    if (token.rfind("queue", 0) == 0) {
        opt.pfm.queue_size =
            tokenNumberNonzero(token, token.substr(5), "queue capacity");
        return;
    }
    if (token == "portALL") {
        opt.pfm.port = PortPolicy::kAll;
        return;
    }
    if (token == "portLS") {
        opt.pfm.port = PortPolicy::kLs;
        return;
    }
    if (token == "portLS1") {
        opt.pfm.port = PortPolicy::kLs1;
        return;
    }
    if (token.rfind("ctx", 0) == 0) {
        // Keeps strtoull's 0x/octal prefixes: "ctx0x100".
        opt.pfm.context_switch_interval = parseNumber(
            token.substr(3), 0, "parameter token '" + token + "'");
        return;
    }
    if (token == "nonstall") {
        opt.pfm.non_stalling_fetch = true;
        return;
    }
    if (token == "noL1pf") {
        opt.mem.l1d_next_n = 0;
        return;
    }
    if (token == "noVLDP") {
        opt.mem.vldp_enabled = false;
        return;
    }
    if (token == "perfBP") {
        opt.core.bp_kind = BpKind::kPerfect;
        return;
    }
    if (token == "perfD$" || token == "perfDS") {
        opt.mem.perfect_dcache = true;
        return;
    }
    if (token.rfind("fastfwd", 0) == 0 || token.rfind("--fastfwd", 0) == 0) {
        // fastfwd / fastfwd=on / fastfwd=off (also with a -- prefix, so
        // the bench/quickstart argv fall-through accepts --fastfwd=off).
        const std::string v = token.substr(token[0] == '-' ? 9 : 7);
        if (v.empty() || v == "=on")
            opt.fastfwd = true;
        else if (v == "=off")
            opt.fastfwd = false;
        else
            pfm_fatal("bad fastfwd token '%s' (expected fastfwd[=on|off])",
                      token.c_str());
        return;
    }
    if (token == "pfstats") {
        opt.report_prefetch_stats = true;
        return;
    }
    if (token.rfind("scope", 0) == 0) {
        unsigned n = tokenNumber(token, token.substr(5));
        opt.astar_index_queue = n;
        opt.bfs_queue_entries = n;
        return;
    }
    pfm_fatal("unknown parameter token '%s'", token.c_str());
}

void
applyTokens(SimOptions& opt, const std::string& tokens)
{
    size_t pos = 0;
    while (pos < tokens.size()) {
        size_t next = tokens.find(' ', pos);
        if (next == std::string::npos)
            next = tokens.size();
        if (next > pos)
            applyToken(opt, tokens.substr(pos, next - pos));
        pos = next + 1;
    }
}

std::uint64_t
defaultInstructionBudget()
{
    if (const char* env = std::getenv("PFM_INSTRUCTIONS"))
        return parseNumber(env, 0, "PFM_INSTRUCTIONS");
    return 3'000'000;
}

SimOptions
parseCommandLine(int argc, char** argv)
{
    SimOptions opt;
    opt.max_instructions = defaultInstructionBudget();
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&arg](const char* prefix) -> std::string {
            return arg.substr(std::string(prefix).size());
        };
        auto count = [&arg, &value](const char* prefix) {
            return parseNumber(value(prefix), 0, "'" + arg + "'");
        };
        if (arg.rfind("--workload=", 0) == 0) {
            opt.workload = value("--workload=");
        } else if (arg.rfind("--component=", 0) == 0) {
            opt.component = value("--component=");
        } else if (arg.rfind("--instructions=", 0) == 0) {
            opt.max_instructions = count("--instructions=");
        } else if (arg.rfind("--warmup=", 0) == 0) {
            opt.warmup_instructions = count("--warmup=");
        } else if (arg.rfind("--trace=", 0) == 0) {
            opt.trace_path = value("--trace=");
        } else if (arg.rfind("--record-trace=", 0) == 0) {
            opt.record_trace = value("--record-trace=");
            if (opt.record_trace.empty())
                pfm_fatal("--record-trace= requires a file path");
        } else if (arg.rfind("--checkpoint-save=", 0) == 0) {
            opt.checkpoint_save = value("--checkpoint-save=");
            if (opt.checkpoint_save.empty())
                pfm_fatal("--checkpoint-save= requires a file path");
        } else if (arg.rfind("--checkpoint-load=", 0) == 0) {
            opt.checkpoint_load = value("--checkpoint-load=");
            if (opt.checkpoint_load.empty())
                pfm_fatal("--checkpoint-load= requires a file path");
        } else if (arg == "--defer-component") {
            opt.defer_component = true;
        } else if (arg.rfind("--verbose", 0) == 0) {
            log_detail::setVerbosity(2);
        } else {
            applyToken(opt, arg);
        }
    }
    return opt;
}

} // namespace pfm
