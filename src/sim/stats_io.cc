#include "sim/stats_io.h"

#include <cmath>
#include <iomanip>
#include <sstream>

namespace pfm {

namespace {

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** JSON has no NaN/Inf literals; map them to 0. */
double
jsonFinite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

} // namespace

void
writeStatsCsv(std::ostream& os, const std::vector<const StatGroup*>& groups)
{
    os << "stat,value\n";
    for (const StatGroup* g : groups) {
        if (!g)
            continue;
        std::ostringstream buf;
        g->dump(buf);
        // dump() emits "prefix.name value" lines; re-render as CSV.
        std::istringstream in(buf.str());
        std::string line;
        while (std::getline(in, line)) {
            size_t sp = line.find(' ');
            if (sp == std::string::npos)
                continue;
            os << line.substr(0, sp) << "," << line.substr(sp + 1) << "\n";
        }
    }
}

std::string
formatBenchJsonRow(const BenchJsonRow& r, bool include_wall)
{
    std::ostringstream os;
    os << std::fixed;
    os << "{\"label\": \"" << jsonEscape(r.label) << "\", "
       << "\"ipc\": " << std::setprecision(6) << jsonFinite(r.ipc)
       << ", \"mpki\": " << jsonFinite(r.mpki)
       << ", \"cycles\": " << r.cycles
       << ", \"instructions\": " << r.instructions;
    if (include_wall)
        os << ", \"wall_ms\": " << std::setprecision(3)
           << jsonFinite(r.wall_ms);
    if (r.has_speedup)
        os << ", \"speedup_pct\": " << std::setprecision(6)
           << jsonFinite(r.speedup_pct);
    for (const PortStatsSnapshot& p : r.ports) {
        os << ", \"port_" << jsonEscape(p.name)
           << "_occ_avg\": " << std::setprecision(6)
           << jsonFinite(p.occ_avg) << ", \"port_" << jsonEscape(p.name)
           << "_occ_max\": " << jsonFinite(p.occ_max) << ", \"port_"
           << jsonEscape(p.name) << "_full_stalls\": " << p.full_stalls
           << ", \"port_" << jsonEscape(p.name)
           << "_qlat_avg\": " << jsonFinite(p.qlat_avg);
    }
    if (r.has_pf) {
        os << ", \"pf_issued\": " << r.pf_issued
           << ", \"pf_useful\": " << r.pf_useful
           << ", \"pf_useless\": " << r.pf_useless
           << ", \"pf_late\": " << r.pf_late
           << ", \"pf_inflight\": " << r.pf_inflight
           << ", \"pf_coverage_pct\": " << std::setprecision(6)
           << jsonFinite(r.pf_coverage_pct)
           << ", \"pf_accuracy_pct\": " << jsonFinite(r.pf_accuracy_pct);
    }
    os << "}";
    return os.str();
}

void
writeBenchJson(std::ostream& os, const std::string& bench, unsigned jobs,
               double total_wall_ms, const std::vector<BenchJsonRow>& rows)
{
    os << "{\n";
    os << "  \"bench\": \"" << jsonEscape(bench) << "\",\n";
    os << "  \"jobs\": " << jobs << ",\n";
    os << "  \"total_wall_ms\": " << std::fixed << std::setprecision(3)
       << jsonFinite(total_wall_ms) << ",\n";
    os << "  \"runs\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
        os << "    " << formatBenchJsonRow(rows[i], /*include_wall=*/true)
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
}

std::string
configSummary(const CoreParams& core, const HierarchyParams& mem)
{
    std::ostringstream os;
    os << "superscalar core and memory hierarchy (cf. paper Table 1)\n";
    os << "  branch predictor     : "
       << (core.bp_kind == BpKind::kTageScl   ? "64KB-class TAGE-SC-L"
           : core.bp_kind == BpKind::kBimodal ? "bimodal"
                                              : "perfect (oracle)")
       << "\n";
    os << "  pipeline depth       : " << core.frontend_depth + 5
       << " stages (fetch to retire)\n";
    os << "  fetch/retire width   : " << core.fetch_width << "/"
       << core.retire_width << " instr/cycle\n";
    os << "  issue/execute width  : " << core.issue_width
       << " instr/cycle\n";
    os << "  execution lanes      : " << core.alu_lanes << " simple ALU, "
       << core.ls_lanes << " load/store, " << core.fp_lanes
       << " FP/complex ALU\n";
    os << "  ROB/IQ/LDQ/STQ/PRF   : " << core.rob_size << "/" << core.iq_size
       << "/" << core.ldq_size << "/" << core.stq_size << "/"
       << core.prf_size << "\n";
    auto cache_line = [&os](const char* name, const CacheParams& c,
                            const char* extra) {
        os << "  " << name << " : " << c.size_bytes / 1024 << "KB, "
           << c.assoc << "-way, " << c.latency << "-cycle" << extra << "\n";
    };
    cache_line("L1I cache           ", mem.l1i, "");
    cache_line("L1D cache           ", mem.l1d, " (+1 agen)");
    os << "  L1D prefetcher       : next-" << mem.l1d_next_n << "-line\n";
    cache_line("L2 cache            ", mem.l2, "");
    cache_line("L3 cache            ", mem.l3, "");
    os << "  L2/L3 prefetcher     : "
       << (mem.vldp_enabled ? "VLDP (5.5Kb-class)" : "disabled") << "\n";
    os << "  DRAM                 : " << mem.dram.latency << " cycles, "
       << mem.dram.max_outstanding << " outstanding, issue gap "
       << mem.dram.issue_gap << "\n";
    return os.str();
}

std::string
pfmSummary(const PfmParams& pfm)
{
    std::ostringstream os;
    os << pfm.tag() << " mlb" << pfm.mlb_entries;
    if (pfm.watchdog_cycles)
        os << " watchdog" << pfm.watchdog_cycles;
    if (pfm.non_stalling_fetch)
        os << " nonstall";
    return os.str();
}

} // namespace pfm
