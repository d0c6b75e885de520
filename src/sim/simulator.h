/**
 * @file
 * Top-level simulator: builds the instruction source (the functional
 * engine for native workloads, a TraceSource for "trace:<path>"
 * workloads, optionally teed through a TraceRecorder), the memory
 * hierarchy, core and (optionally) the PFM system + custom component,
 * runs warmup + measurement, and returns the result counters.
 */

#ifndef PFM_SIM_SIMULATOR_H
#define PFM_SIM_SIMULATOR_H

#include <memory>
#include <optional>
#include <vector>

#include "core/core.h"
#include "isa/functional_engine.h"
#include "sim/checkpoint.h"
#include "sim/trace.h"
#include "pfm/pfm_system.h"
#include "sim/options.h"
#include "trace_fe/trace_source.h"
#include "trace_fe/trace_writer.h"
#include "workloads/workload.h"

namespace pfm {

/**
 * Thrown out of Simulator::run() when SimOptions::cancel_poll returns
 * true. Carries no state: the run's partial counters are meaningless by
 * construction (the machine stopped mid-flight), so the only sane
 * handling is to discard the simulator.
 */
struct SimCancelled {};

struct SimResult {
    double ipc = 0;
    double mpki = 0;
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double rst_hit_pct = 0;   ///< Tables 2/3
    double fst_hit_pct = 0;
    bool finished = false;    ///< workload halted before the budget
    /** Agent-queue telemetry (ObsQ-R, IntQ-F, IntQ-IS, ObsQ-EX); empty
     *  for bare-core runs. */
    std::vector<PortStatsSnapshot> ports;

    /**
     * Prefetch coverage/accuracy/timeliness snapshot, filled only when
     * SimOptions::report_prefetch_stats is set and the component keeps a
     * PrefetchAccounting (the FSM prefetchers and PMP). coverage_pct is
     * useful / (useful + demand accesses that still reached L3 or DRAM);
     * accuracy_pct is useful / issued.
     */
    bool has_pf = false;
    std::uint64_t pf_issued = 0;
    std::uint64_t pf_useful = 0;
    std::uint64_t pf_useless = 0;
    std::uint64_t pf_late = 0;
    std::uint64_t pf_inflight = 0;
    double pf_coverage_pct = 0;
    double pf_accuracy_pct = 0;
};

class Simulator
{
  public:
    explicit Simulator(const SimOptions& opt);
    ~Simulator();

    /** Warmup then measure; returns the measured-phase result. */
    SimResult run();

    /**
     * Write a checkpoint of the complete machine state (engine, memory,
     * core, and the PFM system when attached) to @p path, behind the
     * workload descriptor a restore builds its workload from. The header
     * carries a config fingerprint so a checkpoint can only be restored
     * into a compatibly-configured simulator. Normally driven by
     * SimOptions::checkpoint_save at the warmup boundary. Fatal while
     * recording a trace, and with a component that does not support
     * checkpointing (its private state would be lost on restore).
     */
    void saveCheckpoint(const std::string& path);

    /**
     * One CRC per checkpoint section (engine, memory, core[, pfm]) of the
     * live machine: the sections saveCheckpoint() would write, hashed in
     * memory with no file. Equal digests mean equal saved images — every
     * cache plane, MSHR, stat counter and agent queue — so two runs can
     * be compared whole at any point. Covers every configuration: a
     * recording run digests its engine, and a component without
     * checkpoint support contributes its framework state (not its
     * private state) to the pfm section.
     */
    std::vector<CkptSectionDigest> machineDigest() const;

    /**
     * Restore machine state from @p path into this freshly constructed
     * simulator. Given SimOptions::checkpoint_load, the constructor has
     * already taken the workload from that checkpoint; any other
     * checkpoint's descriptor must equal this simulator's workload.
     * Fatal on any mismatch: wrong workload or descriptor, wrong
     * component, config fingerprint drift, or a corrupt/truncated file
     * (the error names the offending section). A checkpoint saved
     * without a component ("none") loads into a bare-core or
     * deferred-component simulator only.
     */
    void loadCheckpoint(const std::string& path);

    Core& core() { return *core_; }
    Hierarchy& memory() { return *mem_; }
    /** The instruction source feeding the core (engine, trace, or
     * recorder — whichever the options selected). */
    InstSource& source() { return *source_; }
    PfmSystem* pfm() { return pfm_.get(); }
    const Workload& workload() const { return workload_; }

  private:
    /** A checkpoint read through its workload section, engine next. */
    struct OpenCheckpoint {
        CkptReader reader;
        CkptHeader header;
    };

    /**
     * Open @p path, check that it was saved for this workload, and read
     * its workload section: into workload_ unless @p built, else
     * compared byte for byte with the workload_ already built (fatal,
     * naming the section, on any mismatch or malformed descriptor).
     */
    OpenCheckpoint openCheckpoint(const std::string& path, bool built);

    void attachComponent();

    /** The section sequence shared by saveCheckpoint and machineDigest. */
    void writeState(CkptWriter& w) const;

    SimOptions opt_;
    Workload workload_;
    std::unique_ptr<Hierarchy> mem_;
    // At most one of engine_/trace_ is set; recorder_ optionally wraps
    // engine_. source_ points at the outermost one and must outlive
    // core_ (declared before it: members destroy in reverse order).
    std::unique_ptr<FunctionalEngine> engine_;
    std::unique_ptr<TraceSource> trace_;
    std::unique_ptr<TraceRecorder> recorder_;
    InstSource* source_ = nullptr;
    std::unique_ptr<Core> core_;
    std::unique_ptr<PfmSystem> pfm_;
    std::unique_ptr<PipelineTracer> tracer_;
    /** opt_.checkpoint_load, opened by the constructor; consumed by
     *  loadCheckpoint(). */
    std::optional<OpenCheckpoint> restore_;
};

/** Convenience: build, run, and return the result. */
SimResult runSim(const SimOptions& opt);

/**
 * FNV-1a over every configuration knob that shapes the machine state a
 * checkpoint captures (DESIGN.md "Fingerprint and sharing"). With
 * @p with_pfm false this is the *bare-core* fingerprint: the key under
 * which a warmup checkpoint is shareable across measurement legs that
 * differ only in component/PFM parameters — the daemon's warm-cache key.
 */
std::uint64_t configFingerprint(const SimOptions& opt, bool with_pfm);

/** Speedup of @p pfm over @p base in percent ((ipc/ipc - 1) * 100). */
double speedupPct(const SimResult& base, const SimResult& with);

} // namespace pfm

#endif // PFM_SIM_SIMULATOR_H
