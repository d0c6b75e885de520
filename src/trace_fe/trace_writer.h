/**
 * @file
 * Trace recording: TraceWriter streams dynamic records into the on-disk
 * format (trace_format.h), and TraceRecorder tees any InstSource through
 * a writer so `--record-trace=<path>` captures whatever the simulator is
 * executing — interpreter-driven workloads today, anything else behind
 * the interface tomorrow.
 */

#ifndef PFM_TRACE_FE_TRACE_WRITER_H
#define PFM_TRACE_FE_TRACE_WRITER_H

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "isa/inst_source.h"
#include "trace_fe/trace_format.h"

namespace pfm {

/**
 * Writes one trace file. The constructor opens `<path>.tmp`, writes the
 * provisional header and the meta block (program + annotations + initial
 * memory image — so the workload's pre-execution state is captured
 * before the first step mutates it); record() buffers and flushes
 * fixed-size compressed instruction blocks; finish() writes the end
 * block, rewrites the header with the final instret/content id, and
 * renames the file into place. Destruction without finish() removes the
 * temp file — a crashed recording never leaves a half-trace behind.
 */
class TraceWriter
{
  public:
    TraceWriter(std::string path, const Workload& w);
    ~TraceWriter();
    TraceWriter(const TraceWriter&) = delete;
    TraceWriter& operator=(const TraceWriter&) = delete;

    void record(const DynInst& d);
    void finish();

    const std::string& path() const { return path_; }
    std::uint64_t recorded() const { return nrecords_; }

  private:
    void flushBlock();

    std::string path_;
    std::string tmp_;
    std::FILE* f_ = nullptr;
    trace::TraceHeader hdr_;
    std::vector<std::uint8_t> buf_;  ///< pending encoded records
    std::uint64_t nrecords_ = 0;
    std::uint64_t content_id_ = trace::kContentIdSeed;
    bool finished_ = false;
};

/**
 * InstSource adaptor: passes every call through to @p inner and records
 * each step()'s DynInst. Checkpointing while recording is rejected — the
 * writer's stream position is not checkpointable state (Simulator
 * rejects the flag combination up front and refuses saveCheckpoint();
 * the fatal loadState() is the backstop). saveState() writes the inner
 * source's state, so Simulator::machineDigest() covers a recording run.
 */
class TraceRecorder : public InstSource
{
  public:
    TraceRecorder(InstSource& inner, std::string path, const Workload& w)
        : inner_(inner), writer_(std::move(path), w)
    {
    }

    bool halted() const override { return inner_.halted(); }
    Addr pc() const override { return inner_.pc(); }

    DynInst
    step() override
    {
        DynInst d = inner_.step();
        writer_.record(d);
        return d;
    }

    SeqNum executed() const override { return inner_.executed(); }
    const Program& program() const override { return inner_.program(); }
    CommitLog& commitLog() override { return inner_.commitLog(); }
    SimMemory& memory() override { return inner_.memory(); }
    std::uint64_t sourceFingerprint() const override
    {
        return inner_.sourceFingerprint();
    }

    void saveState(CkptWriter& w) const override { inner_.saveState(w); }
    void loadState(CkptReader&) override;

    /** Seal the trace file (end block + final header + rename). */
    void finish() { writer_.finish(); }

    const std::string& tracePath() const { return writer_.path(); }

  private:
    InstSource& inner_;
    TraceWriter writer_;
};

} // namespace pfm

#endif // PFM_TRACE_FE_TRACE_WRITER_H
