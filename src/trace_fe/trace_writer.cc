#include "trace_fe/trace_writer.h"

#include <cstdio>

#include "common/log.h"

namespace pfm {

TraceWriter::TraceWriter(std::string path, const Workload& w)
    : path_(std::move(path)), tmp_(path_ + ".tmp")
{
    if (path_.empty())
        pfm_fatal("--record-trace= requires a file path");
    f_ = std::fopen(tmp_.c_str(), "wb+");
    if (!f_)
        pfm_fatal("trace %s: cannot open '%s' for writing", path_.c_str(),
                  tmp_.c_str());

    hdr_.workload = w.name;
    hdr_.entry = w.entry;
    // Provisional header: instret/content id are rewritten by finish();
    // the byte length depends only on the string fields, so the rewrite
    // lands on the identical extent.
    trace::writeHeader(f_, hdr_, path_);

    const std::vector<std::uint8_t> meta = trace::encodeWorkloadMeta(w);
    trace::writeBlock(f_, trace::kBlockMeta, meta.data(), meta.size(),
                      /*compress=*/true, path_, content_id_);
    buf_.reserve(trace::kRecordsPerBlock * trace::kRecordBytes);
}

TraceWriter::~TraceWriter()
{
    if (f_) {
        // Destruction without finish(): an aborted recording. Drop the
        // temp file so no half-trace survives under any name.
        std::fclose(f_);
        std::remove(tmp_.c_str());
    }
}

void
TraceWriter::record(const DynInst& d)
{
    pfm_assert(!finished_, "record() after finish()");
    const std::size_t at = buf_.size();
    buf_.resize(at + trace::kRecordBytes);
    trace::encodeRecord(d, buf_.data() + at);
    ++nrecords_;
    if (buf_.size() >= trace::kRecordsPerBlock * trace::kRecordBytes)
        flushBlock();
}

void
TraceWriter::flushBlock()
{
    if (buf_.empty())
        return;
    trace::writeBlock(f_, trace::kBlockInsts, buf_.data(), buf_.size(),
                      /*compress=*/true, path_, content_id_);
    buf_.clear();
}

void
TraceWriter::finish()
{
    pfm_assert(!finished_, "finish() twice");
    finished_ = true;
    flushBlock();
    trace::writeBlock(f_, trace::kBlockEnd, nullptr, 0, false, path_,
                      content_id_);

    hdr_.instret = nrecords_;
    hdr_.content_id = content_id_;
    if (std::fseek(f_, 0, SEEK_SET) != 0)
        pfm_fatal("trace %s: seek failed finalizing header",
                  path_.c_str());
    trace::writeHeader(f_, hdr_, path_);
    if (std::fclose(f_) != 0) {
        f_ = nullptr;
        std::remove(tmp_.c_str());
        pfm_fatal("trace %s: close failed (disk full?)", path_.c_str());
    }
    f_ = nullptr;
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
        std::remove(tmp_.c_str());
        pfm_fatal("trace %s: rename from '%s' failed", path_.c_str(),
                  tmp_.c_str());
    }
}

void
TraceRecorder::loadState(CkptReader&)
{
    pfm_fatal("cannot restore a checkpoint while recording a trace "
              "(--record-trace and --checkpoint-load are exclusive)");
}

} // namespace pfm
