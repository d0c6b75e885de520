#include "sim/daemon.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/framing.h"
#include "common/log.h"
#include "sim/checkpoint.h"
#include "sim/options.h"
#include "sim/simulator.h"
#include "sim/stats_io.h"
#include "sim/sweep.h"
#include "trace_fe/trace_format.h"
#include "workloads/registry.h"

namespace pfm {

// ------------------------------------------------------------ WarmupCache

struct WarmupCache::Entry {
    std::string key;
    std::string path;
    enum class State { kWarming, kReady, kFailed } state = State::kWarming;
    std::string error;       ///< kFailed: what the producing warmup threw
    std::uint64_t bytes = 0; ///< the manifest itself (its store blobs
                             ///  are charged apart, once each)
    std::uint64_t logical = 0;         ///< raw section payload total
    std::vector<std::string> blobs;    ///< store blob paths referenced
    unsigned pins = 0;       ///< live leases; evict/delete only at zero
    std::uint64_t lru = 0;   ///< last-touch tick
};

WarmupCache::WarmupCache(std::string dir, std::uint64_t budget_bytes)
    : dir_(std::move(dir)), budget_(budget_bytes)
{
}

WarmupCache::~WarmupCache() = default;

WarmupCache::Lease::Lease(Lease&& o) noexcept
    : cache_(o.cache_), entry_(o.entry_)
{
    o.cache_ = nullptr;
    o.entry_ = nullptr;
}

WarmupCache::Lease&
WarmupCache::Lease::operator=(Lease&& o) noexcept
{
    if (this != &o) {
        if (cache_ && entry_)
            cache_->release(entry_);
        cache_ = o.cache_;
        entry_ = o.entry_;
        o.cache_ = nullptr;
        o.entry_ = nullptr;
    }
    return *this;
}

WarmupCache::Lease::~Lease()
{
    if (cache_ && entry_)
        cache_->release(entry_);
}

const std::string&
WarmupCache::Lease::path() const
{
    pfm_assert(entry_ != nullptr, "path() on an empty cache lease");
    return entry_->path;
}

std::string
WarmupCache::keyFor(const SimOptions& opt)
{
    char fp[24];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(
                      configFingerprint(opt, /*with_pfm=*/false)));
    // The key lands in a cache *filename*: trace workloads ("trace:/a/b")
    // carry path separators, so squash anything filename-hostile. Two
    // distinct traces squashing to the same text still get distinct keys
    // — the fingerprint folds in the trace file's content id.
    std::string wl = opt.workload;
    for (char& ch : wl) {
        const bool ok = (ch >= 'a' && ch <= 'z') ||
                        (ch >= 'A' && ch <= 'Z') ||
                        (ch >= '0' && ch <= '9') || ch == '-' ||
                        ch == '.' || ch == '_';
        if (!ok)
            ch = '_';
    }
    return wl + "-" + fp;
}

WarmupCache::Lease
WarmupCache::acquire(const std::string& key,
                     const std::function<void(const std::string&)>& warm_fn)
{
    std::unique_lock<std::mutex> lk(mu_);
    Entry* produce = nullptr;
    bool waited = false;
    bool miss_counted = false;
    while (!produce) {
        auto it = entries_.find(key);
        if (it == entries_.end()) {
            auto e = std::make_unique<Entry>();
            e->key = key;
            e->path = dir_ + "/pfm_cache_" +
                      std::to_string(static_cast<unsigned long>(::getpid())) +
                      "_" + key + ".ckpt";
            produce = e.get();
            entries_.emplace(key, std::move(e));
            break;
        }
        Entry& e = *it->second;
        switch (e.state) {
          case Entry::State::kReady:
            if (!miss_counted)
                ++stats_.hits;
            ++e.pins;
            e.lru = ++tick_;
            return Lease(this, &e);
          case Entry::State::kFailed:
            if (waited) {
                // This round's warmup failed while we were blocked on it;
                // surface the producer's diagnostic. A *fresh* acquire
                // (below) resets the entry and retries instead.
                std::string msg = e.error;
                lk.unlock();
                throw FatalError("shared warmup failed: " + msg);
            }
            e.state = Entry::State::kWarming;
            e.error.clear();
            produce = &e;
            break;
          case Entry::State::kWarming:
            // Single-flight: someone else is producing this image.
            if (!miss_counted) {
                ++stats_.misses;
                miss_counted = true;
            }
            waited = true;
            cv_.wait(lk);
            break;
        }
    }

    if (!miss_counted)
        ++stats_.misses;
    ++stats_.warmups;
    const std::string path = produce->path;
    lk.unlock();

    try {
        warm_fn(path);
    } catch (const std::exception& ex) {
        lk.lock();
        produce->state = Entry::State::kFailed;
        produce->error = ex.what();
        cv_.notify_all();
        lk.unlock();
        throw;
    } catch (...) {
        lk.lock();
        produce->state = Entry::State::kFailed;
        produce->error = "warmup aborted";
        cv_.notify_all();
        lk.unlock();
        throw;
    }

    // Accounting inspection is best-effort (tests stub cache entries with
    // junk payloads): an unrecognized file is charged at its plain size
    // with no blob references.
    CkptFileInfo info = inspectCkptFile(path);

    lk.lock();
    // Publish-time blob check, under the same lock eviction runs under: a
    // blob this manifest deduplicated against may have been evicted (last
    // referencing entry dropped) while the warmup ran. Serving the key
    // would fail on every future restore, so convert the race into one
    // retryable failure instead of a poisoned cache entry.
    for (const CkptBlobRef& b : info.blobs) {
        struct stat bst{};
        if (blobs_.find(b.path) == blobs_.end() &&
            ::stat(b.path.c_str(), &bst) != 0) {
            produce->state = Entry::State::kFailed;
            produce->error =
                "store blob '" + b.path + "' vanished before publication";
            std::string msg = produce->error;
            cv_.notify_all();
            lk.unlock();
            std::remove(path.c_str());
            throw FatalError("shared warmup failed: " + msg);
        }
    }
    produce->bytes = info.file_bytes;
    produce->logical = info.logical_bytes;
    bytes_ += produce->bytes;
    logical_bytes_ += produce->logical;
    for (const CkptBlobRef& b : info.blobs) {
        produce->blobs.push_back(b.path);
        BlobAcct& acct = blobs_[b.path];
        if (acct.refs++ == 0) {
            struct stat bst{};
            acct.bytes = (::stat(b.path.c_str(), &bst) == 0)
                ? static_cast<std::uint64_t>(bst.st_size)
                : kCkptBlobHeaderBytes + b.stored_len;
            bytes_ += acct.bytes;
        }
    }
    produce->state = Entry::State::kReady;
    produce->pins = 1;
    produce->lru = ++tick_;
    cv_.notify_all();
    evictLocked(produce);
    return Lease(this, produce);
}

void
WarmupCache::release(Entry* e)
{
    std::lock_guard<std::mutex> lk(mu_);
    pfm_assert(e->pins > 0, "cache lease released twice");
    --e->pins;
    e->lru = ++tick_;
    // Pins can hold the cache over budget; settle up as they drain.
    evictLocked(nullptr);
}

void
WarmupCache::dropFilesLocked(Entry& e)
{
    std::remove(e.path.c_str());
    bytes_ -= e.bytes;
    logical_bytes_ -= e.logical;
    for (const std::string& p : e.blobs) {
        auto it = blobs_.find(p);
        if (it == blobs_.end())
            continue;
        if (--it->second.refs == 0) {
            // Last resident entry referencing this blob: its bytes leave
            // the budget and the file leaves the store.
            std::remove(p.c_str());
            bytes_ -= it->second.bytes;
            blobs_.erase(it);
        }
    }
}

void
WarmupCache::evictLocked(const Entry* keep)
{
    while (bytes_ > budget_) {
        Entry* victim = nullptr;
        for (auto& [k, e] : entries_) {
            if (e.get() == keep || e->state != Entry::State::kReady ||
                e->pins != 0)
                continue;
            if (!victim || e->lru < victim->lru)
                victim = e.get();
        }
        if (!victim)
            break;  // everything left is pinned/warming; resolve later
        dropFilesLocked(*victim);
        ++stats_.evictions;
        entries_.erase(victim->key);
    }
}

DaemonCacheStats
WarmupCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    DaemonCacheStats s = stats_;
    s.bytes = bytes_;
    s.logical_bytes = logical_bytes_;
    s.blobs = blobs_.size();
    std::uint64_t ready = 0;
    for (const auto& [k, e] : entries_)
        if (e->state == Entry::State::kReady)
            ++ready;
    s.entries = ready;
    return s;
}

std::size_t
WarmupCache::removeFiles()
{
    std::lock_guard<std::mutex> lk(mu_);
    std::size_t pinned = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
        Entry& e = *it->second;
        if (e.pins != 0) {
            pfm_warn("cache image '%s' still leased at shutdown",
                     e.path.c_str());
            ++pinned;
            ++it;
            continue;
        }
        if (e.state == Entry::State::kReady)
            dropFilesLocked(e);
        it = entries_.erase(it);
    }
    return pinned;
}

// ----------------------------------------------------------- DaemonServer

namespace {

std::string
resolveCacheDir(const DaemonOptions& opt)
{
    if (!opt.cache_dir.empty())
        return opt.cache_dir;
    if (const char* env = std::getenv("PFM_CKPT_DIR"))
        return env;
    return ".";
}

/** Store subdir (under the cache dir) for this daemon's warmup blobs. */
std::string
daemonStoreSubdir()
{
    return "pfm_store_" +
           std::to_string(static_cast<unsigned long>(::getpid()));
}

std::vector<std::string>
splitLines(const std::string& text)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        if (nl > pos)
            lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

/** One-line rendering for error frames (diagnostics may contain newlines). */
std::string
oneLine(std::string s)
{
    std::replace(s.begin(), s.end(), '\n', ' ');
    return s;
}

} // namespace

/** Everything a connection thread and its legs' workers share. */
struct DaemonServer::ConnState {
    int fd = -1;
    std::atomic<bool> cancelled{false};
    std::mutex mu;
    std::condition_variable cv;
    std::deque<LegOutcome> results;  ///< completed legs, completion order
    std::size_t legs_total = 0;
    std::size_t legs_done = 0;  ///< under mu; every leg reports exactly once
};

struct DaemonServer::LegTask {
    std::shared_ptr<ConnState> conn;
    std::size_t index = 0;
    std::string label;
    SimOptions opt;
};

struct DaemonServer::LegOutcome {
    std::size_t index = 0;
    bool ok = false;
    bool cancelled = false;
    std::string json;   ///< ok: deterministic row (no wall_ms)
    std::string error;  ///< !ok && !cancelled: diagnostic
    double wall_ms = 0;
};

DaemonServer::DaemonServer(DaemonOptions opt)
    : opt_(std::move(opt)),
      cache_(resolveCacheDir(opt_), opt_.cache_budget_bytes)
{
}

DaemonServer::~DaemonServer()
{
    stop();
}

void
DaemonServer::start()
{
    pfm_assert(!running_.load(), "DaemonServer::start() called twice");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opt_.socket_path.empty() ||
        opt_.socket_path.size() >= sizeof(addr.sun_path))
        pfm_fatal("daemon socket path '%s' is empty or longer than %zu",
                  opt_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
    std::memcpy(addr.sun_path, opt_.socket_path.c_str(),
                opt_.socket_path.size() + 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0)
        pfm_fatal("daemon: cannot create socket: %s", std::strerror(errno));
    // A stale socket file from a crashed daemon would make bind fail;
    // connect() distinguishes live from stale, but for a fresh start the
    // simple rule is: this path is ours now.
    ::unlink(opt_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        pfm_fatal("daemon: cannot bind '%s': %s", opt_.socket_path.c_str(),
                  std::strerror(err));
    }
    if (::listen(listen_fd_, 128) != 0) {
        int err = errno;
        ::close(listen_fd_);
        listen_fd_ = -1;
        pfm_fatal("daemon: cannot listen on '%s': %s",
                  opt_.socket_path.c_str(), std::strerror(err));
    }

    stopping_.store(false);
    running_.store(true);

    unsigned jobs = opt_.jobs ? opt_.jobs : resolveJobs();
    workers_.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w)
        workers_.emplace_back(&DaemonServer::workerLoop, this);
    accept_thread_ = std::thread(&DaemonServer::acceptLoop, this);

    pfm_inform("daemon listening on %s (%u workers, cache budget %llu MB)",
               opt_.socket_path.c_str(), jobs,
               static_cast<unsigned long long>(opt_.cache_budget_bytes >> 20));
}

void
DaemonServer::stop()
{
    if (!running_.load() || stopping_.exchange(true))
        return;

    if (accept_thread_.joinable())
        accept_thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
    ::unlink(opt_.socket_path.c_str());

    // Cancel every live connection: the flag stops new frames, the socket
    // shutdown kicks any thread blocked in a read, and in-flight legs see
    // the flag through their cancel_poll within a few thousand sim ticks.
    {
        std::lock_guard<std::mutex> lk(conn_mu_);
        for (const auto& st : conns_) {
            st->cancelled.store(true);
            if (st->fd >= 0)
                ::shutdown(st->fd, SHUT_RDWR);
        }
    }
    for (std::thread& t : conn_threads_)
        if (t.joinable())
            t.join();
    conn_threads_.clear();

    task_cv_.notify_all();
    for (std::thread& t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();

    if (!opt_.keep_cache_files) {
        // The refcounted blob accounting deletes blobs as their last
        // referencing entry goes; the directory sweep catches stragglers
        // (orphaned by a crash-interrupted publish). When removeFiles()
        // preserved still-leased entries, their manifests reference live
        // blobs — sweeping the store then would turn an in-flight
        // restore into a fatal 'missing blob', so leave it in place.
        if (cache_.removeFiles() == 0)
            ckptStoreRemoveDir(resolveCacheDir(opt_) + "/" +
                               daemonStoreSubdir());
        else
            pfm_warn("daemon: leased cache entries survive shutdown; "
                     "keeping store directory");
    }
    running_.store(false);
}

DaemonCacheStats
DaemonServer::cacheStats() const
{
    return cache_.stats();
}

unsigned
DaemonServer::liveConnections() const
{
    return live_conns_.load();
}

unsigned
DaemonServer::liveWorkers() const
{
    return live_workers_.load();
}

void
DaemonServer::acceptLoop()
{
    while (!stopping_.load()) {
        struct pollfd pfd{listen_fd_, POLLIN, 0};
        int r = ::poll(&pfd, 1, 100);
        if (r <= 0)
            continue;  // timeout/EINTR: re-check the stop flag
        int cfd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (cfd < 0)
            continue;
        auto st = std::make_shared<ConnState>();
        st->fd = cfd;
        ++live_conns_;
        std::lock_guard<std::mutex> lk(conn_mu_);
        conns_.push_back(st);
        conn_threads_.emplace_back(
            [this, st] { serveConnection(st); });
    }
}

void
DaemonServer::serveConnection(const std::shared_ptr<ConnState>& st)
{
    const int fd = st->fd;
    std::string req;
    framing::ReadResult rr =
        framing::readFrame(fd, req, opt_.request_timeout_ms);
    if (rr == framing::ReadResult::kOk && !stopping_.load()) {
        ++requests_;
        std::size_t nl = req.find('\n');
        const std::string cmd = req.substr(0, nl);
        if (cmd == "ping") {
            framing::writeFrame(fd, "ok pong");
        } else if (cmd == "stats") {
            DaemonCacheStats s = cacheStats();
            // saved_bytes = what compression + dedup are buying right now:
            // the raw payload cost of the resident entries minus what they
            // actually occupy on disk.
            std::uint64_t saved = s.logical_bytes > s.bytes
                ? s.logical_bytes - s.bytes
                : 0;
            framing::writeFrame(
                fd,
                log_detail::format(
                    "ok {\"hits\": %llu, \"misses\": %llu, \"warmups\": "
                    "%llu, \"evictions\": %llu, \"bytes\": %llu, "
                    "\"entries\": %llu, \"logical_bytes\": %llu, "
                    "\"saved_bytes\": %llu, \"blobs\": %llu, "
                    "\"requests\": %llu, \"legs_ok\": "
                    "%llu, \"legs_err\": %llu, \"legs_cancelled\": %llu}",
                    (unsigned long long)s.hits, (unsigned long long)s.misses,
                    (unsigned long long)s.warmups,
                    (unsigned long long)s.evictions,
                    (unsigned long long)s.bytes,
                    (unsigned long long)s.entries,
                    (unsigned long long)s.logical_bytes,
                    (unsigned long long)saved,
                    (unsigned long long)s.blobs,
                    (unsigned long long)requests_.load(),
                    (unsigned long long)legs_ok_.load(),
                    (unsigned long long)legs_err_.load(),
                    (unsigned long long)legs_cancelled_.load()));
        } else if (cmd == "sweep") {
            handleSweep(st, req);
        } else {
            framing::writeFrame(fd,
                                "err unknown command '" + oneLine(cmd) + "'");
        }
    } else if (rr == framing::ReadResult::kTimeout) {
        framing::writeFrame(fd, "err request timeout");
    } else if (rr == framing::ReadResult::kOversize) {
        framing::writeFrame(fd, "err request frame too large");
    }

    // Deregister before closing: stop() only shutdown()s fds it can still
    // see in conns_, so the fd number cannot be recycled under it.
    {
        std::lock_guard<std::mutex> lk(conn_mu_);
        conns_.erase(std::remove(conns_.begin(), conns_.end(), st),
                     conns_.end());
        st->fd = -1;
    }
    ::close(fd);
    --live_conns_;
}

void
DaemonServer::handleSweep(const std::shared_ptr<ConnState>& conn,
                          const std::string& payload)
{
    const int fd = conn->fd;

    // Parse and validate the whole request up front (fatals throw here):
    // a request either enqueues every leg or errors before touching the
    // worker pool.
    std::vector<std::pair<std::string, SimOptions>> legs;
    try {
        ScopedFatalThrow throws;
        SimOptions base;
        std::vector<std::string> leg_tokens;
        bool have_workload = false;
        for (const std::string& line : splitLines(payload)) {
            if (line == "sweep")
                continue;
            std::size_t eq = line.find('=');
            if (eq == std::string::npos)
                pfm_fatal("malformed request line '%s'", line.c_str());
            const std::string key = line.substr(0, eq);
            const std::string value = line.substr(eq + 1);
            if (key == "workload") {
                if (trace::isTraceWorkload(value)) {
                    // Trace replays name a file, not a registry entry.
                    // Validate up front under ScopedFatalThrow so a
                    // missing file or a corrupt header becomes a clean
                    // err frame, not a dead worker mid-sweep; require an
                    // absolute path because the daemon's cwd is its own,
                    // not the client's.
                    const std::string p = trace::traceWorkloadPath(value);
                    if (p.empty() || p[0] != '/')
                        pfm_fatal("trace workload path '%s' must be "
                                  "absolute", p.c_str());
                    trace::validateTraceFile(p);
                } else {
                    const auto names = workloadNames();
                    if (std::find(names.begin(), names.end(), value) ==
                        names.end())
                        pfm_fatal("unknown workload '%s'", value.c_str());
                }
                base.workload = value;
                have_workload = true;
            } else if (key == "component") {
                if (value != "none" && value != "auto" &&
                    value != "slipstream" && value != "alt")
                    pfm_fatal("unknown component option '%s'", value.c_str());
                base.component = value;
            } else if (key == "warmup") {
                base.warmup_instructions =
                    parseNumber(value, 0, "request field '" + key + "'");
            } else if (key == "instructions") {
                base.max_instructions =
                    parseNumber(value, 0, "request field '" + key + "'");
            } else if (key == "fastfwd") {
                if (value == "on")
                    base.fastfwd = true;
                else if (value == "off")
                    base.fastfwd = false;
                else
                    pfm_fatal("bad fastfwd value '%s' (on|off)",
                              value.c_str());
            } else if (key == "leg") {
                leg_tokens.push_back(value);
            } else {
                pfm_fatal("unknown request field '%s'", key.c_str());
            }
        }
        if (!have_workload)
            pfm_fatal("sweep request names no workload");
        if (leg_tokens.empty())
            pfm_fatal("sweep request has no legs");
        for (const std::string& tokens : leg_tokens) {
            SimOptions o = base;
            if (!tokens.empty())
                applyTokens(o, tokens);
            legs.emplace_back(tokens.empty() ? "default" : tokens,
                              std::move(o));
        }
    } catch (const FatalError& e) {
        framing::writeFrame(fd, "err " + oneLine(e.what()));
        return;
    }

    conn->legs_total = legs.size();
    {
        std::lock_guard<std::mutex> lk(task_mu_);
        for (std::size_t i = 0; i < legs.size(); ++i) {
            LegTask t;
            t.conn = conn;
            t.index = i;
            t.label = legs[i].first;
            t.opt = std::move(legs[i].second);
            tasks_.push_back(std::move(t));
        }
    }
    task_cv_.notify_all();

    // Stream outcomes in completion order; watch the client socket for
    // disconnect/cancel between batches. peer_ok goes false on the first
    // failed write — from then on outcomes are drained silently so the
    // workers' per-leg accounting still completes.
    bool peer_ok = true;
    std::size_t rows = 0;
    std::size_t errors = 0;
    std::size_t cancelled_legs = 0;
    for (;;) {
        std::deque<LegOutcome> batch;
        std::size_t done;
        {
            std::unique_lock<std::mutex> lk(conn->mu);
            conn->cv.wait_for(lk, std::chrono::milliseconds(100),
                              [&] { return !conn->results.empty(); });
            batch.swap(conn->results);
            done = conn->legs_done;
        }
        for (const LegOutcome& o : batch) {
            if (o.cancelled) {
                ++cancelled_legs;
                continue;
            }
            std::string frame;
            if (o.ok) {
                ++rows;
                frame = log_detail::format("row %zu %.3f ", o.index,
                                           o.wall_ms) +
                        o.json;
            } else {
                ++errors;
                frame = log_detail::format("legerr %zu ", o.index) +
                        oneLine(o.error);
            }
            if (peer_ok && !conn->cancelled.load() &&
                !framing::writeFrame(fd, frame)) {
                peer_ok = false;
                conn->cancelled.store(true);
            }
        }
        if (done == conn->legs_total)
            break;
        if (stopping_.load())
            conn->cancelled.store(true);
        if (peer_ok && !conn->cancelled.load()) {
            // Anything readable from the client mid-sweep means cancel:
            // either an explicit "cancel" frame or EOF from a disconnect.
            struct pollfd pfd{fd, POLLIN, 0};
            if (::poll(&pfd, 1, 0) > 0) {
                std::string msg;
                framing::ReadResult r = framing::readFrame(fd, msg, 0);
                if (r != framing::ReadResult::kTimeout)
                    conn->cancelled.store(true);
            }
        }
    }
    if (peer_ok && !stopping_.load()) {
        framing::writeFrame(
            fd, log_detail::format("done rows=%zu errors=%zu cancelled=%zu",
                                   rows, errors, cancelled_legs));
    }
}

void
DaemonServer::workerLoop()
{
    ++live_workers_;
    for (;;) {
        LegTask task;
        {
            std::unique_lock<std::mutex> lk(task_mu_);
            task_cv_.wait(lk, [&] {
                return !tasks_.empty() || stopping_.load();
            });
            if (tasks_.empty()) {
                if (stopping_.load())
                    break;
                continue;
            }
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        runLeg(task);
    }
    --live_workers_;
}

void
DaemonServer::runLeg(const LegTask& task)
{
    const std::shared_ptr<ConnState>& st = task.conn;
    LegOutcome out;
    out.index = task.index;

    if (stopping_.load() || st->cancelled.load()) {
        out.cancelled = true;
    } else {
        try {
            ScopedFatalThrow throws;
            // The warmup image is shared work keyed by the bare-core
            // fingerprint: produce (or wait for) it first, then restore
            // into the measurement leg. Only the measurement half honours
            // this client's cancellation — a warmup in flight completes
            // and publishes even if its requester walked away, because
            // other clients may be blocked on it.
            WarmupCache::Lease lease = cache_.acquire(
                WarmupCache::keyFor(task.opt),
                [this, &task](const std::string& path) {
                    warmFor(task.opt, path);
                });
            if (st->cancelled.load() || stopping_.load()) {
                out.cancelled = true;
            } else {
                SweepRun run;
                run.label = task.label;
                run.opt = task.opt;
                run.opt.defer_component = task.opt.component != "none";
                run.opt.cancel_poll = [this, st] {
                    return stopping_.load() || st->cancelled.load();
                };
                SweepResult res = runSweepLeg(run, "", lease.path());
                out.json = formatBenchJsonRow(
                    benchJsonRow(task.label, res.sim), /*include_wall=*/false);
                out.wall_ms = res.wall_ms;
                out.ok = true;
            }
        } catch (const SimCancelled&) {
            out.cancelled = true;
        } catch (const std::exception& e) {
            out.error = e.what();
        }
    }

    if (out.ok)
        ++legs_ok_;
    else if (out.cancelled)
        ++legs_cancelled_;
    else
        ++legs_err_;

    {
        std::lock_guard<std::mutex> lk(st->mu);
        st->results.push_back(std::move(out));
        ++st->legs_done;
    }
    st->cv.notify_all();
}

void
DaemonServer::warmFor(const SimOptions& leg_opt, const std::string& path)
{
    // A bare-core warmup leg, exactly as SweepSpec::addWarmup would run
    // it: warm, reset stats, save at the boundary, skip measurement. The
    // saved header carries the bare fingerprint, so any leg on this key
    // restores it regardless of component/PFM parameters. Saved through
    // the content-addressed store: keys sharing section payloads (above
    // all, keys differing only in warmup-irrelevant geometry) dedup
    // against one blob set, and the LRU budget holds several times more
    // keys for the same bytes.
    SweepRun warm;
    warm.label = "warmup";
    warm.opt = leg_opt;
    warm.opt.component = "none";
    warm.opt.defer_component = false;
    warm.opt.checkpoint_load.clear();
    warm.opt.cancel_poll = [this] { return stopping_.load(); };
    runSweepLeg(warm, path, "", daemonStoreSubdir());
}

} // namespace pfm
