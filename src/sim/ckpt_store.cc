#include "sim/ckpt_store.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <mutex>
#include <unordered_map>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.h"
#include "common/lz.h"
#include "sim/checkpoint.h"

namespace pfm {

namespace {

struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
};

/** Diagnostic in the same shape as CkptReader::fail(). */
[[noreturn]] void
storeFail(const std::string& ckpt_path, const std::string& section,
          const std::string& what)
{
    pfm_fatal("checkpoint '%s': %s (section '%s')", ckpt_path.c_str(),
              what.c_str(), section.c_str());
}

/** Serialize a blob header into exactly kCkptBlobHeaderBytes at @p out. */
void
packBlobHeader(std::uint8_t* out, const CkptBlobMeta& meta)
{
    std::size_t off = 0;
    auto put = [&](const void* p, std::size_t n) {
        std::memcpy(out + off, p, n);
        off += n;
    };
    put(&kCkptBlobMagic, sizeof kCkptBlobMagic);
    put(&meta.raw_len, sizeof meta.raw_len);
    put(&meta.raw_crc, sizeof meta.raw_crc);
    put(&meta.flags, sizeof meta.flags);
    put(&meta.stored_len, sizeof meta.stored_len);
    pfm_assert(off == kCkptBlobHeaderBytes, "blob header size drift");
}

/** Parse a blob header; false when @p n is too short or the magic is off. */
bool
unpackBlobHeader(const std::uint8_t* in, std::size_t n, CkptBlobMeta& meta)
{
    if (n < kCkptBlobHeaderBytes)
        return false;
    std::size_t off = 0;
    auto get = [&](void* p, std::size_t sz) {
        std::memcpy(p, in + off, sz);
        off += sz;
    };
    std::uint32_t magic = 0;
    get(&magic, sizeof magic);
    if (magic != kCkptBlobMagic)
        return false;
    get(&meta.raw_len, sizeof meta.raw_len);
    get(&meta.raw_crc, sizeof meta.raw_crc);
    get(&meta.flags, sizeof meta.flags);
    get(&meta.stored_len, sizeof meta.stored_len);
    return true;
}

/**
 * Process-wide cache of decoded blob payloads. Weak entries let every
 * in-flight restore share one buffer; the small strong ring keeps the
 * hottest blobs (the shared bare-core engine payload, above all) decoded
 * across back-to-back restores even when no lease holds them. Loads and
 * decompression run outside the lock — a racing pair of threads may decode
 * the same blob twice, but the result is identical and the common case
 * (N legs restoring one warmup) hits the cache after the first.
 */
class HotBlobCache
{
  public:
    struct CachedBlob {
        std::uint64_t hash = 0;
        CkptBlobMeta meta;
        std::shared_ptr<const std::vector<std::uint8_t>> raw;
    };

    bool
    lookup(const std::string& path, CachedBlob& out)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = map_.find(path);
        if (it == map_.end())
            return false;
        auto raw = it->second.raw.lock();
        if (!raw) {
            map_.erase(it);
            return false;
        }
        out.hash = it->second.hash;
        out.meta = it->second.meta;
        out.raw = std::move(raw);
        return true;
    }

    void
    insert(const std::string& path, const CachedBlob& blob)
    {
        std::lock_guard<std::mutex> lk(mu_);
        map_[path] = Entry{blob.hash, blob.meta, blob.raw};
        ring_.push_back(blob.raw);
        while (ring_.size() > kRing)
            ring_.pop_front();
        if (map_.size() > kSweepAt) {
            for (auto it = map_.begin(); it != map_.end();)
                it = it->second.raw.expired() ? map_.erase(it)
                                              : std::next(it);
        }
    }

  private:
    struct Entry {
        std::uint64_t hash = 0;
        CkptBlobMeta meta;
        std::weak_ptr<const std::vector<std::uint8_t>> raw;
    };

    static constexpr std::size_t kRing = 8;     ///< strong refs kept hot
    static constexpr std::size_t kSweepAt = 64; ///< expired-entry GC bound

    std::mutex mu_;
    std::unordered_map<std::string, Entry> map_;
    std::deque<std::shared_ptr<const std::vector<std::uint8_t>>> ring_;
};

HotBlobCache&
blobCache()
{
    static HotBlobCache cache;
    return cache;
}

} // namespace

std::uint64_t
ckptHash64(const void* data, std::size_t n) noexcept
{
    // FNV-1a 64: cheap, dependency-free, and good enough for content
    // addressing given the raw_len + CRC cross-check on every reference.
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint64_t h = 0xCBF29CE484222325ull;
    while (n--) {
        h ^= *p++;
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
ckptBlobName(std::uint64_t hash)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx.blob",
                  static_cast<unsigned long long>(hash));
    return buf;
}

CkptBlobMeta
ckptStorePut(const std::string& store_dir, std::uint64_t hash,
             const CkptBlobMeta& meta, const std::uint8_t* stored,
             const std::string& ckpt_path, const std::string& section)
{
    if (::mkdir(store_dir.c_str(), 0777) != 0 && errno != EEXIST)
        pfm_fatal("checkpoint '%s': cannot create store directory '%s'",
                  ckpt_path.c_str(), store_dir.c_str());

    const std::string path = store_dir + "/" + ckptBlobName(hash);

    // Dedup fast path: an existing blob with the same hash, raw length
    // and raw CRC is this exact content — skip the write. It may be
    // stored in the other form (a store written under an older
    // compression rule), so the caller records its metadata, not ours.
    // A header that disagrees means a hash collision or corrupted store;
    // aliasing it silently would hand a later restore the wrong section
    // bytes.
    std::uint8_t hdr[kCkptBlobHeaderBytes];
    CkptBlobMeta found;
    auto sameContent = [&](std::FILE* in) {
        return std::fread(hdr, 1, sizeof hdr, in) == sizeof hdr &&
               unpackBlobHeader(hdr, sizeof hdr, found) &&
               found.raw_len == meta.raw_len &&
               found.raw_crc == meta.raw_crc &&
               (found.flags & ~kCkptBlobCompressed) == 0;
    };
    if (std::unique_ptr<std::FILE, FileCloser> in{
            std::fopen(path.c_str(), "rb")}) {
        if (sameContent(in.get()))
            return found;
        storeFail(ckpt_path, section,
                  "blob '" + ckptBlobName(hash) +
                      "' already exists with different metadata (hash "
                      "collision or corrupt store)");
    }

    // Temp name is unique per publish — pid for cross-process shards,
    // plus a process-wide counter for same-process threads (sharded
    // sweep warmup legs and daemon workers publish concurrently from one
    // pid). Sharing a temp would let two publishers truncate each
    // other's half-written bytes. The rename is atomic, so the final
    // path only ever holds a complete blob; losing the race just
    // replaces identical bytes.
    static std::atomic<unsigned long> publish_seq{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
        "." +
        std::to_string(publish_seq.fetch_add(1, std::memory_order_relaxed));
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        pfm_fatal("checkpoint '%s': cannot open blob temp '%s' for writing",
                  ckpt_path.c_str(), tmp.c_str());
    packBlobHeader(hdr, meta);
    std::size_t written = std::fwrite(hdr, 1, sizeof hdr, f);
    if (meta.stored_len)
        written += std::fwrite(stored, 1,
                               static_cast<std::size_t>(meta.stored_len), f);
    bool close_ok = std::fclose(f) == 0;
    if (written != sizeof hdr + meta.stored_len || !close_ok) {
        std::remove(tmp.c_str());
        pfm_fatal("checkpoint '%s': short write publishing blob '%s'",
                  ckpt_path.c_str(), path.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        // A concurrent publisher may have raced us in a way the
        // filesystem would not absorb; the loss is benign iff the final
        // blob now holds the same content.
        std::unique_ptr<std::FILE, FileCloser> in{
            std::fopen(path.c_str(), "rb")};
        if (in && sameContent(in.get()))
            return found;
        pfm_fatal("checkpoint '%s': cannot rename blob '%s' into place",
                  ckpt_path.c_str(), path.c_str());
    }
    return meta;
}

std::shared_ptr<const std::vector<std::uint8_t>>
ckptBlobLoad(const std::string& blob_path, std::uint64_t hash,
             const CkptBlobMeta& meta, const std::string& ckpt_path,
             const std::string& section)
{
    HotBlobCache::CachedBlob cached;
    if (blobCache().lookup(blob_path, cached)) {
        if (cached.hash != hash || !(cached.meta == meta))
            storeFail(ckpt_path, section,
                      "manifest metadata disagrees with cached blob '" +
                          blob_path + "'");
        return cached.raw;
    }

    // The payload is read straight into its destination: a raw blob
    // into the shared buffer itself, a compressed one into a scratch
    // buffer that is decoded into it.
    std::unique_ptr<std::FILE, FileCloser> f(
        std::fopen(blob_path.c_str(), "rb"));
    if (!f)
        storeFail(ckpt_path, section,
                  "missing blob '" + blob_path + "' referenced by manifest");
    std::uint8_t hdr[kCkptBlobHeaderBytes];
    CkptBlobMeta found;
    if (std::fread(hdr, 1, sizeof hdr, f.get()) != sizeof hdr ||
        !unpackBlobHeader(hdr, sizeof hdr, found))
        storeFail(ckpt_path, section,
                  "blob '" + blob_path + "' is not a PFM blob");
    if (!(found == meta))
        storeFail(ckpt_path, section,
                  "blob '" + blob_path +
                      "' metadata disagrees with manifest");
    // The file length bounds stored_len before anything is allocated.
    long size = -1;
    if (std::fseek(f.get(), 0, SEEK_END) == 0)
        size = std::ftell(f.get());
    if (size < 0 ||
        static_cast<std::uint64_t>(size) !=
            kCkptBlobHeaderBytes + meta.stored_len ||
        std::fseek(f.get(), kCkptBlobHeaderBytes, SEEK_SET) != 0)
        storeFail(ckpt_path, section,
                  "truncated blob '" + blob_path + "' (" +
                      std::to_string(size) + " bytes, " +
                      std::to_string(kCkptBlobHeaderBytes +
                                     meta.stored_len) +
                      " expected)");
    const auto readAll = [&](std::uint8_t* dst, std::size_t n) {
        if (n && std::fread(dst, 1, n, f.get()) != n)
            storeFail(ckpt_path, section,
                      "cannot read blob '" + blob_path + "'");
    };

    auto raw = std::make_shared<std::vector<std::uint8_t>>();
    if (meta.flags & kCkptBlobCompressed) {
        // Bound the declared raw length before trusting it with a
        // resize: corruption must fail by name, not as a bad_alloc.
        if (meta.raw_len > lz::maxRawLen(meta.stored_len))
            storeFail(ckpt_path, section,
                      "implausible raw length " +
                          std::to_string(meta.raw_len) + " in blob '" +
                          blob_path + "'");
        std::vector<std::uint8_t> stored(
            static_cast<std::size_t>(meta.stored_len));
        readAll(stored.data(), stored.size());
        raw->resize(static_cast<std::size_t>(meta.raw_len));
        if (!lz::decompress(stored.data(), stored.size(), raw->data(),
                            raw->size()))
            storeFail(ckpt_path, section,
                      "corrupt compressed blob '" + blob_path + "'");
    } else {
        if (meta.stored_len != meta.raw_len)
            storeFail(ckpt_path, section,
                      "blob '" + blob_path +
                          "' raw/stored length mismatch");
        raw->resize(static_cast<std::size_t>(meta.raw_len));
        readAll(raw->data(), raw->size());
    }
    // One pass over the payload: the CRC catches a corrupt one. The
    // content hash is not recomputed; the writer derived it from the
    // same raw bytes the CRC covers.
    if (ckptCrc32(raw->data(), raw->size()) != meta.raw_crc)
        storeFail(ckpt_path, section,
                  "CRC mismatch in blob '" + blob_path + "'");

    HotBlobCache::CachedBlob blob{hash, meta, raw};
    blobCache().insert(blob_path, blob);
    return raw;
}

std::uint64_t
ckptStoreDirBytes(const std::string& dir)
{
    DIR* d = ::opendir(dir.c_str());
    if (!d)
        return 0;
    std::uint64_t total = 0;
    while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.size() < 5 || name.compare(name.size() - 5, 5, ".blob"))
            continue;
        struct stat st;
        if (::stat((dir + "/" + name).c_str(), &st) == 0)
            total += static_cast<std::uint64_t>(st.st_size);
    }
    ::closedir(d);
    return total;
}

void
ckptStoreRemoveDir(const std::string& dir)
{
    DIR* d = ::opendir(dir.c_str());
    if (!d)
        return;
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.find(".blob") != std::string::npos)
            names.push_back(name); // *.blob, stray *.blob.tmp.<pid>.<seq>
    }
    ::closedir(d);
    for (const std::string& name : names)
        std::remove((dir + "/" + name).c_str());
    ::rmdir(dir.c_str());
}

void
ckptRemove(const std::string& path)
{
    std::remove(path.c_str());
    ckptStoreRemoveDir(ckptStoreDir(path, ""));
}

std::string
ckptStoreDir(const std::string& ckpt_path, const std::string& store_rel)
{
    if (store_rel.empty())
        return ckpt_path + ".blobs";
    std::size_t slash = ckpt_path.find_last_of('/');
    return (slash == std::string::npos ? std::string(".")
                                       : ckpt_path.substr(0, slash)) +
           "/" + store_rel;
}

bool
ckptReadFile(const std::string& path, std::vector<std::uint8_t>& out)
{
    out.clear();
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    bool ok = false;
    if (std::fseek(f, 0, SEEK_END) == 0) {
        long size = std::ftell(f);
        if (size >= 0 && std::fseek(f, 0, SEEK_SET) == 0) {
            out.resize(static_cast<std::size_t>(size));
            ok = out.empty() ||
                 std::fread(out.data(), 1, out.size(), f) == out.size();
        }
    }
    std::fclose(f);
    if (!ok)
        out.clear();
    return ok;
}

namespace {

/** Bounded cursor over a byte buffer for the lenient inspector. */
struct Cursor {
    const std::uint8_t* p;
    std::size_t n;
    std::size_t off = 0;

    template <typename T>
    bool
    get(T& v)
    {
        if (sizeof v > n - off)
            return false;
        std::memcpy(&v, p + off, sizeof v);
        off += sizeof v;
        return true;
    }

    bool
    getString(std::string& s)
    {
        std::uint32_t len;
        if (!get(len) || len > n - off)
            return false;
        s.assign(reinterpret_cast<const char*>(p + off), len);
        off += len;
        return true;
    }
};

} // namespace

CkptFileInfo
inspectCkptFile(const std::string& path)
{
    CkptFileInfo info;
    std::vector<std::uint8_t> file;
    const bool readable = ckptReadFile(path, file);
    info.file_bytes = file.size();
    info.logical_bytes = info.file_bytes; // fallback for junk/unreadable
    if (!readable)
        return info;

    Cursor c{file.data(), file.size()};
    CkptFileInfo m;
    m.file_bytes = info.file_bytes;
    std::uint64_t magic;
    std::string workload;
    std::string component;
    std::string store_rel;
    std::uint64_t u64;
    std::uint32_t nsec;
    if (!c.get(magic) || magic != kCkptManifestMagic || !c.get(m.version) ||
        !c.get(u64) || !c.getString(workload) || !c.getString(component) ||
        !c.get(u64) || !c.getString(store_rel) || !c.get(nsec))
        return info;
    const std::string store_dir = ckptStoreDir(path, store_rel);
    for (std::uint32_t i = 0; i < nsec; ++i) {
        std::string name;
        CkptBlobRef ref;
        CkptBlobMeta meta;
        if (!c.getString(name) || !c.get(ref.hash) || !c.get(meta.raw_len) ||
            !c.get(meta.raw_crc) || !c.get(meta.flags) ||
            !c.get(meta.stored_len))
            return info;
        ref.stored_len = meta.stored_len;
        ref.path = store_dir + "/" + ckptBlobName(ref.hash);
        m.logical_bytes += meta.raw_len;
        m.blobs.push_back(std::move(ref));
    }
    return m;
}

} // namespace pfm
