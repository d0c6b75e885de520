/**
 * @file
 * Versioned, tagged binary checkpoint format for sharded long runs.
 *
 * A checkpoint is a small *manifest* file plus one content-addressed blob
 * per section payload in a store directory (ckpt_store.h):
 *
 *   manifest: magic u64 | format version u32 | config fingerprint u64 |
 *             workload string | component string | retired-at-save u64 |
 *             store subdir string | section count u32 |
 *             per section { name string | hash u64 | raw length u64 |
 *                           raw CRC32 u32 | flags u8 | stored length u64 }
 *             | manifest CRC32 u32 (over everything before it)
 *
 * Sections come in a fixed order; the reader names the section it
 * expects, so an order mismatch is caught by name. Each entry names its
 * blob by the FNV-1a hash of the raw payload; flags bit 0 marks the blob
 * as lz-compressed (common/lz.h), which the writer does only when that
 * at least halves it. Any other flag bit is corruption. The store subdir
 * is relative to the manifest's directory; empty means the file's own
 * store, `<manifest path>.blobs` (ckptStoreDir), so a manifest's bytes
 * depend only on the saved state, never on its file name. Saves that
 * name one shared subdir (SimOptions::ckpt_store) dedup their common
 * sections.
 *
 * Strings are u32 length + bytes. Every multi-byte value is host-endian;
 * checkpoints are an intra-machine hand-off between sweep legs, not an
 * interchange format. All read-side validation failures (truncation, CRC
 * mismatch, wrong version, unexpected section name, over-/under-read of a
 * payload, missing or corrupt blob) are pfm_fatal with the checkpoint
 * path and offending section — a corrupt checkpoint must never crash or
 * silently misload.
 *
 * Adding state: bump kCkptFormatVersion whenever a section's payload
 * layout changes or a section is added/removed, and keep save/load
 * ordering symmetric (see DESIGN.md "Checkpoint format").
 */

#ifndef PFM_SIM_CHECKPOINT_H
#define PFM_SIM_CHECKPOINT_H

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/ckpt_store.h"

namespace pfm {

/**
 * Bump on any layout change; readers reject every other version.
 * v3: per-section compression; adds the content-addressed manifest.
 * v4: caches save flat way planes and sorted MSHR/DRAM slot arrays.
 * v5: a leading "workload" section carries the workload descriptor.
 */
constexpr std::uint32_t kCkptFormatVersion = 5;

/**
 * CRC-32 (IEEE 802.3, reflected poly 0xEDB88320) of @p n bytes. Pass the
 * CRC of the preceding bytes as @p prev to continue a running CRC:
 * ckptCrc32(b, nb, ckptCrc32(a, na)) is the CRC of a followed by b.
 */
std::uint32_t ckptCrc32(const void* data, std::size_t n,
                        std::uint32_t prev = 0) noexcept;

class CkptWriter;
class CkptReader;

/**
 * Field-wise serialization hook for trivially copyable types whose
 * in-memory representation contains padding bytes. Raw memcpy of such a
 * type leaks indeterminate heap bytes into the checkpoint, breaking the
 * guarantee that two identical runs save byte-identical files (and with
 * it golden-fixture digests). Specialize with:
 *
 *   static constexpr std::size_t kWireSize;        // serialized bytes
 *   static void save(CkptWriter&, const T&);       // field-wise put()s
 *   static void load(CkptReader&, T&);             // symmetric get()s
 *
 * put()/get() dispatch to it automatically; padding-free types take the
 * raw-bytes fast path.
 */
template <typename T> struct CkptIO;

/**
 * True when T may be written as raw bytes: trivially copyable and every
 * bit participates in the value (no padding). Floating-point types fail
 * has_unique_object_representations only because of NaN aliasing, not
 * padding, so they are raw-safe too.
 */
template <typename T>
inline constexpr bool kCkptRawOk =
    std::is_trivially_copyable_v<T> &&
    (std::has_unique_object_representations_v<T> ||
     std::is_floating_point_v<T>);

/** CRC32 and length of one section's raw payload (CkptWriter::digests). */
struct CkptSectionDigest {
    std::string name;
    std::uint32_t crc = 0;
    std::uint64_t bytes = 0;
};

/** Header fields echoed back by CkptReader::readHeader(). */
struct CkptHeader {
    std::uint32_t version = 0;
    std::uint64_t fingerprint = 0;
    std::string workload;
    std::string component;     ///< component active at save ("none" = bare)
    std::uint64_t retired = 0; ///< instructions retired at the save point
};

/**
 * Serializer. Accumulates raw section payloads in memory; finish()
 * publishes one blob per section and then the manifest, each atomically
 * via temp + rename, and is fatal on any I/O error.
 */
class CkptWriter
{
  public:
    explicit CkptWriter(std::string path);

    /**
     * Publish the section blobs under `<dir of path>/<subdir>`, a store
     * other saves may share, instead of the file's own
     * `<path>.blobs`. Must be called before finish(); empty restores the
     * default.
     */
    void setStore(std::string subdir) { store_rel_ = std::move(subdir); }

    /**
     * Hash instead of buffer: every put() folds into the open section's
     * running CRC-32 and nothing is stored or written, so digests() is
     * this writer's only output (finish() is an error). Must be set
     * before the first section.
     */
    void setDigestOnly() { digest_only_ = true; }

    void writeHeader(const CkptHeader& h);

    void beginSection(const std::string& name);
    void endSection();

    void putBytes(const void* p, std::size_t n);

    template <typename T>
    void
    put(const T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "put() requires a trivially copyable type");
        if constexpr (kCkptRawOk<T>)
            putBytes(&v, sizeof(T));
        else
            CkptIO<T>::save(*this, v); // padded type: field-wise hook
    }

    void putString(const std::string& s);

    /**
     * u64 element count + raw bytes; elements must be padding-free (a
     * padded element type needs a per-element put() loop instead).
     */
    template <typename T>
    void
    putVec(const std::vector<T>& v)
    {
        static_assert(kCkptRawOk<T>,
                      "putVec() requires padding-free elements; serialize "
                      "padded structs with a put() loop (see CkptIO)");
        put<std::uint64_t>(v.size());
        if (!v.empty())
            putBytes(v.data(), v.size() * sizeof(T));
    }

    /** u64 element count + per-element put(). */
    template <typename T>
    void
    putDeque(const std::deque<T>& d)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "putDeque() requires trivially copyable elements");
        put<std::uint64_t>(d.size());
        for (const T& v : d)
            put(v);
    }

    /** Publish the blobs and the manifest. No further use after this. */
    void finish();

    /** One digest per closed section, in write order (digest-only mode). */
    const std::vector<CkptSectionDigest>& digests() const { return digests_; }

    const std::string& path() const { return path_; }

  private:
    /** One closed section: a [start, start+len) slice of out_. */
    struct Sec {
        std::string name;
        std::size_t start;
        std::size_t len;
    };

    std::string path_;
    CkptHeader hdr_;
    std::vector<std::uint8_t> out_; ///< concatenated raw section payloads
    std::vector<Sec> secs_;
    std::string store_rel_;         ///< shared store subdir ("" = own)
    bool digest_only_ = false;
    std::vector<CkptSectionDigest> digests_; ///< digest-only mode output
    std::uint32_t sec_crc_ = 0;     ///< open section's running CRC (digest)
    std::uint64_t sec_bytes_ = 0;   ///< open section's length (digest)
    std::size_t sec_start_ = 0;     ///< offset of the open section's payload
    std::string section_;
    bool in_section_ = false;
    bool header_written_ = false;
};

/**
 * Deserializer. Reads the manifest up front and each section's blob when
 * the section opens; every accessor validates bounds against the section
 * payload and dies with the section name on any inconsistency.
 */
class CkptReader
{
  public:
    explicit CkptReader(std::string path);

    /** Parse and validate the whole manifest; fatal on any mismatch. */
    CkptHeader readHeader();

    /**
     * Open the next section, which must be named @p name (order is part
     * of the format), and verify its length bounds and CRC.
     */
    void beginSection(const std::string& name);

    /** Close the current section; fatal if payload bytes remain. */
    void endSection();

    void getBytes(void* p, std::size_t n);

    /**
     * The next @p n payload bytes in place, without a copy; fatal when
     * fewer remain. Valid while the open section's blob lives: hold
     * pin() to keep it past endSection().
     */
    const std::uint8_t* view(std::size_t n);

    /** The open section's decoded blob, shared (see ckptBlobLoad). */
    std::shared_ptr<const std::vector<std::uint8_t>> pin() const;

    template <typename T>
    void
    get(T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "get() requires a trivially copyable type");
        if constexpr (kCkptRawOk<T>)
            getBytes(&v, sizeof(T));
        else
            CkptIO<T>::load(*this, v); // padded type: field-wise hook
    }

    template <typename T>
    T
    get()
    {
        T v{};
        get(v);
        return v;
    }

    std::string getString();

    template <typename T>
    void
    getVec(std::vector<T>& v)
    {
        static_assert(kCkptRawOk<T>,
                      "getVec() requires padding-free elements; deserialize "
                      "padded structs with a get() loop (see CkptIO)");
        std::uint64_t n = get<std::uint64_t>();
        checkCount(n, sizeof(T));
        v.resize(static_cast<std::size_t>(n));
        if (n)
            getBytes(v.data(), static_cast<std::size_t>(n) * sizeof(T));
    }

    template <typename T>
    void
    getDeque(std::deque<T>& d)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "getDeque() requires trivially copyable elements");
        std::uint64_t n = get<std::uint64_t>();
        if constexpr (kCkptRawOk<T>)
            checkCount(n, sizeof(T));
        else
            checkCount(n, CkptIO<T>::kWireSize);
        d.clear();
        for (std::uint64_t i = 0; i < n; ++i)
            d.push_back(get<T>());
    }

    /** True once every section has been consumed. */
    bool atEnd() const { return next_entry_ == entries_.size(); }

    /** Payload bytes not yet read from the open section. */
    std::size_t remaining() const { return send_ - spos_; }

    const std::string& path() const { return path_; }

    /**
     * getVec() into a vector already sized to the expected length: fatal,
     * naming @p what, unless the payload holds exactly that many elements.
     */
    template <typename T>
    void
    getVecSized(std::vector<T>& v, const std::string& what)
    {
        const std::size_t n = v.size();
        getVec(v);
        if (v.size() != n)
            fail(what + " has " + std::to_string(v.size()) +
                 " entries, expected " + std::to_string(n));
    }

    /**
     * Die naming the checkpoint and the open section. Loaders call it for
     * a payload that parses but holds invalid state.
     */
    [[noreturn]] void fail(const std::string& what) const;

  private:
    /** One parsed manifest entry, consumed in order by beginSection(). */
    struct ManifestEntry {
        std::string name;
        std::uint64_t hash = 0;
        CkptBlobMeta meta;
    };

    /** Element count sanity: must fit in the bytes left in the section. */
    void checkCount(std::uint64_t n, std::size_t elem_size);

    /** Raw read from the manifest bytes. */
    void rawBytes(void* p, std::size_t n, const char* what);
    std::uint32_t rawU32(const char* what);
    std::uint64_t rawU64(const char* what);
    std::string rawString(const char* what);

    std::string path_;
    std::vector<std::uint8_t> buf_; ///< the manifest file
    std::size_t pos_ = 0;           ///< cursor into buf_

    std::vector<ManifestEntry> entries_;
    std::size_t next_entry_ = 0;
    std::string store_dir_;         ///< resolved blob directory

    /**
     * Open section: its decoded payload, shared with concurrent restores
     * through the hot-blob cache and pinned by blob_ until endSection().
     */
    std::shared_ptr<const std::vector<std::uint8_t>> blob_;
    std::size_t spos_ = 0;
    std::size_t send_ = 0;
    std::string section_;
    bool in_section_ = false;
};

} // namespace pfm

#endif // PFM_SIM_CHECKPOINT_H
