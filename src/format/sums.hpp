// End-to-end data integrity: per-chunk CRC32 map over the data region.
//
// The commit journal (commit.hpp) CRC-protects the header and numrecs, but
// the data region has no integrity story: a pfs bit flip sails through
// mpiio, pnetcdf, and the C API undetected. This module closes that hole
// with a chunked checksum map persisted in a `<path>.ncsum` sidecar:
//
//   offset  0  magic "NCSM01\0\0"
//   offset  8  commit slot (32 bytes)
//   offset 40  sum table bytes (the shadow region the slot commits)
//
//   slot  := seq u64 | table_len u64 | table_crc u32 | flags u32
//            | pad u32 (zero) | rec_crc u32             (all big-endian)
//   table := chunk_size u64 | data_begin u64 | entry_count u64
//            | entry_count x { chunk u64 | len u32 | crc u32 }
//
// Chunk i covers file bytes [data_begin + i*chunk_size, .. + chunk_size);
// an entry's `len` is the summed extent within the chunk (the tail chunk is
// shorter than chunk_size). The table is sparse: only summed chunks appear.
//
// A commit is one write request, then one sync: [slot|table] at offset 8,
// or just [slot] while the table on the medium is unchanged. A dataset's
// sidecar is created empty, which reads as "never committed" exactly like a
// zeroed slot, so its first commit writes [magic|slot|table] from offset 0.
// The table is overwritten in place; a torn request fails the slot CRC or
// the table CRC and degrades every chunk to "unsummed" — a torn sidecar
// can never claim valid sums. `flags` bit 0 is the OPEN marker: a writable
// reopen commits it set before mutating data, and only the closing flush
// at Close commits a table without it. A mid-session flush (Sync) folds the
// pieces into the map but commits nothing, since an open-marked table is
// never trusted anyway. A crash mid-session therefore leaves the sidecar
// open or empty, and later readers distrust the (possibly stale) sums
// instead of flagging freshly written data as corrupt.
//
// Sums are computed from the bytes already in memory, never read back from
// the medium. Every successful physical write goes through one hook per
// library (mpiio's and the serial BufferedFile's RetryIo), which hands the
// buffer it just wrote (a two-phase collective buffer, a sieved
// read-modify-write window, or the contiguous user buffer) to
// ChunkSumMap::RecordWrite. That splits the write at chunk boundaries and
// keeps one piece {chunk, offset-in-chunk, len, crc} per part. At a flush
// the pieces of every writer meet on one side (the root, in the parallel
// library) and ResolvePieces folds each dirty chunk with Crc32Combine:
//
//   * pieces that tile [0, min(chunk_size, EOF - chunk_start)) exactly,
//     with no overlap, give the chunk's sum without reading a byte;
//   * so do pieces that tile [len, ..) after the chunk's committed sum of
//     length `len` (a tail chunk extended by appends after a flush);
//   * anything else — partial coverage, overlapping pieces (two writers,
//     or one writer rewriting bytes), chunks marked unsummed by a failed
//     write or a relayout — is the fallback: ResumChunks re-reads just
//     those chunks, in chunk order, and sums the medium's bytes.
//
// A file system that stores nothing (pfs::Config::discard_data) reads back
// zeros; a piece written there records the CRC of that many zero bytes
// (Crc32Zeros), so the table still describes the medium. A write whose
// stored payload is flipped on the way (bitflip_write_prob) is recorded
// with the CRC of what the caller wrote, so a later verified read or scrub
// reports the flip instead of vouching for it. A failed write may still
// have stored a prefix (a short transfer before the error): it marks its
// chunks unsummed, so they are re-read rather than keeping a stale sum.
//
// Verify-on-read (VerifyReadRange) recomputes the CRC of every committed,
// non-dirty chunk a physical read touches, re-reading neighbouring bytes
// through the caller-supplied raw-read callback. A mismatch is retried
// (healing transient read-side flips) before surfacing kDataCorrupt; the
// sticky at-rest case keeps mismatching and is reported, never returned
// silently. All of this is armed-only: with PNC_SUMS=0 no sidecar is
// created, no verification runs, and runs are bit-identical to a build
// without this module.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "format/commit.hpp"
#include "format/header.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace ncformat {

/// The sidecar path for a dataset path.
[[nodiscard]] std::string SumsPath(const std::string& path);

/// PNC_SUMS gate (default on; "0" disables the whole subsystem).
[[nodiscard]] bool SumsEnabled();

/// Origin of chunk 0: the first byte of the data region `h` lays out, i.e.
/// the lowest variable begin offset (alignment hints can push it past the
/// encoded header size); 0 when no variables exist.
[[nodiscard]] std::uint64_t SumsOrigin(const Header& h);

/// Chunk size: PNC_SUM_CHUNK bytes, default 64 KiB, clamped to
/// [4 KiB, 16 MiB]. 64 KiB keeps the sidecar tiny (16 B per 64 KiB of
/// data, 0.02%) while bounding the heal re-read amplification of a
/// one-byte access to one chunk.
[[nodiscard]] std::uint64_t SumChunkSize();

constexpr std::uint64_t kSumsMagicLen = 8;
constexpr std::uint64_t kSumsSlotOffset = 8;
constexpr std::uint64_t kSumsSlotSize = 32;
constexpr std::uint64_t kSumsTableOffset = kSumsSlotOffset + kSumsSlotSize;
constexpr std::uint32_t kSumsFlagOpen = 1u;

/// One committed chunk checksum: `len` bytes from the chunk start.
struct ChunkSum {
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  friend bool operator==(const ChunkSum&, const ChunkSum&) = default;
};

/// One in-memory checksum piece: the CRC of `len` bytes at `off` within
/// chunk `chunk`, as written.
struct SumPiece {
  std::uint64_t chunk = 0;
  std::uint32_t off = 0;
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
};

/// The in-memory chunk map one session (rank) maintains: committed entries
/// plus what this rank has done since the last flush — the chunks it
/// dirtied, the pieces its writes recorded, and the chunks it could not
/// record (unsummed). Dirty chunks are exempt from verification (their
/// committed sum is stale by construction) and are exactly the set a flush
/// must resolve.
class ChunkSumMap {
 public:
  void SetGeometry(std::uint64_t chunk_size, std::uint64_t data_begin);
  [[nodiscard]] std::uint64_t chunk_size() const { return chunk_size_; }
  [[nodiscard]] std::uint64_t data_begin() const { return data_begin_; }

  /// File offset of chunk `c`'s first byte.
  [[nodiscard]] std::uint64_t ChunkStart(std::uint64_t c) const {
    return data_begin_ + c * chunk_size_;
  }
  /// Chunk index covering file offset `off` (must be >= data_begin).
  [[nodiscard]] std::uint64_t ChunkOf(std::uint64_t off) const {
    return (off - data_begin_) / chunk_size_;
  }

  [[nodiscard]] bool Lookup(std::uint64_t chunk, ChunkSum* out) const;
  void Set(std::uint64_t chunk, ChunkSum sum);
  [[nodiscard]] const std::map<std::uint64_t, ChunkSum>& entries() const {
    return entries_;
  }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Drop all entries and pending state (used when the data region moves
  /// under a relayout — every old sum is meaningless at the new offsets).
  void Clear();

  /// A write of `data` at file offset `offset` succeeded: mark its chunks
  /// dirty and record one piece per chunk part. `stored` false means the
  /// medium keeps no bytes (discard_data) and reads back zeros, so the
  /// pieces sum zeros. A piece directly continuing this rank's previous
  /// piece in the same chunk is combined into it. Bytes below data_begin
  /// (header writes) are ignored.
  void RecordWrite(std::uint64_t offset, pnc::ConstByteSpan data,
                   bool stored);
  /// Mark every chunk overlapping [offset, offset+len) dirty with no
  /// piece, so the next flush re-reads it: a failed write that may have
  /// stored a prefix, or existing data moved by a relayout.
  void MarkUnsummed(std::uint64_t offset, std::uint64_t len);
  [[nodiscard]] bool IsDirty(std::uint64_t chunk) const {
    return dirty_.count(chunk) != 0;
  }
  [[nodiscard]] const std::vector<SumPiece>& pieces() const { return pieces_; }
  [[nodiscard]] const std::set<std::uint64_t>& unsummed() const {
    return unsummed_;
  }
  /// Forget the pending state after a flush (entries stay).
  void ClearDirty();

  /// This rank's pending state as a blob for the flush gather, and the
  /// inverse (appending to `pieces` / `unsummed`).
  [[nodiscard]] std::vector<std::byte> EncodePending() const;
  static void DecodePending(pnc::ConstByteSpan blob,
                            std::vector<SumPiece>* pieces,
                            std::set<std::uint64_t>* unsummed);

  /// Fold every writer's pending state into the entries. A chunk whose
  /// pieces tile [0, min(chunk_size, file_size - start)) exactly — or tile
  /// the rest of it after a committed sum — gets the combined CRC; the
  /// returned chunks (ascending) need a read-back (ResumChunks). Chunks at
  /// or past EOF keep their entry.
  [[nodiscard]] std::vector<std::uint64_t> ResolvePieces(
      std::vector<SumPiece> pieces, const std::set<std::uint64_t>& unsummed,
      std::uint64_t file_size);

  /// Serialize / parse the table region (geometry + sparse entries).
  [[nodiscard]] std::vector<std::byte> EncodeTable() const;
  [[nodiscard]] static pnc::Result<ChunkSumMap> DecodeTable(
      pnc::ConstByteSpan table);

 private:
  std::uint64_t chunk_size_ = 0;
  std::uint64_t data_begin_ = 0;
  std::map<std::uint64_t, ChunkSum> entries_;
  std::set<std::uint64_t> dirty_;
  std::set<std::uint64_t> unsummed_;
  std::vector<SumPiece> pieces_;
};

/// The committed slot state a writer threads through successive commits.
struct SumsState {
  std::uint64_t seq = 0;
  bool open = false;
  /// The table bytes the committed slot describes (empty = none durable).
  std::vector<std::byte> table;
};

/// Durably commit the map in one request and one sync: [slot|table], with
/// the magic in front on a sidecar's first commit (`state->seq` 0), or only
/// the slot when the table equals the committed one. `open` set leaves the
/// session-open marker in place. Counted in nc.sum_commits and
/// nc.sum_commit_vns.
[[nodiscard]] pnc::Status CommitSums(CommitIo& io, const ChunkSumMap& map,
                                     bool open, SumsState* state);

/// A loaded sidecar. `trusted` is false when the sidecar is missing,
/// torn, or was left open by a crashed session — the map is then empty
/// and every chunk is "unsummed" (verification quietly off, never a
/// false corruption verdict).
struct LoadedSums {
  ChunkSumMap map;
  SumsState state;
  bool trusted = false;
};

/// The trust rule at open: a loaded table stays trusted only when its
/// geometry matches the live data region at `origin` — a mismatch means a
/// stale sidecar (an out-of-band rewrite of the primary), discarded rather
/// than risking false corruption verdicts. An untrusted or geometry-less
/// map is reset empty at `origin` with the default chunk size. Returns true
/// when a trusted table was demoted for its geometry.
bool ApplyTrustRule(LoadedSums* loaded, std::uint64_t origin);

/// Parse the sidecar. A CRC-invalid slot/table is re-read up to
/// `reread_attempts` times (a transient read-side flip of the sidecar
/// itself must not silently disable verification) before degrading to
/// untrusted. Only I/O errors are returned as bad status.
[[nodiscard]] pnc::Result<LoadedSums> LoadSums(CommitIo& io,
                                               int reread_attempts = 4);

/// Raw byte reader for verification re-reads: must bypass verification
/// (no recursion) but retain the caller's retry/cost discipline.
using RawRead =
    std::function<pnc::Status(std::uint64_t offset, pnc::ByteSpan out)>;

/// One dataset's checksum session: the rules the serial and the parallel
/// library share. The map is kept on every rank; the sidecar handle and its
/// slot state live with the committing side (the serial library, the
/// parallel root).
struct SumsSession {
  ChunkSumMap map;
  std::unique_ptr<CommitIo> io;
  SumsState state;
  bool on = false;        ///< armed for this dataset (agreed on all ranks)
  bool writable = false;  ///< the dataset was opened for writing

  /// Read-only sessions commit nothing — no table, no slot, no sync — so a
  /// reader never writes the sidecar.
  [[nodiscard]] bool commits() const { return on && writable; }

  /// Open-time decision through `io` (an empty sidecar reads as never
  /// committed): load the table, apply the trust rule at `origin` and, when
  /// writable, commit the session-open marker before any data write can
  /// land. False (and `io` released) leaves the session unarmed: a
  /// read-only open with nothing trustworthy to verify against.
  pnc::Result<bool> Open(std::uint64_t origin);

  /// EndDef: the map follows the data region to `origin`. When it moved (or
  /// had no geometry yet) every committed sum is stale, so the map restarts
  /// empty and the existing data [origin, data_end) is marked unsummed for
  /// the next flush to re-read. Call before the relayout and fills, so their
  /// writes record pieces in the new geometry.
  void Rebase(std::uint64_t origin, std::uint64_t data_end);

  /// The committing side of a flush: fold every writer's pending `pieces`
  /// and `unsummed` chunks into the map (ChunkSumMap::ResolvePieces) and
  /// re-read the chunks they do not tile through `raw` — one requester, in
  /// chunk order, so no read depends on thread scheduling.
  pnc::Status Settle(std::vector<SumPiece> pieces,
                     const std::set<std::uint64_t>& unsummed,
                     std::uint64_t file_size, const RawRead& raw);

  /// The committing side's last step of a flush, after Settle. Only the
  /// closing flush commits (the table, closed): a mid-session flush leaves
  /// the sidecar as the session opened it, because LoadSums never trusts
  /// the open-marked table a Sync could commit.
  pnc::Status CommitFlush(bool closing);
};

/// The integrity hook of both libraries' physical I/O path (mpiio's and the
/// serial BufferedFile's RetryIo), given the status `st` of one transfer of
/// `data` at `offset`; a no-op without an attached map. A successful write
/// records its pieces (`stored` false: the medium keeps zeros); a failed
/// one, which may still have stored a prefix, marks its chunks unsummed. A
/// successful read is verified (VerifyReadRange) when `verify` is set.
[[nodiscard]] pnc::Status SumsAfterTransfer(
    ChunkSumMap* map, bool verify, bool is_write, std::uint64_t offset,
    pnc::ByteSpan data, pnc::Status st, bool stored, std::uint64_t file_size,
    const RawRead& raw, int heal_attempts, double t_ns);

/// The flush fallback: re-sum `chunks` (ascending, from ResolvePieces)
/// from the file bytes through `raw`, one request per run of adjacent
/// chunks (at most 64 chunks each).
[[nodiscard]] pnc::Status ResumChunks(ChunkSumMap& map,
                                      const std::vector<std::uint64_t>& chunks,
                                      std::uint64_t file_size,
                                      const RawRead& raw);

/// Verification telemetry, accumulated across calls by the owner.
struct VerifyStats {
  std::uint64_t chunks_verified = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t healed_retries = 0;
};

/// Verify the freshly read buffer `data` (file bytes [offset,
/// offset+len)) against every committed, non-dirty chunk it overlaps.
/// Chunk bytes outside the buffer are fetched through `raw`. On CRC
/// mismatch the whole chunk is re-read up to `heal_attempts` times; a
/// clean re-read is spliced back into `data` (the read healed), a chunk
/// still mismatching returns kDataCorrupt. `t_ns` timestamps the
/// flight-recorder event on the corrupt path. Counters are recorded via
/// the iostat macros; `stats` (optional) additionally accumulates them
/// for the caller.
[[nodiscard]] pnc::Status VerifyReadRange(const ChunkSumMap& map,
                                          std::uint64_t offset,
                                          pnc::ByteSpan data,
                                          std::uint64_t file_size,
                                          const RawRead& raw,
                                          int heal_attempts, double t_ns,
                                          VerifyStats* stats);

/// Offline scrub verdict for one chunk-sized piece of the data region.
enum class ChunkVerdict {
  kClean,    ///< committed sum present and matches the bytes
  kCorrupt,  ///< committed sum present and does NOT match
  kUnsummed, ///< no trustworthy sum covers this chunk
};

struct ScrubReport {
  bool trusted = false;  ///< sidecar had a committed, closed, valid table
  std::uint64_t clean = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t unsummed = 0;
  /// Chunk indices that failed verification (capped at 64 for reporting).
  std::vector<std::uint64_t> corrupt_chunks;
};

/// Walk [map.data_begin, file_size) chunk by chunk, recompute every CRC
/// through `raw`, and classify. `map` is typically LoadSums().map; an
/// untrusted load yields an all-unsummed report.
[[nodiscard]] pnc::Result<ScrubReport> ScrubData(const ChunkSumMap& map,
                                                 bool trusted,
                                                 std::uint64_t file_size,
                                                 const RawRead& raw);

/// Rebuild the map from the current file bytes: recompute every chunk of
/// [data_begin, file_size) and commit the result closed (open=0) as a
/// first commit, magic included, over whatever the sidecar held. The
/// caller vouches for the data (e.g. it still passes compare-level ground
/// truth); after this the current bytes are the integrity baseline.
[[nodiscard]] pnc::Status RebuildSums(CommitIo& io, std::uint64_t chunk_size,
                                      std::uint64_t data_begin,
                                      std::uint64_t file_size,
                                      const RawRead& raw, SumsState* state);

}  // namespace ncformat
