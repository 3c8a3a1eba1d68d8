#include "format/sums.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <tuple>

#include "iostat/iostat.hpp"
#include "util/crc32.hpp"
#include "util/env.hpp"
#include "util/xdr.hpp"

namespace ncformat {

namespace {

constexpr char kSumsMagic[kSumsMagicLen] = {'N', 'C', 'S', 'M',
                                            '0', '1', '\0', '\0'};

using pnc::xdr::GetU32;
using pnc::xdr::GetU64;
using pnc::xdr::PutU32;
using pnc::xdr::PutU64;

/// The raw slot contents (before trust decisions).
struct Slot {
  std::uint64_t seq = 0;
  std::uint64_t table_len = 0;
  std::uint32_t table_crc = 0;
  std::uint32_t flags = 0;
};

std::array<std::byte, kSumsSlotSize> EncodeSlot(const Slot& s) {
  std::array<std::byte, kSumsSlotSize> b{};
  PutU64(b.data(), s.seq);
  PutU64(b.data() + 8, s.table_len);
  PutU32(b.data() + 16, s.table_crc);
  PutU32(b.data() + 20, s.flags);
  PutU32(b.data() + 24, 0);
  PutU32(b.data() + 28, pnc::Crc32(pnc::ConstByteSpan(b.data(), 28)));
  return b;
}

/// nullopt = slot torn or never written.
std::optional<Slot> DecodeSlot(pnc::ConstByteSpan b) {
  if (b.size() < kSumsSlotSize) return std::nullopt;
  if (GetU32(b.data() + 28) != pnc::Crc32(b.first(28))) return std::nullopt;
  Slot s;
  s.seq = GetU64(b.data());
  s.table_len = GetU64(b.data() + 8);
  s.table_crc = GetU32(b.data() + 16);
  s.flags = GetU32(b.data() + 20);
  if (s.seq == 0) return std::nullopt;  // zeroed: never committed
  return s;
}

}  // namespace

std::string SumsPath(const std::string& path) { return path + ".ncsum"; }

bool SumsEnabled() { return pnc::util::EnvInt("PNC_SUMS", 1) != 0; }

std::uint64_t SumsOrigin(const Header& h) {
  if (h.vars.empty()) return 0;
  return std::min_element(h.vars.begin(), h.vars.end(),
                          [](const Var& a, const Var& b) {
                            return a.begin < b.begin;
                          })
      ->begin;
}

std::uint64_t SumChunkSize() {
  using pnc::operator""_KiB;
  using pnc::operator""_MiB;
  const std::int64_t v =
      pnc::util::EnvInt("PNC_SUM_CHUNK", static_cast<std::int64_t>(64_KiB));
  return std::clamp<std::uint64_t>(
      v <= 0 ? 64_KiB : static_cast<std::uint64_t>(v), 4_KiB, 16_MiB);
}

// ------------------------------------------------------------- ChunkSumMap

void ChunkSumMap::SetGeometry(std::uint64_t chunk_size,
                              std::uint64_t data_begin) {
  chunk_size_ = chunk_size;
  data_begin_ = data_begin;
}

bool ChunkSumMap::Lookup(std::uint64_t chunk, ChunkSum* out) const {
  auto it = entries_.find(chunk);
  if (it == entries_.end()) return false;
  *out = it->second;
  return true;
}

void ChunkSumMap::Set(std::uint64_t chunk, ChunkSum sum) {
  entries_[chunk] = sum;
}

void ChunkSumMap::Clear() {
  entries_.clear();
  ClearDirty();
}

void ChunkSumMap::ClearDirty() {
  dirty_.clear();
  unsummed_.clear();
  pieces_.clear();
}

void ChunkSumMap::RecordWrite(std::uint64_t offset, pnc::ConstByteSpan data,
                              bool stored) {
  const std::uint64_t end = offset + data.size();
  if (chunk_size_ == 0 || end <= data_begin_) return;
  std::uint64_t pos = std::max(offset, data_begin_);
  while (pos < end) {
    const std::uint64_t c = ChunkOf(pos);
    const std::uint64_t off = pos - ChunkStart(c);
    const std::uint64_t n = std::min(chunk_size_ - off, end - pos);
    const std::uint32_t crc =
        stored ? pnc::Crc32(data.subspan(pos - offset, n))
               : pnc::Crc32Zeros(n);
    dirty_.insert(c);
    SumPiece* last = pieces_.empty() ? nullptr : &pieces_.back();
    if (last != nullptr && last->chunk == c && last->off + last->len == off) {
      last->crc = pnc::Crc32Combine(last->crc, crc, n);
      last->len += static_cast<std::uint32_t>(n);
    } else {
      pieces_.push_back({c, static_cast<std::uint32_t>(off),
                         static_cast<std::uint32_t>(n), crc});
    }
    pos += n;
  }
}

void ChunkSumMap::MarkUnsummed(std::uint64_t offset, std::uint64_t len) {
  if (chunk_size_ == 0 || len == 0) return;
  const std::uint64_t end = offset + len;
  if (end <= data_begin_) return;  // header-region write
  const std::uint64_t begin = std::max(offset, data_begin_);
  for (std::uint64_t c = ChunkOf(begin); c <= ChunkOf(end - 1); ++c) {
    dirty_.insert(c);
    unsummed_.insert(c);
  }
}

std::vector<std::byte> ChunkSumMap::EncodePending() const {
  std::vector<std::byte> b(8 + 8 * unsummed_.size() + 20 * pieces_.size());
  std::byte* p = b.data();
  const std::uint64_t n = unsummed_.size();
  std::memcpy(p, &n, 8);
  p += 8;
  for (const std::uint64_t c : unsummed_) {
    std::memcpy(p, &c, 8);
    p += 8;
  }
  for (const SumPiece& pc : pieces_) {
    std::memcpy(p, &pc.chunk, 8);
    std::memcpy(p + 8, &pc.off, 4);
    std::memcpy(p + 12, &pc.len, 4);
    std::memcpy(p + 16, &pc.crc, 4);
    p += 20;
  }
  return b;
}

void ChunkSumMap::DecodePending(pnc::ConstByteSpan blob,
                                std::vector<SumPiece>* pieces,
                                std::set<std::uint64_t>* unsummed) {
  if (blob.size() < 8) return;
  std::uint64_t n = 0;
  std::memcpy(&n, blob.data(), 8);
  std::size_t k = 8;
  for (; n > 0 && k + 8 <= blob.size(); --n, k += 8) {
    std::uint64_t c = 0;
    std::memcpy(&c, blob.data() + k, 8);
    unsummed->insert(c);
  }
  for (; k + 20 <= blob.size(); k += 20) {
    SumPiece pc;
    std::memcpy(&pc.chunk, blob.data() + k, 8);
    std::memcpy(&pc.off, blob.data() + k + 8, 4);
    std::memcpy(&pc.len, blob.data() + k + 12, 4);
    std::memcpy(&pc.crc, blob.data() + k + 16, 4);
    pieces->push_back(pc);
  }
}

std::vector<std::uint64_t> ChunkSumMap::ResolvePieces(
    std::vector<SumPiece> pieces, const std::set<std::uint64_t>& unsummed,
    std::uint64_t file_size) {
  std::sort(pieces.begin(), pieces.end(),
            [](const SumPiece& a, const SumPiece& b) {
              return std::tie(a.chunk, a.off, a.len) <
                     std::tie(b.chunk, b.off, b.len);
            });
  std::set<std::uint64_t> chunks = unsummed;
  for (const SumPiece& pc : pieces) chunks.insert(pc.chunk);
  std::vector<std::uint64_t> reread;
  auto it = pieces.begin();
  for (const std::uint64_t c : chunks) {
    const auto first = it;
    while (it != pieces.end() && it->chunk == c) ++it;
    const std::uint64_t cstart = ChunkStart(c);
    if (cstart >= file_size) continue;
    if (unsummed.count(c) != 0 || first == it) {
      reread.push_back(c);
      continue;
    }
    const std::uint64_t target = std::min(chunk_size_, file_size - cstart);
    // Start from the committed sum when the pieces begin where it ends: the
    // bytes it covers were not written this epoch (a write would be a
    // piece overlapping them, or an unsummed mark).
    std::uint64_t pos = 0;
    std::uint32_t crc = 0;
    ChunkSum prior;
    if (first->off != 0 && Lookup(c, &prior) && prior.len == first->off) {
      pos = prior.len;
      crc = prior.crc;
    }
    auto p = first;
    for (; p != it && p->off == pos; ++p) {
      crc = pnc::Crc32Combine(crc, p->crc, p->len);
      pos += p->len;
    }
    // Exact tiling: every piece consumed without a gap or an overlap
    // (either stops the walk short), ending exactly at the summed extent.
    if (p == it && pos == target)
      Set(c, {static_cast<std::uint32_t>(target), crc});
    else
      reread.push_back(c);
  }
  return reread;
}

std::vector<std::byte> ChunkSumMap::EncodeTable() const {
  std::vector<std::byte> b(24 + 16 * entries_.size());
  PutU64(b.data(), chunk_size_);
  PutU64(b.data() + 8, data_begin_);
  PutU64(b.data() + 16, entries_.size());
  std::size_t off = 24;
  for (const auto& [chunk, sum] : entries_) {
    PutU64(b.data() + off, chunk);
    PutU32(b.data() + off + 8, sum.len);
    PutU32(b.data() + off + 12, sum.crc);
    off += 16;
  }
  return b;
}

pnc::Result<ChunkSumMap> ChunkSumMap::DecodeTable(pnc::ConstByteSpan table) {
  if (table.size() < 24)
    return pnc::Status(pnc::Err::kNotNc, "sum table truncated");
  ChunkSumMap m;
  m.chunk_size_ = GetU64(table.data());
  m.data_begin_ = GetU64(table.data() + 8);
  const std::uint64_t n = GetU64(table.data() + 16);
  if (m.chunk_size_ == 0 || table.size() < 24 + 16 * n)
    return pnc::Status(pnc::Err::kNotNc, "sum table malformed");
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::byte* p = table.data() + 24 + 16 * i;
    ChunkSum s;
    s.len = GetU32(p + 8);
    s.crc = GetU32(p + 12);
    m.entries_[GetU64(p)] = s;
  }
  return m;
}

// ----------------------------------------------------------- sidecar I/O

pnc::Status CommitSums(CommitIo& io, const ChunkSumMap& map, bool open,
                       SumsState* state) {
  const double t0 = io.Now();
  std::vector<std::byte> table = map.EncodeTable();
  Slot s;
  s.seq = state->seq + 1;
  s.table_len = table.size();
  s.table_crc = pnc::Crc32(table);
  s.flags = open ? kSumsFlagOpen : 0;
  const auto slot = EncodeSlot(s);
  // One request: [magic|slot|table] for the sidecar's first commit (it was
  // created empty), [slot|table] after, or just [slot] while the table on
  // the medium is already this one.
  const bool first = state->seq == 0;
  std::vector<std::byte> req;
  req.reserve(kSumsTableOffset + table.size());
  if (first) {
    const auto magic = std::as_bytes(std::span(kSumsMagic));
    req.insert(req.end(), magic.begin(), magic.end());
  }
  req.insert(req.end(), slot.begin(), slot.end());
  if (first || table != state->table)
    req.insert(req.end(), table.begin(), table.end());
  if (auto st = io.Write(first ? 0 : kSumsSlotOffset, req); !st.ok())
    return st;
  if (auto st = io.Sync(); !st.ok()) return st;
  state->seq = s.seq;
  state->open = open;
  state->table = std::move(table);
  PNC_IOSTAT_ADD(kNcSumCommits, 1);
  PNC_IOSTAT_ADD(kNcSumCommitNs, io.Now() - t0);
  return pnc::Status::Ok();
}

pnc::Result<LoadedSums> LoadSums(CommitIo& io, int reread_attempts) {
  LoadedSums out;
  if (io.Size() < kSumsTableOffset) return out;  // empty: never committed
  // A CRC failure may be a transient flip of the *sidecar read itself*;
  // re-read before giving up, so a flaky medium degrades to untrusted only
  // when the damage is persistent.
  for (int attempt = 0; attempt < std::max(1, reread_attempts); ++attempt) {
    std::array<std::byte, kSumsTableOffset> head{};
    if (auto st = io.Read(0, head); !st.ok()) return st;
    if (std::memcmp(head.data(), kSumsMagic, kSumsMagicLen) != 0)
      continue;  // not a sidecar — or a flipped magic read; retry
    const auto slot =
        DecodeSlot(pnc::ConstByteSpan(head.data() + kSumsSlotOffset,
                                      kSumsSlotSize));
    if (!slot.has_value()) continue;  // torn or never committed
    std::vector<std::byte> table(slot->table_len);
    if (auto st = io.Read(kSumsTableOffset, table); !st.ok()) return st;
    if (pnc::Crc32(table) != slot->table_crc) continue;  // torn table
    auto m = ChunkSumMap::DecodeTable(table);
    if (!m.ok()) continue;
    out.map = std::move(m).value();
    out.state.seq = slot->seq;
    out.state.open = (slot->flags & kSumsFlagOpen) != 0;
    out.state.table = std::move(table);
    // An open sidecar is a crashed writable session: its sums may be
    // stale against data written after the last flush. Load the map (the
    // geometry is still right) but never trust it for verification.
    out.trusted = !out.state.open;
    return out;
  }
  return LoadedSums{};  // persistent damage: every chunk unsummed
}

pnc::Status ResumChunks(ChunkSumMap& map,
                        const std::vector<std::uint64_t>& chunks,
                        std::uint64_t file_size, const RawRead& raw) {
  const std::uint64_t csize = map.chunk_size();
  std::vector<std::byte> buf;
  for (std::size_t k = 0; k < chunks.size();) {
    std::size_t e = k + 1;
    while (e < chunks.size() && e - k < 64 && chunks[e] == chunks[e - 1] + 1)
      ++e;
    const std::uint64_t rstart = map.ChunkStart(chunks[k]);
    if (rstart >= file_size) break;  // ascending: the rest is past EOF too
    const std::uint64_t rlen = std::min<std::uint64_t>(
        (chunks[e - 1] - chunks[k] + 1) * csize, file_size - rstart);
    buf.resize(rlen);
    if (auto st = raw(rstart, pnc::ByteSpan(buf)); !st.ok()) return st;
    for (std::size_t j = k; j < e; ++j) {
      const std::uint64_t off = (chunks[j] - chunks[k]) * csize;
      if (off >= rlen) break;
      const std::uint64_t clen = std::min<std::uint64_t>(csize, rlen - off);
      map.Set(chunks[j],
              {static_cast<std::uint32_t>(clen),
               pnc::Crc32(pnc::ConstByteSpan(buf.data() + off, clen))});
    }
    k = e;
  }
  return pnc::Status::Ok();
}

// ------------------------------------------------------- verify-on-read

namespace {

/// Assemble the summed extent of chunk `c` into `buf`: overlap bytes come
/// from the caller's freshly read `data`, the remainder through `raw`.
pnc::Status AssembleChunk(const ChunkSumMap& map, std::uint64_t c,
                          std::uint64_t clen, std::uint64_t offset,
                          pnc::ByteSpan data, const RawRead& raw,
                          pnc::ByteSpan buf) {
  const std::uint64_t cstart = map.ChunkStart(c);
  const std::uint64_t cend = cstart + clen;
  const std::uint64_t ov_begin = std::max(cstart, offset);
  const std::uint64_t ov_end = std::min(cend, offset + data.size());
  if (ov_begin > cstart) {
    if (auto st = raw(cstart, buf.first(ov_begin - cstart)); !st.ok())
      return st;
  }
  if (ov_end > ov_begin)
    std::memcpy(buf.data() + (ov_begin - cstart), data.data() +
                (ov_begin - offset), ov_end - ov_begin);
  if (cend > ov_end) {
    if (auto st = raw(ov_end, buf.subspan(ov_end - cstart)); !st.ok())
      return st;
  }
  return pnc::Status::Ok();
}

}  // namespace

pnc::Status VerifyReadRange(const ChunkSumMap& map, std::uint64_t offset,
                            pnc::ByteSpan data, std::uint64_t file_size,
                            const RawRead& raw, int heal_attempts,
                            double t_ns, VerifyStats* stats) {
  if (map.chunk_size() == 0 || map.empty() || data.empty())
    return pnc::Status::Ok();
  const std::uint64_t end = offset + data.size();
  if (end <= map.data_begin()) return pnc::Status::Ok();
  const std::uint64_t begin = std::max(offset, map.data_begin());
  std::vector<std::byte> chunk;
  for (std::uint64_t c = map.ChunkOf(begin); c <= map.ChunkOf(end - 1); ++c) {
    ChunkSum sum;
    if (!map.Lookup(c, &sum) || map.IsDirty(c)) continue;
    const std::uint64_t cstart = map.ChunkStart(c);
    // The summed extent must still exist in full; a shorter file means the
    // sum covers bytes that are gone (treat as unsummed, not corrupt).
    if (cstart + sum.len > file_size) continue;
    if (cstart + sum.len <= offset || cstart >= end)
      continue;  // accessed bytes lie beyond the summed extent
    chunk.resize(sum.len);
    if (auto st = AssembleChunk(map, c, sum.len, offset, data, raw,
                                pnc::ByteSpan(chunk));
        !st.ok())
      return st;
    PNC_IOSTAT_ADD(kNcSumChunksVerified, 1);
    if (stats != nullptr) ++stats->chunks_verified;
    if (pnc::Crc32(chunk) == sum.crc) continue;
    PNC_IOSTAT_ADD(kNcSumMismatch, 1);
    if (stats != nullptr) ++stats->mismatches;
    // Mismatch: re-read the whole chunk. A transient read-side flip (of
    // the original read *or* of the assembly reads above) heals here; an
    // at-rest flip keeps mismatching and surfaces as kDataCorrupt.
    bool healed = false;
    for (int a = 0; a < heal_attempts && !healed; ++a) {
      if (auto st = raw(cstart, pnc::ByteSpan(chunk)); !st.ok()) return st;
      if (pnc::Crc32(chunk) != sum.crc) continue;
      const std::uint64_t ov_begin = std::max(cstart, offset);
      const std::uint64_t ov_end = std::min(cstart + sum.len, end);
      if (ov_end > ov_begin)
        std::memcpy(data.data() + (ov_begin - offset),
                    chunk.data() + (ov_begin - cstart), ov_end - ov_begin);
      PNC_IOSTAT_ADD(kNcSumHealedRetries, 1);
      if (stats != nullptr) ++stats->healed_retries;
      healed = true;
    }
    if (!healed) {
      PNC_PROBE(kDataCorrupt, .offset = c, .t_begin = t_ns,
                .aux = static_cast<std::uint64_t>(heal_attempts));
      return pnc::Status(pnc::Err::kDataCorrupt,
                         "chunk " + std::to_string(c) +
                             " checksum mismatch persisted across " +
                             std::to_string(heal_attempts) + " re-reads");
    }
  }
  return pnc::Status::Ok();
}

// --------------------------------------------------------- offline scrub

pnc::Result<ScrubReport> ScrubData(const ChunkSumMap& map, bool trusted,
                                   std::uint64_t file_size,
                                   const RawRead& raw) {
  ScrubReport rep;
  rep.trusted = trusted;
  if (map.chunk_size() == 0 || file_size <= map.data_begin()) return rep;
  const std::uint64_t nchunks =
      (file_size - map.data_begin() + map.chunk_size() - 1) / map.chunk_size();
  std::vector<std::byte> chunk;
  for (std::uint64_t c = 0; c < nchunks; ++c) {
    const std::uint64_t cstart = map.ChunkStart(c);
    const std::uint64_t clen = std::min(map.chunk_size(), file_size - cstart);
    ChunkSum sum;
    if (!trusted || !map.Lookup(c, &sum) || sum.len > clen) {
      ++rep.unsummed;
      continue;
    }
    chunk.resize(sum.len);
    if (auto st = raw(cstart, pnc::ByteSpan(chunk)); !st.ok()) return st;
    if (pnc::Crc32(chunk) == sum.crc) {
      ++rep.clean;
    } else {
      ++rep.corrupt;
      if (rep.corrupt_chunks.size() < 64) rep.corrupt_chunks.push_back(c);
    }
  }
  return rep;
}

pnc::Status RebuildSums(CommitIo& io, std::uint64_t chunk_size,
                        std::uint64_t data_begin, std::uint64_t file_size,
                        const RawRead& raw, SumsState* state) {
  ChunkSumMap map;
  map.SetGeometry(chunk_size, data_begin);
  std::vector<std::byte> chunk;
  for (std::uint64_t cstart = data_begin; cstart < file_size;
       cstart += chunk_size) {
    const std::uint64_t clen = std::min(chunk_size, file_size - cstart);
    chunk.resize(clen);
    if (auto st = raw(cstart, pnc::ByteSpan(chunk)); !st.ok()) return st;
    map.Set(map.ChunkOf(cstart),
            {static_cast<std::uint32_t>(clen), pnc::Crc32(chunk)});
  }
  SumsState fresh;
  if (auto st = CommitSums(io, map, /*open=*/false, &fresh); !st.ok())
    return st;
  *state = fresh;
  return pnc::Status::Ok();
}

// ------------------------------------------------------------- session

bool ApplyTrustRule(LoadedSums* loaded, std::uint64_t origin) {
  const bool stale = loaded->trusted && loaded->map.data_begin() != origin;
  if (stale) loaded->trusted = false;
  if (!loaded->trusted || loaded->map.chunk_size() == 0) {
    loaded->map.Clear();
    loaded->map.SetGeometry(SumChunkSize(), origin);
  }
  return stale;
}

pnc::Result<bool> SumsSession::Open(std::uint64_t origin) {
  PNC_ASSIGN_OR_RETURN(LoadedSums loaded, LoadSums(*io));
  state = loaded.state;
  (void)ApplyTrustRule(&loaded, origin);
  map = std::move(loaded.map);
  if (writable) {
    PNC_RETURN_IF_ERROR(CommitSums(*io, map, /*open=*/true, &state));
  } else if (!loaded.trusted) {
    io.reset();
    return false;
  }
  on = true;
  return true;
}

pnc::Status SumsSession::CommitFlush(bool closing) {
  if (!closing || !io) return pnc::Status::Ok();
  return CommitSums(*io, map, /*open=*/false, &state);
}

void SumsSession::Rebase(std::uint64_t origin, std::uint64_t data_end) {
  if (!on || (map.chunk_size() != 0 && map.data_begin() == origin)) return;
  const std::uint64_t cs =
      map.chunk_size() != 0 ? map.chunk_size() : SumChunkSize();
  map.Clear();
  map.SetGeometry(cs, origin);
  if (data_end > origin) map.MarkUnsummed(origin, data_end - origin);
}

pnc::Status SumsSession::Settle(std::vector<SumPiece> pieces,
                                const std::set<std::uint64_t>& unsummed,
                                std::uint64_t file_size, const RawRead& raw) {
  if (map.chunk_size() == 0) return pnc::Status::Ok();
  return ResumChunks(
      map, map.ResolvePieces(std::move(pieces), unsummed, file_size),
      file_size, raw);
}

pnc::Status SumsAfterTransfer(ChunkSumMap* map, bool verify, bool is_write,
                              std::uint64_t offset, pnc::ByteSpan data,
                              pnc::Status st, bool stored,
                              std::uint64_t file_size, const RawRead& raw,
                              int heal_attempts, double t_ns) {
  if (map == nullptr || data.empty()) return st;
  if (is_write) {
    if (st.ok())
      map->RecordWrite(offset, data, stored);
    else
      map->MarkUnsummed(offset, data.size());
    return st;
  }
  if (!st.ok() || !verify) return st;
  return VerifyReadRange(*map, offset, data, file_size, raw, heal_attempts,
                         t_ns, nullptr);
}

}  // namespace ncformat
