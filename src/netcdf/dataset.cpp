#include "netcdf/dataset.hpp"

#include <algorithm>

#include "format/commit.hpp"
#include "format/commit_pfs.hpp"
#include "format/header_io.hpp"
#include "format/sums.hpp"
#include "iostat/events.hpp"
#include "iostat/iostat.hpp"

namespace netcdf {

using ncformat::Attr;
using ncformat::Header;
using ncformat::NcType;

struct Dataset::Impl {
  Impl(pfs::FileSystem* filesystem, pfs::File f, std::string p, bool w,
       std::uint64_t bufsize)
      : fs(filesystem), path(std::move(p)), writable(w),
        io(std::move(f), &clock, bufsize) {
    sums.writable = w;
  }

  pfs::FileSystem* fs;
  std::string path;
  bool writable;
  simmpi::VirtualClock clock;
  BufferedFile io;

  Header header;
  bool defining = false;
  bool fresh = false;          ///< created this session, EndDef not yet run
  bool numrecs_dirty = false;  ///< numrecs grew in data mode
  FillMode fill = FillMode::kNoFill;
  std::optional<Header> pre_redef;  ///< snapshot for Abort/relayout

  // Crash consistency: the sidecar commit journal and the last committed
  // state (see format/commit.hpp). Absent for legacy files opened without a
  // journal — those keep the pre-journal in-place update behaviour.
  std::unique_ptr<ncformat::PfsCommitIo> journal;
  std::optional<ncformat::CommitState> commit;

  // Data integrity (format/sums.hpp): the chunk-sum map attached to `io`
  // plus the `.ncsum` sidecar it is committed through. Armed only when
  // PNC_SUMS is on (the default); disarmed, none of this exists and runs
  // are bit-identical to a build without the subsystem. The serial
  // library is single-writer, so verify-on-read is safe even in writable
  // sessions: this session's own writes are exactly the dirty set.
  ncformat::SumsSession sums;
  bool data_corrupt = false;  ///< sticky: a read surfaced kDataCorrupt

  pnc::Status FlushSums(bool closing);
  pnc::Status SetupOpenSums(bool open_writable);
};

/// Fold this session's checksum pieces into the map, re-read only the
/// chunks they do not tile and, when `closing`, commit the map closed
/// through the `.ncsum` sidecar (format/sums.hpp: SumsSession). A
/// read-only session commits nothing.
pnc::Status Dataset::Impl::FlushSums(bool closing) {
  if (!sums.commits()) return pnc::Status::Ok();
  PNC_RETURN_IF_ERROR(sums.Settle(
      sums.map.pieces(), sums.map.unsummed(), io.size(),
      [this](std::uint64_t o, pnc::ByteSpan out) {
        return io.ReadUncached(o, out);
      }));
  sums.map.ClearDirty();
  return sums.CommitFlush(closing);
}

/// Arm the integrity subsystem for an opened (not freshly created) dataset.
/// Writable opens mark the sidecar session-open *before* any data write can
/// land; read-only opens attach verification only when a trusted, closed
/// table exists whose geometry matches the live header.
pnc::Status Dataset::Impl::SetupOpenSums(bool open_writable) {
  if (!ncformat::SumsEnabled()) return pnc::Status::Ok();
  const std::string spath = ncformat::SumsPath(path);
  const bool existed = fs->Exists(spath);
  if (!existed && !open_writable) return pnc::Status::Ok();
  PNC_ASSIGN_OR_RETURN(sums.io,
                       ncformat::OpenSidecar(*fs, spath, !existed, &clock));
  PNC_ASSIGN_OR_RETURN(const bool armed,
                       sums.Open(ncformat::SumsOrigin(header)));
  if (armed) io.AttachSums(&sums.map, /*verify=*/true);
  return pnc::Status::Ok();
}

// ------------------------------------------------------------ lifecycle

pnc::Result<Dataset> Dataset::Create(pfs::FileSystem& fs,
                                     const std::string& path,
                                     const CreateOptions& opts) {
  auto f = fs.Create(path, /*exclusive=*/!opts.clobber);
  if (!f.ok()) return f.status();
  Dataset ds;
  ds.impl_ = std::make_shared<Impl>(&fs, std::move(f).value(), path,
                                    /*writable=*/true, opts.buffer_size);
  auto& im = *ds.impl_;
  im.header.version = opts.use_cdf2 ? 2 : 1;
  im.defining = true;
  im.fresh = true;
  // Create-and-format the sidecar journal, truncating any stale one left by
  // a previous file at this path so its commits can never be replayed.
  PNC_ASSIGN_OR_RETURN(
      im.journal,
      ncformat::OpenSidecar(fs, ncformat::JournalPath(path), /*create=*/true,
                            &im.clock, ncformat::FormatJournal));
  // Same for the chunk-sum sidecar: create it empty (truncating any stale
  // table; empty reads as never committed) and attach. No geometry yet —
  // EndDef sets it once the data region exists. Nothing is committed before
  // Close, so a crash leaves it untrusted.
  if (ncformat::SumsEnabled()) {
    PNC_ASSIGN_OR_RETURN(
        im.sums.io,
        ncformat::OpenSidecar(fs, ncformat::SumsPath(path), /*create=*/true,
                              &im.clock));
    im.sums.on = true;
    im.io.AttachSums(&im.sums.map, /*verify=*/true);
  }
  return ds;
}

pnc::Result<Dataset> Dataset::Open(pfs::FileSystem& fs, const std::string& path,
                                   bool writable, std::uint64_t buffer_size) {
  auto f = fs.Open(path);
  if (!f.ok()) return f.status();
  Dataset ds;
  ds.impl_ = std::make_shared<Impl>(&fs, f.value(), path, writable,
                                    buffer_size);
  auto& im = *ds.impl_;

  // Crash recovery before anything trusts the on-disk header: if a journal
  // exists and holds a committed state the primary does not match, roll the
  // primary back/forward to it (in place when writable; in memory only for a
  // read-only open).
  ncformat::OpenRecovery rec;
  if (fs.Exists(ncformat::JournalPath(path))) {
    PNC_ASSIGN_OR_RETURN(im.journal,
                         ncformat::OpenSidecar(fs, ncformat::JournalPath(path),
                                               /*create=*/false, &im.clock));
    ncformat::PfsCommitIo primary(f.value(), &im.clock);
    PNC_ASSIGN_OR_RETURN(
        rec, ncformat::RecoverAtOpen(*im.journal, primary, writable));
    im.commit = rec.commit;
  }
  PNC_ASSIGN_OR_RETURN(
      im.header,
      !rec.recovered.empty()
          ? Header::Decode(rec.recovered)
          : ncformat::ReadHeader(
                im.io.size(), [&im](std::uint64_t off, pnc::ByteSpan out) {
                  PNC_IOSTAT_ADD(kNcHeaderBytesRead, out.size());
                  return im.io.ReadAt(off, out);
                }));
  // Torn primary, recovered in memory only: the on-disk bytes do not match
  // what this session sees, so attaching sums (written against the
  // repaired view) could only mislead. Run without them.
  if (!rec.recovered.empty()) return ds;
  PNC_RETURN_IF_ERROR(im.SetupOpenSums(writable));
  return ds;
}

pnc::Status Dataset::Redef() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (!im.writable) return pnc::Status(pnc::Err::kPermission);
  im.pre_redef = im.header;
  im.defining = true;
  PNC_IOSTAT_ADD(kNcModeSwitches, 1);
  return pnc::Status::Ok();
}

pnc::Status Dataset::EndDef() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.defining) return pnc::Status(pnc::Err::kNotInDefine);

  // The header at Redef; null for a dataset created this session.
  const Header* before = im.pre_redef ? &*im.pre_redef : nullptr;
  PNC_RETURN_IF_ERROR(im.header.ComputeLayoutAfter(before));
  im.sums.Rebase(ncformat::SumsOrigin(im.header), im.fresh ? 0 : im.io.size());
  if (before) PNC_RETURN_IF_ERROR(MoveDataForRelayout(*before));
  // Data first, metadata last: fills and moved bytes land before the header
  // that makes them reachable commits, so a crash anywhere in between still
  // cold-opens as the old dataset.
  if (im.fill == FillMode::kFill) PNC_RETURN_IF_ERROR(FillNewSpace(before));
  PNC_RETURN_IF_ERROR(WriteHeader());
  im.defining = false;
  im.fresh = false;
  im.pre_redef.reset();
  PNC_IOSTAT_ADD(kNcModeSwitches, 1);
  return pnc::Status::Ok();
}

pnc::Status Dataset::Sync() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (im.numrecs_dirty) PNC_RETURN_IF_ERROR(WriteNumrecs());
  PNC_RETURN_IF_ERROR(im.io.Sync());
  // Data durable; the pieces fold into the map, which only Close commits.
  return im.FlushSums(/*closing=*/false);
}

pnc::Status Dataset::Close() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) PNC_RETURN_IF_ERROR(EndDef());
  if (im.numrecs_dirty) PNC_RETURN_IF_ERROR(WriteNumrecs());
  // A read-only session has nothing to make durable: it issues no sync and,
  // below, commits no sums.
  PNC_RETURN_IF_ERROR(im.journal && im.writable ? im.io.Sync()
                                                : im.io.Flush());
  // Final flush commits the table closed: only a session that reached this
  // point hands trustworthy sums to the next open. A sticky corrupt read
  // is re-reported here so a caller that ignored the data call cannot
  // mistake the dataset for healthy.
  PNC_RETURN_IF_ERROR(im.FlushSums(/*closing=*/true));
  if (im.data_corrupt)
    return pnc::Status(pnc::Err::kDataCorrupt,
                       "dataset read corrupt data this session");
  return pnc::Status::Ok();
}

pnc::Status Dataset::Abort() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining && im.fresh) {
    (void)im.fs->Remove(ncformat::JournalPath(im.path));
    if (im.sums.io) (void)im.fs->Remove(ncformat::SumsPath(im.path));
    return im.fs->Remove(im.path);
  }
  if (im.defining && im.pre_redef) {
    im.header = *im.pre_redef;
    im.pre_redef.reset();
    im.defining = false;
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::SetFill(FillMode m) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  impl_->fill = m;
  return pnc::Status::Ok();
}

// ----------------------------------------------------------- define mode

pnc::Status Dataset::CheckDefineMode() const {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  if (!impl_->defining) return pnc::Status(pnc::Err::kNotInDefine);
  if (!impl_->writable) return pnc::Status(pnc::Err::kPermission);
  return pnc::Status::Ok();
}

pnc::Status Dataset::CheckDataMode(bool need_write) const {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  if (impl_->defining) return pnc::Status(pnc::Err::kInDefine);
  if (need_write && !impl_->writable)
    return pnc::Status(pnc::Err::kPermission);
  return pnc::Status::Ok();
}

pnc::Result<int> Dataset::DefDim(const std::string& name, std::uint64_t len) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.DefDim(name, len);
}

pnc::Result<int> Dataset::DefVar(const std::string& name, NcType type,
                                 std::vector<std::int32_t> dimids) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.DefVar(name, type, std::move(dimids));
}

pnc::Status Dataset::RenameDim(int dimid, const std::string& name) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.RenameDim(dimid, name);
}

pnc::Status Dataset::RenameVar(int varid, const std::string& name) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.RenameVar(varid, name);
}

// ------------------------------------------------------------ attributes

pnc::Status Dataset::PutAtt(int varid, Attr att) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.writable) return pnc::Status(pnc::Err::kPermission);
  PNC_RETURN_IF_ERROR(im.header.PutAtt(varid, std::move(att), im.defining));
  // A data-mode replacement rewrites the (same-size) header in place.
  return im.defining ? pnc::Status::Ok() : WriteHeader();
}

pnc::Status Dataset::PutAttText(int varid, const std::string& name,
                                std::string_view text) {
  return PutAtt(varid, Attr::Text(name, text));
}

pnc::Result<Attr> Dataset::GetAtt(int varid, const std::string& name) const {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  return impl_->header.GetAtt(varid, name);
}

pnc::Status Dataset::DelAtt(int varid, const std::string& name) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.DelAtt(varid, name);
}

pnc::Status Dataset::RenameAtt(int varid, const std::string& old_name,
                               const std::string& new_name) {
  PNC_RETURN_IF_ERROR(CheckDefineMode());
  return impl_->header.RenameAtt(varid, old_name, new_name);
}

// --------------------------------------------------------------- inquiry

const Header& Dataset::header() const { return impl_->header; }
int Dataset::ndims() const { return static_cast<int>(impl_->header.dims.size()); }
int Dataset::nvars() const { return static_cast<int>(impl_->header.vars.size()); }
int Dataset::ngatts() const { return static_cast<int>(impl_->header.gatts.size()); }
int Dataset::unlimdim() const { return impl_->header.unlimited_dimid(); }
std::uint64_t Dataset::numrecs() const { return impl_->header.numrecs; }

pnc::Result<int> Dataset::DimId(const std::string& name) const {
  return impl_->header.DimId(name);
}

pnc::Result<int> Dataset::VarId(const std::string& name) const {
  return impl_->header.VarId(name);
}

simmpi::VirtualClock& Dataset::clock() { return impl_->clock; }

// ------------------------------------------------------------- data I/O

pnc::Status Dataset::PutExternal(int varid,
                                 std::span<const std::uint64_t> start,
                                 std::span<const std::uint64_t> count,
                                 std::span<const std::uint64_t> stride,
                                 pnc::ConstByteSpan external) {
  auto& im = *impl_;
  auto& h = im.header;
  PNC_IOSTAT_REQ_SCOPE(stride.empty() ? "put_vara" : "put_vars",
                       h.VarName(varid), im.clock.now(), external.size(), 1);

  // Record growth bookkeeping (and fill of skipped records) first.
  const std::uint64_t last =
      ncformat::RecordsTouched(h, varid, start, count, stride);
  if (last > h.numrecs) {
    const std::uint64_t old_recs = h.numrecs;
    h.numrecs = last;
    im.numrecs_dirty = true;
    if (im.fill == FillMode::kFill) {
      for (int v = 0; v < static_cast<int>(h.vars.size()); ++v)
        if (h.IsRecordVar(v))
          PNC_RETURN_IF_ERROR(FillVariable(v, old_recs, last));
    }
  }

  PNC_IOSTAT_ADD(kNcDataCalls, 1);
  PNC_IOSTAT_ADD(kNcDataBytesWritten, external.size());
  std::vector<pnc::Extent> regions;
  ncformat::AccessRegions(h, varid, start, count, stride, regions);
  std::uint64_t pos = 0;
  for (const auto& r : regions) {
    PNC_RETURN_IF_ERROR(im.io.WriteAt(r.offset, external.subspan(pos, r.len)));
    pos += r.len;
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::GetExternal(int varid,
                                 std::span<const std::uint64_t> start,
                                 std::span<const std::uint64_t> count,
                                 std::span<const std::uint64_t> stride,
                                 pnc::ByteSpan external) {
  auto& im = *impl_;
  PNC_IOSTAT_REQ_SCOPE(stride.empty() ? "get_vara" : "get_vars",
                       im.header.VarName(varid), im.clock.now(),
                       external.size(), 0);
  PNC_IOSTAT_ADD(kNcDataCalls, 1);
  PNC_IOSTAT_ADD(kNcDataBytesRead, external.size());
  std::vector<pnc::Extent> regions;
  ncformat::AccessRegions(im.header, varid, start, count, stride, regions);
  std::uint64_t pos = 0;
  for (const auto& r : regions) {
    pnc::Status st = im.io.ReadAt(r.offset, external.subspan(pos, r.len));
    if (st.code() == pnc::Err::kDataCorrupt) im.data_corrupt = true;
    PNC_RETURN_IF_ERROR(st);
    pos += r.len;
  }
  return pnc::Status::Ok();
}

// --------------------------------------------------------- header output

pnc::Status Dataset::WriteHeader() {
  auto& im = *impl_;
  const std::vector<std::byte> bytes = im.header.Encode();
  if (im.journal) {
    // Data before metadata, then the journal commit (shadow, sync, slot,
    // sync), and only then the primary — which must itself be durable
    // before the *next* commit may overwrite the shadow it relies on.
    PNC_RETURN_IF_ERROR(im.io.Sync());
    ncformat::CommitState next;
    PNC_RETURN_IF_ERROR(ncformat::CommitHeaderToJournal(
        *im.journal, bytes, im.header.numrecs, im.commit, &next));
    PNC_RETURN_IF_ERROR(im.io.WriteAt(0, bytes));
    PNC_RETURN_IF_ERROR(im.io.Sync());
    im.commit = next;
  } else {
    PNC_RETURN_IF_ERROR(im.io.WriteAt(0, bytes));
  }
  PNC_IOSTAT_ADD(kNcHeaderBytesWritten, bytes.size());
  im.numrecs_dirty = false;
  return pnc::Status::Ok();
}

pnc::Status Dataset::WriteNumrecs() {
  auto& im = *impl_;
  if (im.journal && im.commit) {
    // The record count grows only after the record data is durable.
    PNC_RETURN_IF_ERROR(im.io.Sync());
    ncformat::CommitState next;
    PNC_RETURN_IF_ERROR(ncformat::CommitNumrecsToJournal(
        *im.journal, *im.commit, im.header.numrecs, &next));
    im.commit = next;
  }
  PNC_RETURN_IF_ERROR(
      im.io.WriteAt(ncformat::kNumrecsOffset, im.header.NumrecsField()));
  PNC_IOSTAT_ADD(kNcHeaderBytesWritten, 4);
  if (im.journal) PNC_RETURN_IF_ERROR(im.io.Sync());
  im.numrecs_dirty = false;
  return pnc::Status::Ok();
}

// ------------------------------------------------------------- relayout

pnc::Status Dataset::MoveDataForRelayout(const Header& old_header) {
  auto& im = *impl_;
  PNC_ASSIGN_OR_RETURN(const std::vector<ncformat::RelayoutMove> moves,
                       ncformat::RelayoutPlan(old_header, im.header));
  // Chunked, back to front within each move as well: a destination less
  // than one chunk past its source overlaps the source's unread tail.
  constexpr std::uint64_t kChunk = 4ULL << 20;
  std::vector<std::byte> buf;
  for (const auto& m : moves) {
    buf.resize(std::min(m.len, kChunk));
    for (std::uint64_t done = 0; done < m.len;) {
      const std::uint64_t n = std::min(kChunk, m.len - done);
      const std::uint64_t off = m.len - done - n;
      PNC_RETURN_IF_ERROR(
          im.io.ReadAt(m.from + off, pnc::ByteSpan(buf.data(), n)));
      PNC_RETURN_IF_ERROR(
          im.io.WriteAt(m.to + off, pnc::ConstByteSpan(buf.data(), n)));
      done += n;
    }
  }
  return pnc::Status::Ok();
}

// ------------------------------------------------------------------ fill

pnc::Status Dataset::FillVariable(int varid, std::uint64_t rec_from,
                                  std::uint64_t rec_to) {
  auto& im = *impl_;
  const auto& h = im.header;
  const auto& v = h.vars[static_cast<std::size_t>(varid)];
  const std::uint64_t tsize = ncformat::TypeSize(v.type);

  // One instance (whole fixed var / one record) of external fill bytes.
  const std::uint64_t elems = h.VarInstanceElems(varid);
  std::vector<std::byte> pattern(elems * tsize);
  auto fill_with = [&](auto value) {
    using T = decltype(value);
    std::vector<T> vals(elems, value);
    (void)ncformat::ToExternal<T>(std::span<const T>(vals), v.type,
                                  pattern.data());
  };
  switch (v.type) {
    case NcType::kByte: fill_with(kFillByte); break;
    case NcType::kChar: fill_with(kFillChar); break;
    case NcType::kShort: fill_with(kFillShort); break;
    case NcType::kInt: fill_with(kFillInt); break;
    case NcType::kFloat: fill_with(kFillFloat); break;
    case NcType::kDouble: fill_with(kFillDouble); break;
  }

  if (h.IsRecordVar(varid)) {
    for (std::uint64_t r = rec_from; r < rec_to; ++r)
      PNC_RETURN_IF_ERROR(im.io.WriteAt(v.begin + r * h.recsize(), pattern));
  } else {
    PNC_RETURN_IF_ERROR(im.io.WriteAt(v.begin, pattern));
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::FillNewSpace(const Header* old_header) {
  auto& im = *impl_;
  const auto& h = im.header;
  for (int v = 0; v < static_cast<int>(h.vars.size()); ++v) {
    const bool existed =
        old_header && old_header->FindVar(h.vars[static_cast<std::size_t>(v)].name) >= 0;
    if (existed) continue;
    if (h.IsRecordVar(v)) {
      PNC_RETURN_IF_ERROR(FillVariable(v, 0, h.numrecs));
    } else {
      PNC_RETURN_IF_ERROR(FillVariable(v, 0, 0));
    }
  }
  return pnc::Status::Ok();
}

}  // namespace netcdf
