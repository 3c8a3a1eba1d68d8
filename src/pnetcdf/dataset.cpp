#include "pnetcdf/dataset.hpp"

#include <algorithm>
#include <cstring>

#include "format/commit.hpp"
#include "format/commit_pfs.hpp"
#include "format/header_io.hpp"
#include "format/sums.hpp"
#include "iostat/events.hpp"
#include "iostat/iostat.hpp"

namespace pnetcdf {

using ncformat::Attr;
using ncformat::Header;
using ncformat::NcType;

struct Dataset::Impl {
  Impl(simmpi::Comm c, pfs::FileSystem* filesystem, mpiio::File f,
       std::string p, bool w, simmpi::Info i)
      : comm(std::move(c)), fs(filesystem), file(std::move(f)),
        path(std::move(p)), writable(w), info(std::move(i)),
        header_align(static_cast<std::uint64_t>(
            info.GetInt("nc_header_align_size", 0))) {
    sums.writable = w;
  }

  simmpi::Comm comm;
  pfs::FileSystem* fs;
  mpiio::File file;
  std::string path;
  bool writable;
  simmpi::Info info;

  Header header;
  bool defining = false;
  bool fresh = false;
  bool indep = false;  ///< independent data mode active
  std::optional<Header> pre_redef;
  /// PnetCDF-level hint: align the start of the data section, leaving space
  /// for the header to grow without relocating data (§4.2.2: PnetCDF hints
  /// are interpreted by the library, the rest pass through to MPI-IO).
  const std::uint64_t header_align;

  // Crash consistency (§4.2.1 pattern: the root performs the metadata I/O).
  // `journaled` is agreed on all ranks so the collective syncs that order
  // data before metadata stay aligned; the journal handle and committed
  // state live on rank 0 only. Absent for legacy files opened without a
  // journal — those keep the pre-journal in-place update behaviour.
  bool journaled = false;
  std::unique_ptr<ncformat::PfsCommitIo> journal;
  std::optional<ncformat::CommitState> commit;

  // Sticky degradation under an armed rank-fault schedule: once any
  // collective on this dataset observed a peer death, further data-mode
  // calls refuse with kRankFailed and Close skips the collective numrecs
  // commit (the journal keeps the last committed header legal). Survivors
  // reopen on the survivor subset of the communicator.
  bool rank_failed = false;

  // Data integrity (format/sums.hpp). Mirrors the journal: the sidecar
  // handle and committed state live on rank 0, `sums.on` is agreed on all
  // ranks, and every rank holds an identical committed map plus the
  // checksum pieces of its own writes since the last flush. Verification
  // is attached only for read-only opens: in a writable parallel session a
  // peer's write invalidates chunks this rank cannot see, so inline
  // verification would flag fresh peer data as corrupt. Writable sessions
  // maintain the map only; scrub and later read-only opens get the
  // protection. Disabled under an armed rank-fault schedule (the flush
  // gather is not fault tolerant) — the sidecar then stays session-open,
  // i.e. untrusted, never wrong.
  ncformat::SumsSession sums;
  bool data_corrupt = false;  ///< sticky: a read surfaced kDataCorrupt

  pnc::Status SetupOpenSums(bool open_writable, bool root_torn);
  pnc::Status FlushSums(bool closing);
};

namespace {

/// User tag of the header broadcast under an armed rank-fault schedule,
/// above the mpiio two-phase exchange tags (which start at 1 << 24).
constexpr int kFtHeaderTag = 1 << 25;

/// Sticky degradation for statuses coming back from a collective: the
/// agreements on the communicator and the mpiio layer's own (two-phase,
/// Sync, SetView...).
pnc::Status Track(Dataset::Impl& im, pnc::Status st) {
  if (st.code() == pnc::Err::kRankFailed) im.rank_failed = true;
  if (st.code() == pnc::Err::kDataCorrupt) im.data_corrupt = true;
  return st;
}

/// The §4.2.1 root-performs-then-agrees tail: every rank returns the root's
/// status `err` (context `what`), and on success all meet at a barrier —
/// reached by everyone or no one.
pnc::Status AgreeRootStatus(Dataset::Impl& im, int err,
                            const std::string& what) {
  PNC_RETURN_IF_ERROR(Track(im, im.comm.AgreeRoot(&err)));
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), what);
  return Track(im, im.comm.AgreeBarrier());
}

}  // namespace

/// Arm the integrity subsystem at Open. The root loads (or creates, when
/// writable) the sidecar, decides trust, marks a writable session open
/// *before* any data write can land, and broadcasts the committed table so
/// every rank starts from the identical map. An empty table broadcast means
/// the subsystem stays off (read-only with nothing trustworthy, or a torn
/// primary whose in-memory repair does not match the on-disk bytes).
pnc::Status Dataset::Impl::SetupOpenSums(bool open_writable, bool root_torn) {
  if (!ncformat::SumsEnabled() || comm.FaultsArmed()) return pnc::Status::Ok();
  int err = 0;
  int verify = 0;
  std::vector<std::byte> table;
  if (comm.rank() == 0 && !root_torn) {
    const std::string spath = ncformat::SumsPath(path);
    const bool existed = fs->Exists(spath);
    const auto armed = [&]() -> pnc::Result<bool> {
      if (!existed && !open_writable) return false;
      PNC_ASSIGN_OR_RETURN(sums.io,
                           ncformat::OpenSidecar(*fs, spath, !existed,
                                                 &comm.clock()));
      return sums.Open(ncformat::SumsOrigin(header));
    }();
    if (!armed.ok()) {
      err = armed.status().raw();
    } else if (armed.value()) {
      verify = open_writable ? 0 : 1;
      table = sums.map.EncodeTable();
    }
  }
  comm.BcastValue(err, 0);
  if (err != 0)
    return pnc::Status(static_cast<pnc::Err>(err), "sum sidecar open");
  comm.Bcast(table, 0);
  if (table.empty()) return pnc::Status::Ok();
  if (comm.rank() != 0) {
    auto m = ncformat::ChunkSumMap::DecodeTable(table);
    if (!m.ok()) return m.status();
    sums.map = std::move(m).value();
  }
  comm.BcastValue(verify, 0);
  sums.on = true;
  file.AttachSums(&sums.map, verify != 0);
  return pnc::Status::Ok();
}

/// Root-committed sum flush. The data is already durable (callers sync
/// first). Every rank's pending checksum pieces (and the chunks it could
/// not sum) are gathered to the root, which folds them into the committed
/// map (format/sums.hpp: ResolvePieces), re-reads only the chunks the
/// pieces do not tile — alone and in chunk order, so no read depends on
/// thread scheduling — and, when closing, commits the table closed. The
/// result is broadcast so every rank resumes from the identical map.
pnc::Status Dataset::Impl::FlushSums(bool closing) {
  if (!sums.commits()) return pnc::Status::Ok();
  auto& map = sums.map;
  const std::vector<std::byte> pending = map.EncodePending();
  auto gathered = comm.Gather(pnc::ConstByteSpan(pending), 0);
  file.ClearView();
  int err = 0;
  if (comm.rank() == 0) {
    std::vector<ncformat::SumPiece> pieces;
    std::set<std::uint64_t> unsummed;
    for (const auto& blob : gathered)
      ncformat::ChunkSumMap::DecodePending(blob, &pieces, &unsummed);
    pnc::Status st = sums.Settle(
        std::move(pieces), unsummed,
        file.GetSize().ok() ? file.GetSize().value() : 0,
        [this](std::uint64_t o, pnc::ByteSpan out) {
          return file.ReadAt(o, out.data(), out.size(), simmpi::ByteType());
        });
    if (st.ok()) st = sums.CommitFlush(closing);
    err = st.raw();
  }
  comm.BcastValue(err, 0);
  if (err != 0)
    return pnc::Status(static_cast<pnc::Err>(err), "sum flush failed");
  std::vector<std::byte> table;
  if (comm.rank() == 0) table = map.EncodeTable();
  comm.Bcast(table, 0);
  if (comm.rank() != 0 && !table.empty()) {
    auto m = ncformat::ChunkSumMap::DecodeTable(table);
    if (!m.ok()) return m.status();
    map = std::move(m).value();
  }
  map.ClearDirty();
  comm.Barrier();
  return pnc::Status::Ok();
}

// ------------------------------------------------------------- lifecycle

pnc::Result<Dataset> Dataset::Create(simmpi::Comm comm, pfs::FileSystem& fs,
                                     const std::string& path,
                                     const simmpi::Info& info,
                                     const CreateOptions& opts) {
  unsigned mode = mpiio::kCreate | mpiio::kRdWr;
  if (!opts.clobber) mode |= mpiio::kExcl;
  auto f = mpiio::File::Open(comm, fs, path, mode, info);
  if (!f.ok()) return f.status();

  Dataset ds;
  ds.impl_ = std::make_shared<Impl>(std::move(comm), &fs, std::move(f).value(),
                                    path, /*writable=*/true, info);
  auto& im = *ds.impl_;
  im.header.version = opts.use_cdf2 ? 2 : 1;
  im.defining = true;
  im.fresh = true;
  // Create-and-format the sidecar commit journal on the root (truncating any
  // stale one left by a previous file at this path so its commits can never
  // be replayed); the result is agreed before anyone proceeds.
  int jerr = 0;
  if (im.comm.rank() == 0) {
    auto j = ncformat::OpenSidecar(fs, ncformat::JournalPath(path),
                                   /*create=*/true, &im.comm.clock(),
                                   ncformat::FormatJournal);
    jerr = j.status().raw();
    if (j.ok()) im.journal = std::move(j).value();
  }
  PNC_RETURN_IF_ERROR(Track(im, im.comm.AgreeRoot(&jerr)));
  if (jerr != 0)
    return pnc::Status(static_cast<pnc::Err>(jerr), "commit journal create");
  im.journaled = true;
  // Same for the chunk-sum sidecar: the root creates it empty (truncating
  // any stale table; empty reads as never committed) and all ranks attach
  // maintain-only. Nothing is committed before Close, so a crash leaves it
  // untrusted.
  if (ncformat::SumsEnabled() && !im.comm.FaultsArmed()) {
    int serr = 0;
    if (im.comm.rank() == 0) {
      auto s = ncformat::OpenSidecar(fs, ncformat::SumsPath(path),
                                     /*create=*/true, &im.comm.clock());
      serr = s.status().raw();
      if (s.ok()) im.sums.io = std::move(s).value();
    }
    im.comm.BcastValue(serr, 0);
    if (serr != 0)
      return pnc::Status(static_cast<pnc::Err>(serr), "sum sidecar create");
    im.sums.on = true;
    im.file.AttachSums(&im.sums.map, /*verify=*/false);
  }
  PNC_RETURN_IF_ERROR(Track(im, im.comm.AgreeBarrier()));
  return ds;
}

pnc::Result<Dataset> Dataset::Open(simmpi::Comm comm, pfs::FileSystem& fs,
                                   const std::string& path, bool writable,
                                   const simmpi::Info& info) {
  unsigned mode = writable ? mpiio::kRdWr : mpiio::kRdOnly;
  auto f = mpiio::File::Open(comm, fs, path, mode, info);
  if (!f.ok()) return f.status();

  Dataset ds;
  ds.impl_ = std::make_shared<Impl>(std::move(comm), &fs, std::move(f).value(),
                                    path, writable, info);
  auto& im = *ds.impl_;

  // Crash recovery before anything trusts the on-disk header: the root
  // checks the sidecar journal and, when the primary does not match the
  // committed state, rolls it back/forward (in place when writable; in
  // memory only for a read-only open). §4.2.1 pattern: the root performs
  // the metadata work, then the agreed outcome is broadcast.
  int err = 0;
  std::vector<std::byte> bytes;
  int journaled = 0;
  std::vector<std::byte> recovered;  ///< committed header image, if torn
  if (im.comm.rank() == 0 && fs.Exists(ncformat::JournalPath(path))) {
    journaled = 1;
    pnc::Status rst = pnc::Status::Ok();
    auto jf = ncformat::OpenSidecar(fs, ncformat::JournalPath(path),
                                    /*create=*/false, &im.comm.clock());
    auto pf =
        ncformat::OpenSidecar(fs, path, /*create=*/false, &im.comm.clock());
    if (!jf.ok() || !pf.ok()) {
      rst = jf.ok() ? pf.status() : jf.status();
    } else {
      im.journal = std::move(jf).value();
      auto rec = ncformat::RecoverAtOpen(*im.journal, *pf.value(), writable);
      if (rec.ok()) {
        im.commit = rec.value().commit;
        recovered = std::move(rec.value().recovered);
      } else {
        rst = rec.status();
      }
    }
    err = rst.raw();
  }
  PNC_RETURN_IF_ERROR(Track(im, im.comm.AgreeRoot(&err)));
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), path);
  PNC_RETURN_IF_ERROR(Track(im, im.comm.AgreeRoot(&journaled)));
  im.journaled = journaled != 0;

  // §4.2.1: the root process fetches the file header and broadcasts it; all
  // processes then hold an identical local copy until close.
  if (im.comm.rank() == 0) {
    const std::uint64_t fsize = im.file.GetSize().ok()
                                    ? im.file.GetSize().value()
                                    : 0;
    auto hdr =
        !recovered.empty()
            ? Header::Decode(recovered)
            : ncformat::ReadHeader(
                  std::max<std::uint64_t>(fsize, 4),
                  [&im](std::uint64_t off, pnc::ByteSpan out) {
                    const pnc::Status rs = im.file.ReadAt(
                        off, out.data(), out.size(), simmpi::ByteType());
                    PNC_IOSTAT_ADD(kNcHeaderBytesRead, out.size());
                    return rs;
                  });
    if (hdr.ok()) {
      im.header = std::move(hdr).value();
      bytes = im.header.Encode();
    } else {
      err = hdr.status().raw();
    }
  }
  PNC_RETURN_IF_ERROR(Track(im, im.comm.AgreeRoot(&err)));
  if (err != 0) return pnc::Status(static_cast<pnc::Err>(err), path);
  PNC_RETURN_IF_ERROR(Track(im, im.comm.AgreeBcast(bytes, kFtHeaderTag)));
  if (im.comm.rank() != 0) {
    auto hdr = Header::Decode(bytes);
    if (!hdr.ok()) return hdr.status();
    im.header = std::move(hdr).value();
  }
  PNC_RETURN_IF_ERROR(im.SetupOpenSums(writable, !recovered.empty()));
  return ds;
}

pnc::Status Dataset::Redef() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (!im.writable) return pnc::Status(pnc::Err::kPermission);
  if (im.indep) return pnc::Status(pnc::Err::kInIndep);
  im.pre_redef = im.header;
  im.defining = true;
  PNC_PROBE(kModeSwitch, .t_begin = im.comm.clock().now());
  return Track(im, im.comm.AgreeBarrier());
}

pnc::Status Dataset::WriteHeaderCollective() {
  auto& im = *impl_;
  PNC_IOSTAT_REQ_SCOPE("write_header", "", im.comm.clock().now(),
                       std::uint64_t{0}, 1);
  auto bytes = im.header.Encode();
  im.file.ClearView();
  // Data first, metadata last: every rank's outstanding data lands before
  // the header that makes it reachable commits. The collective sync also
  // upholds the journal invariant that the primary from the previous commit
  // is durable before its shadow is overwritten.
  if (im.journaled) PNC_RETURN_IF_ERROR(Track(im, im.file.Sync()));
  // Rank 0 writes; its status is broadcast so every rank returns the same
  // result (and nobody blocks in a barrier a failed root never reaches).
  int err = 0;
  if (im.comm.rank() == 0) {
    pnc::Status st;
    if (im.journal) {
      // Journal commit (shadow, sync, slot, sync), then the primary in
      // place, then a local sync so the primary is durable before the next
      // commit may reuse the shadow.
      ncformat::CommitState next;
      st = ncformat::CommitHeaderToJournal(*im.journal, bytes,
                                           im.header.numrecs, im.commit,
                                           &next);
      if (st.ok())
        st = im.file.WriteAt(0, bytes.data(), bytes.size(),
                             simmpi::ByteType());
      if (st.ok()) st = im.file.SyncLocal();
      if (st.ok()) im.commit = next;
    } else {
      st = im.file.WriteAt(0, bytes.data(), bytes.size(), simmpi::ByteType());
    }
    if (st.ok()) PNC_IOSTAT_ADD(kNcHeaderBytesWritten, bytes.size());
    err = st.raw();
  }
  return AgreeRootStatus(im, err, "header write failed");
}

pnc::Status Dataset::EndDef() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.defining) return pnc::Status(pnc::Err::kNotInDefine);

  // Keep the data section where it is if the new header still fits in front
  // of it; also honor the header alignment hint.
  pnc::Status lst = im.header.ComputeLayoutAfter(
      im.pre_redef ? &*im.pre_redef : nullptr, im.header_align);
  PNC_RETURN_IF_ERROR(CollectiveCheck(lst, true));

  // §4.2.1: all define mode functions are collective and require identical
  // arguments on every process; verify before committing anything to disk.
  auto bytes = im.header.Encode();
  bool same = false;
  PNC_RETURN_IF_ERROR(Track(im, im.comm.AgreeSame(bytes, &same)));
  if (!same)
    return pnc::Status(pnc::Err::kMultiDefine, "EndDef header mismatch");

  // The root alone marks the moved data unsummed: the flush gathers every
  // rank's pending state to it.
  const bool root_had_data = !im.fresh && im.comm.rank() == 0;
  im.sums.Rebase(ncformat::SumsOrigin(im.header),
                 root_had_data && im.file.GetSize().ok()
                     ? im.file.GetSize().value()
                     : 0);
  if (im.pre_redef) PNC_RETURN_IF_ERROR(RelayoutParallel(*im.pre_redef));
  PNC_RETURN_IF_ERROR(WriteHeaderCollective());
  im.defining = false;
  im.fresh = false;
  im.pre_redef.reset();
  PNC_PROBE(kModeSwitch, .t_begin = im.comm.clock().now());
  return pnc::Status::Ok();
}

pnc::Status Dataset::Sync() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (im.rank_failed)
    return pnc::Status(pnc::Err::kRankFailed, "dataset degraded by a failure");
  PNC_RETURN_IF_ERROR(SyncNumrecs(im.header.numrecs, /*collective=*/true));
  PNC_RETURN_IF_ERROR(Track(im, im.file.Sync()));
  // Data durable; the pieces fold into the map, which only Close commits.
  return im.FlushSums(/*closing=*/false);
}

pnc::Status Dataset::Close() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.rank_failed || im.comm.SelfDead()) {
    // A participant died: the group can no longer agree on a record count,
    // so skip the collective numrecs commit — the journal keeps the last
    // committed header legal — and release the handle. mpiio's close is
    // itself fault tolerant, so the survivors complete here together.
    (void)im.file.Close();
    if (im.comm.rank() == 0) PNC_IOSTAT_AUTO_REPORT();
    return pnc::Status(pnc::Err::kRankFailed, "closed after a rank failure");
  }
  if (im.defining) PNC_RETURN_IF_ERROR(EndDef());
  PNC_RETURN_IF_ERROR(SyncNumrecs(im.header.numrecs, /*collective=*/true));
  if (im.sums.commits()) {
    // Final flush commits the table closed: only a session that reaches
    // this point hands trustworthy sums to the next open.
    PNC_RETURN_IF_ERROR(Track(im, im.file.Sync()));
    PNC_RETURN_IF_ERROR(im.FlushSums(/*closing=*/true));
  }
  pnc::Status st = Track(im, im.file.Close());
  // The collective close barrier has passed: every rank's counters are
  // final, so the reduction in the report is well defined.
  if (im.comm.rank() == 0) PNC_IOSTAT_AUTO_REPORT();
  // A sticky corrupt read is re-reported here so a caller that ignored the
  // data call's status cannot mistake the dataset for healthy.
  if (st.ok() && im.data_corrupt)
    st = pnc::Status(pnc::Err::kDataCorrupt,
                     "dataset read corrupt data this session");
  return st;
}

pnc::Status Dataset::Abort() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining && im.fresh) {
    PNC_RETURN_IF_ERROR(im.file.Close());
    int err = 0;
    if (im.comm.rank() == 0) {
      im.journal.reset();
      (void)im.fs->Remove(ncformat::JournalPath(im.path));
      if (im.sums.io) {
        im.sums.io.reset();
        (void)im.fs->Remove(ncformat::SumsPath(im.path));
      }
      err = im.fs->Remove(im.path).raw();
    }
    return AgreeRootStatus(im, err, im.path);
  }
  if (im.defining && im.pre_redef) {
    im.header = *im.pre_redef;
    im.pre_redef.reset();
    im.defining = false;
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::BeginIndepData() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (im.indep) return pnc::Status(pnc::Err::kInIndep);
  PNC_RETURN_IF_ERROR(Track(im, im.comm.AgreeBarrier()));
  im.indep = true;
  PNC_PROBE(kModeSwitch, .t_begin = im.comm.clock().now());
  return pnc::Status::Ok();
}

pnc::Status Dataset::EndIndepData() {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.indep) return pnc::Status(pnc::Err::kNotIndep);
  im.indep = false;
  PNC_PROBE(kModeSwitch, .t_begin = im.comm.clock().now());
  // Record counts may have diverged across ranks during independent writes;
  // converge on the maximum and persist it.
  PNC_RETURN_IF_ERROR(SyncNumrecs(im.header.numrecs, /*collective=*/true));
  return pnc::Status::Ok();
}

// ----------------------------------------------------------- define mode
// Define mode functions keep the serial syntax and semantics (§4.1); they
// mutate only the local header copy. Cross-process argument consistency is
// verified wholesale at EndDef (AllAgree on the encoded header), which is
// where the library pays its one synchronization for the whole definition
// phase (§4.3).

namespace {
pnc::Status CheckDefine(const Dataset::Impl* im) {
  if (!im) return pnc::Status(pnc::Err::kBadId);
  if (!im->defining) return pnc::Status(pnc::Err::kNotInDefine);
  if (!im->writable) return pnc::Status(pnc::Err::kPermission);
  return pnc::Status::Ok();
}
}  // namespace

pnc::Result<int> Dataset::DefDim(const std::string& name, std::uint64_t len) {
  PNC_RETURN_IF_ERROR(CheckDefine(impl_.get()));
  return impl_->header.DefDim(name, len);
}

pnc::Result<int> Dataset::DefVar(const std::string& name, NcType type,
                                 std::vector<std::int32_t> dimids) {
  PNC_RETURN_IF_ERROR(CheckDefine(impl_.get()));
  return impl_->header.DefVar(name, type, std::move(dimids));
}

pnc::Status Dataset::RenameDim(int dimid, const std::string& name) {
  PNC_RETURN_IF_ERROR(CheckDefine(impl_.get()));
  return impl_->header.RenameDim(dimid, name);
}

pnc::Status Dataset::RenameVar(int varid, const std::string& name) {
  PNC_RETURN_IF_ERROR(CheckDefine(impl_.get()));
  return impl_->header.RenameVar(varid, name);
}

// ------------------------------------------------------------ attributes

pnc::Status Dataset::PutAtt(int varid, Attr att) {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  auto& im = *impl_;
  if (!im.writable) return pnc::Status(pnc::Err::kPermission);
  PNC_RETURN_IF_ERROR(im.header.PutAtt(varid, std::move(att), im.defining));
  // A data-mode replacement is collective: the root rewrites the
  // (same-size) header.
  return im.defining ? pnc::Status::Ok() : WriteHeaderCollective();
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
  PNC_RETURN_IF_ERROR(CheckDefine(impl_.get()));
  return impl_->header.DelAtt(varid, name);
}

// --------------------------------------------------------------- inquiry
// All inquiry works on the local header copy: "All header information can be
// accessed directly in local memory" (§4.3) — no communication here.

const Header& Dataset::header() const { return impl_->header; }
int Dataset::ndims() const { return static_cast<int>(impl_->header.dims.size()); }
int Dataset::nvars() const { return static_cast<int>(impl_->header.vars.size()); }
int Dataset::ngatts() const { return static_cast<int>(impl_->header.gatts.size()); }
int Dataset::unlimdim() const { return impl_->header.unlimited_dimid(); }
std::uint64_t Dataset::numrecs() const { return impl_->header.numrecs; }
const ncformat::ChunkSumMap* Dataset::sums() const {
  return impl_->sums.on ? &impl_->sums.map : nullptr;
}

pnc::Result<int> Dataset::DimId(const std::string& name) const {
  return impl_->header.DimId(name);
}

pnc::Result<int> Dataset::VarId(const std::string& name) const {
  return impl_->header.VarId(name);
}

simmpi::Comm& Dataset::comm() { return impl_->comm; }
const mpiio::Hints& Dataset::hints() const { return impl_->file.hints(); }

// ------------------------------------------------------------- data mode

pnc::Status Dataset::CheckDataMode(bool need_write, bool collective) const {
  if (!impl_) return pnc::Status(pnc::Err::kBadId);
  const auto& im = *impl_;
  if (im.rank_failed)
    return pnc::Status(pnc::Err::kRankFailed, "dataset degraded by a failure");
  if (im.defining) return pnc::Status(pnc::Err::kInDefine);
  if (need_write && !im.writable) return pnc::Status(pnc::Err::kPermission);
  if (collective && im.indep) return pnc::Status(pnc::Err::kInIndep);
  if (!collective && !im.indep) return pnc::Status(pnc::Err::kNotIndep);
  return pnc::Status::Ok();
}

pnc::Status Dataset::CollectiveCheck(pnc::Status st, bool collective) {
  if (!collective) return st;
  return Track(*impl_, impl_->comm.AgreeStatus(
                           st, "a peer process failed validation",
                           pnc::Err::kMultiDefine));
}

pnc::Status Dataset::MoveExternal(int varid,
                                  std::span<const std::uint64_t> start,
                                  std::span<const std::uint64_t> count,
                                  std::span<const std::uint64_t> stride,
                                  pnc::ByteSpan ext, bool is_write,
                                  bool collective) {
  auto& im = *impl_;

  // Mint the causal request ID here — the typed/flexible API funnel — so
  // every lower-layer event (two-phase phases, pfs server service, faults,
  // retries, the numrecs sync below) attributes to "api:variable".
  const char* api =
      is_write
          ? (collective ? (stride.empty() ? "put_vara_all" : "put_vars_all")
                        : (stride.empty() ? "put_vara" : "put_vars"))
          : (collective ? (stride.empty() ? "get_vara_all" : "get_vars_all")
                        : (stride.empty() ? "get_vara" : "get_vars"));
  const std::string_view varname = im.header.VarName(varid);
  PNC_IOSTAT_REQ_SCOPE(api, varname, im.comm.clock().now(), ext.size(),
                       is_write);

  // §4.2.2: represent the access pattern as an MPI file view constructed
  // from the variable metadata and the start/count/stride arguments. The
  // regions come out sorted, so the hindexed filetype is monotonic as MPI
  // requires.
  std::vector<pnc::Extent> regions;
  ncformat::AccessRegions(im.header, varid, start, count, stride, regions);
  std::vector<std::uint64_t> lens, offs;
  lens.reserve(regions.size());
  offs.reserve(regions.size());
  for (const auto& r : regions) {
    offs.push_back(r.offset);
    lens.push_back(r.len);
  }
  // This call's flattened extents, tagged per variable for the pattern
  // profiler.
  PNC_PROBE(kAccess, .len = ext.size(), .write = is_write, .flag = collective,
            .detail = varname.empty() ? "" : varname.data(),
            .extents = regions);
  auto filetype = simmpi::Datatype::Hindexed(lens, offs, simmpi::ByteType());

  pnc::Status io;
  if (collective) {
    PNC_RETURN_IF_ERROR(Track(im, im.file.SetView(0, simmpi::ByteType(),
                                                  filetype)));
    io = is_write ? im.file.WriteAtAll(0, ext.data(), ext.size(),
                                       simmpi::ByteType())
                  : im.file.ReadAtAll(0, ext.data(), ext.size(),
                                      simmpi::ByteType());
  } else {
    PNC_RETURN_IF_ERROR(im.file.SetViewLocal(0, simmpi::ByteType(), filetype));
    io = is_write
             ? im.file.WriteAt(0, ext.data(), ext.size(), simmpi::ByteType())
             : im.file.ReadAt(0, ext.data(), ext.size(), simmpi::ByteType());
  }
  im.file.ClearView();
  PNC_RETURN_IF_ERROR(Track(im, io));

  // Record growth: converge numrecs across ranks for collective access;
  // independent writers converge later (EndIndepData / Sync / Close). Every
  // rank of a collective takes this path even with a zero-sized count, so
  // the embedded allreduce stays aligned.
  if (is_write && im.header.IsRecordVar(varid)) {
    const std::uint64_t last =
        ncformat::RecordsTouched(im.header, varid, start, count, stride);
    PNC_RETURN_IF_ERROR(
        SyncNumrecs(std::max(im.header.numrecs, last), collective));
  }
  return pnc::Status::Ok();
}

pnc::Status Dataset::SyncNumrecs(std::uint64_t local_numrecs, bool collective) {
  auto& im = *impl_;
  if (!collective) {
    im.header.numrecs = std::max(im.header.numrecs, local_numrecs);
    return pnc::Status::Ok();
  }
  std::uint64_t global = 0;
  PNC_RETURN_IF_ERROR(Track(im, im.comm.AgreeMax(local_numrecs, &global)));
  // `changed` can differ across ranks (a rank that grew the records locally
  // already holds the new count), so agree on it before the guarded
  // collective section below.
  std::uint8_t changed = 0;
  PNC_RETURN_IF_ERROR(Track(
      im, im.comm.AgreeMax<std::uint8_t>(global != im.header.numrecs ? 1 : 0,
                                         &changed)));
  im.header.numrecs = global;
  if (changed && im.writable) {
    im.file.ClearView();
    // The record count grows only after the record data is durable on every
    // rank (all-old-or-all-new for a crash between data and count).
    if (im.journaled) PNC_RETURN_IF_ERROR(Track(im, im.file.Sync()));
    int err = 0;
    if (im.comm.rank() == 0) {
      const auto field = im.header.NumrecsField();
      pnc::Status st;
      ncformat::CommitState next;
      if (im.journal && im.commit)
        st = ncformat::CommitNumrecsToJournal(*im.journal, *im.commit,
                                              im.header.numrecs, &next);
      if (st.ok())
        st = im.file.WriteAt(ncformat::kNumrecsOffset, field.data(),
                             field.size(), simmpi::ByteType());
      if (st.ok() && im.journal && im.commit) {
        st = im.file.SyncLocal();
        if (st.ok()) im.commit = next;
      }
      if (st.ok()) PNC_IOSTAT_ADD(kNcHeaderBytesWritten, 4);
      err = st.raw();
    }
    return AgreeRootStatus(im, err, "numrecs write failed");
  }
  return pnc::Status::Ok();
}

// --------------------------------------------------------------- flexible

namespace {
/// Call `f` with a null pointer of the C++ element type of MPI primitive
/// `p`: the one dispatch from a flexible-API datatype to the typed engine.
template <typename F>
pnc::Status WithPrimType(simmpi::Prim p, F&& f) {
  switch (p) {
    case simmpi::Prim::kByte:
    case simmpi::Prim::kSChar: return f(static_cast<signed char*>(nullptr));
    case simmpi::Prim::kChar: return f(static_cast<char*>(nullptr));
    case simmpi::Prim::kShort: return f(static_cast<short*>(nullptr));
    case simmpi::Prim::kInt: return f(static_cast<int*>(nullptr));
    case simmpi::Prim::kLongLong: return f(static_cast<long long*>(nullptr));
    case simmpi::Prim::kFloat: return f(static_cast<float*>(nullptr));
    case simmpi::Prim::kDouble: return f(static_cast<double*>(nullptr));
  }
  return pnc::Status(pnc::Err::kBadType);
}
}  // namespace

pnc::Status Dataset::FlexPut(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride,
                             const void* buf, std::uint64_t bufcount,
                             const simmpi::Datatype& buftype, bool collective) {
  PNC_RETURN_IF_ERROR(CheckDataMode(/*need_write=*/true, collective));
  const std::uint64_t nelems = ncformat::AccessElems(count);
  pnc::Status vst = pnc::Status::Ok();
  if (buftype.count_elems() * bufcount != nelems)
    vst = pnc::Status(pnc::Err::kTypeMismatch, "flexible put");
  PNC_RETURN_IF_ERROR(CollectiveCheck(vst, collective));

  // Pack the (possibly noncontiguous) user memory described by the MPI
  // datatype into element order, then hand off to the typed engine.
  const std::uint64_t bytes = bufcount * buftype.size();
  std::vector<std::byte> packed(bytes);
  buftype.Pack(static_cast<const std::byte*>(buf), bufcount, packed.data());
  impl_->comm.clock().Advance(impl_->comm.cost().CopyCost(bytes));

  return WithPrimType(buftype.prim(), [&](auto* tag) {
    using T = std::remove_pointer_t<decltype(tag)>;
    return TypedPut<T>(varid, start, count, stride, {},
                       {reinterpret_cast<const T*>(packed.data()), nelems},
                       collective);
  });
}

pnc::Status Dataset::FlexGet(int varid, std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride, void* buf,
                             std::uint64_t bufcount,
                             const simmpi::Datatype& buftype, bool collective) {
  PNC_RETURN_IF_ERROR(CheckDataMode(/*need_write=*/false, collective));
  const std::uint64_t nelems = ncformat::AccessElems(count);
  pnc::Status vst = pnc::Status::Ok();
  if (buftype.count_elems() * bufcount != nelems)
    vst = pnc::Status(pnc::Err::kTypeMismatch, "flexible get");
  PNC_RETURN_IF_ERROR(CollectiveCheck(vst, collective));

  const std::uint64_t bytes = bufcount * buftype.size();
  std::vector<std::byte> packed(bytes);
  const pnc::Status st = WithPrimType(buftype.prim(), [&](auto* tag) {
    using T = std::remove_pointer_t<decltype(tag)>;
    return TypedGet<T>(varid, start, count, stride, {},
                       {reinterpret_cast<T*>(packed.data()), nelems},
                       collective);
  });
  if (!st.ok() && st.code() != pnc::Err::kRange) return st;
  buftype.Unpack(packed.data(), bufcount, static_cast<std::byte*>(buf));
  impl_->comm.clock().Advance(impl_->comm.cost().CopyCost(bytes));
  return st;
}

// ---------------------------------------------------------- batch access

pnc::Status Dataset::BatchAccess(std::span<BatchItem> items, bool is_write) {
  PNC_RETURN_IF_ERROR(CheckDataMode(is_write, /*collective=*/true));
  auto& im = *impl_;
  auto& clk = im.comm.clock();
  PNC_IOSTAT_REQ_SCOPE(is_write ? "wait_all.put" : "wait_all.get", "*batch",
                       clk.now(), std::uint64_t{0}, is_write);

  // Flatten every item into (file extent, source pointer) pieces, then sort
  // by file offset: the combined access becomes one monotonic file view —
  // "more contiguous and larger transfers" out of many small requests.
  struct Piece {
    pnc::Extent ext;
    std::byte* data;
  };
  std::vector<Piece> pieces;
  std::uint64_t total = 0;
  pnc::Status vst = pnc::Status::Ok();
  std::uint64_t max_recs = im.header.numrecs;
  for (const auto& item : items) {
    pnc::Status st = ncformat::ValidateAccess(
        im.header, item.varid, item.start, item.count, {},
        is_write ? ncformat::AccessKind::kWrite : ncformat::AccessKind::kRead);
    if (!st.ok()) {
      vst = st;
      break;
    }
    std::vector<pnc::Extent> regions;
    ncformat::AccessRegions(im.header, item.varid, item.start, item.count, {},
                            regions);
    std::uint64_t pos = 0;
    for (const auto& r : regions) {
      pieces.push_back({r, item.ext.data() + pos});
      pos += r.len;
      total += r.len;
    }
    if (pos != item.ext.size()) {
      vst = pnc::Status(pnc::Err::kTypeMismatch, "batch item size");
      break;
    }
    if (is_write)
      max_recs = std::max(max_recs,
                          ncformat::RecordsTouched(im.header, item.varid,
                                                   item.start, item.count, {}));
  }
  PNC_RETURN_IF_ERROR(CollectiveCheck(vst, true));

  std::stable_sort(pieces.begin(), pieces.end(),
                   [](const Piece& a, const Piece& b) {
                     return a.ext.offset < b.ext.offset;
                   });

  // Combined filetype + staging buffer in file order.
  std::vector<std::uint64_t> lens, offs;
  std::vector<pnc::Extent> exts;
  lens.reserve(pieces.size());
  offs.reserve(pieces.size());
  exts.reserve(pieces.size());
  std::vector<std::byte> staging(total);
  std::uint64_t pos = 0;
  for (const auto& p : pieces) {
    offs.push_back(p.ext.offset);
    lens.push_back(p.ext.len);
    exts.push_back(p.ext);
    if (is_write) std::memcpy(staging.data() + pos, p.data, p.ext.len);
    pos += p.ext.len;
  }
  if (is_write && total > 0) clk.Advance(im.comm.cost().CopyCost(total));
  // The coalesced nonblocking batch as one access — the merged extent list
  // is exactly what wait_all hands the I/O engine.
  PNC_PROBE(kAccess, .len = total, .write = is_write, .flag = true,
            .detail = "*batch", .extents = exts);
  auto filetype = simmpi::Datatype::Hindexed(lens, offs, simmpi::ByteType());

  PNC_RETURN_IF_ERROR(Track(im, im.file.SetView(0, simmpi::ByteType(),
                                                filetype)));
  pnc::Status io =
      is_write ? im.file.WriteAtAll(0, staging.data(), staging.size(),
                                    simmpi::ByteType())
               : im.file.ReadAtAll(0, staging.data(), staging.size(),
                                   simmpi::ByteType());
  im.file.ClearView();
  PNC_RETURN_IF_ERROR(Track(im, io));

  if (!is_write) {
    pos = 0;
    for (const auto& p : pieces) {
      std::memcpy(p.data, staging.data() + pos, p.ext.len);
      pos += p.ext.len;
    }
    if (total > 0) clk.Advance(im.comm.cost().CopyCost(total));
  } else {
    PNC_RETURN_IF_ERROR(SyncNumrecs(max_recs, /*collective=*/true));
  }
  return pnc::Status::Ok();
}

// ------------------------------------------------------------- relayout

pnc::Status Dataset::RelayoutParallel(const Header& old_header) {
  auto& im = *impl_;
  const int p = im.comm.size();
  const int r = im.comm.rank();
  // Within a move each rank moves a disjoint slice, and the agreements
  // below order the reads, the writes and the next move: the "moving the
  // existing data to the extended area is performed in parallel" of §4.3.
  auto plan = ncformat::RelayoutPlan(old_header, im.header);

  im.file.ClearView();
  // Each phase ends in a status agreement, so a rank-local I/O failure
  // surfaces identically on all ranks instead of leaving peers stuck in a
  // collective the failed rank never reaches. The agreement after the reads
  // is also what makes a move safe: every slice of the source is read before
  // any rank writes, since a destination less than one slice past its
  // source overlaps the next rank's unread slice.
  const auto agree = [&](const pnc::Status& st) {
    return Track(im, im.comm.AgreeStatus(st, "relayout failed on a peer rank"));
  };
  if (!plan.ok()) return agree(plan.status());
  std::vector<std::byte> buf;
  for (const auto& m : plan.value()) {
    const std::uint64_t per =
        (m.len + static_cast<std::uint64_t>(p) - 1) / static_cast<std::uint64_t>(p);
    const std::uint64_t lo = std::min(m.len, per * static_cast<std::uint64_t>(r));
    const std::uint64_t hi = std::min(m.len, lo + per);
    buf.resize(hi - lo);
    pnc::Status st;
    if (hi > lo)
      st = im.file.ReadAt(m.from + lo, buf.data(), hi - lo, simmpi::ByteType());
    PNC_RETURN_IF_ERROR(agree(st));
    if (hi > lo)
      st = im.file.WriteAt(m.to + lo, buf.data(), hi - lo, simmpi::ByteType());
    PNC_RETURN_IF_ERROR(agree(st));
  }
  return pnc::Status::Ok();
}

}  // namespace pnetcdf

