// FLASH checkpoint workload (paper §5.2, Figure 7): 4 ranks each write 80
// AMR blocks of 8^3 cells - 24 double unknowns with the guard cells stripped
// by a subarray datatype, plus the tree metadata - on the 2-server Frost
// model. hdf5lite writes the same data through flashio in the same
// iteration, on a fresh file system of its own: the paper's baseline.
//
// The PnetCDF file is written by the calls below rather than by
// flashio::WriteFlashPnetcdf so that the define, data and close phases can
// be spanned at the pnetcdf boundary without instrumenting the library. The
// calls and the file they produce are the same (same variables, shapes,
// datatypes and order); flashio::ValidateFlashPnetcdf checks the result on
// every iteration.
#include <cstdio>
#include <sstream>

#include "bench.hpp"
#include "flash/flash.hpp"
#include "hdf5lite/h5file.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace perfbench {
namespace {

using flashio::FileKind;
using flashio::FlashData;
using ncformat::NcType;

constexpr const char* kPncPath = "flash_chk.nc";
constexpr const char* kH5Path = "flash_chk.h5";

std::string VarName(int v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "var%02d", v + 1);
  return buf;
}

class FlashCheckpoint final : public Workload {
 public:
  pnc::Status Setup(std::uint64_t /*seed*/) override {
    // flashio's generator fixes the data by rank; the seed only reaches the
    // LBL workloads.
    data_.clear();
    for (int r = 0; r < kProcs; ++r) data_.emplace_back(cfg_, r);
    data_[0].FillUnk(0, crc_payload_);
    return pnc::Status::Ok();
  }

  pnc::Status MeasureBaseline(Tracer*) override { return pnc::Status::Ok(); }

  [[nodiscard]] int CycleLength() const override { return 1; }

  Sample RunIteration(int iter, int /*label*/, Tracer* tracer) override {
    Sample s;
    s.iter = iter;
    s.label = "checkpoint_8x8x8";
    s.traced = tracer != nullptr;

    pfs::FileSystem fs(Frost());
    if (!PfsIdle(fs)) {
      s.error = "pfs not idle at iteration start";
      return s;
    }
    std::vector<double> pre_sync(kProcs, 0.0);
    Window win;
    FirstError err;
    const RunCost cost = TimedRun(Sp2(), [&](simmpi::Comm& comm) {
      const Window w = WriteBody(comm, fs, tracer);
      err.Note(w.st);
      pre_sync[static_cast<std::size_t>(comm.rank())] = w.pre_sync_ns;
      if (comm.rank() == 0) win = w;
    });
    s.host_ms = cost.wall_ms;
    s.cpu_ms = cost.cpu_ms;
    s.heap_mb = cost.heap_mb;
    s.payload_bytes = win.payload;
    s.data_vns = win.v1 - win.v_data;
    if (tracer != nullptr)
      CollectLayers(*tracer, s.host_ms, pre_sync, s.payload_bytes, s.layer);
    s.error = err.Take();
    if (s.error.empty() && !win.all_ok) s.error = "a rank failed";

    // Baseline: the same data through hdf5lite, whole-file window as in
    // Figure 7 (the PnetCDF side of the ratio uses its whole-file window too).
    pfs::FileSystem h5fs(Frost());
    double h5_vns = 0, h5_payload = 0;
    const double h5_host_ms = TimedRun(Sp2(), [&](simmpi::Comm& comm) {
      const int r = comm.rank();
      comm.SyncClocksToMax();
      const double t0 = comm.clock().now();
      pnc::Status st = pnc::Status::Ok();
      {
        Tracer::Scope span(tracer, r, "baseline.hdf5lite",
                           "WriteFlashHdf5lite", &comm.clock());
        st = flashio::WriteFlashHdf5lite(comm, h5fs, kH5Path,
                                         data_[static_cast<std::size_t>(r)],
                                         FileKind::kCheckpoint, simmpi::Info{});
      }
      comm.SyncClocksToMax();
      const double t1 = comm.clock().now();
      const double moved = comm.AllreduceSum(
          st.ok() ? static_cast<double>(
                        flashio::BytesPerProc(cfg_, FileKind::kCheckpoint))
                  : 0.0);
      err.Note(st);
      if (r == 0) {
        h5_vns = t1 - t0;
        h5_payload = moved;
      }
    }).wall_ms;
    if (s.error.empty()) s.error = err.Take();
    s.layer["baseline.host_ms"] = h5_host_ms;
    s.layer["baseline.vmbps"] = MBps(h5_payload, h5_vns);

    if (s.error.empty()) {
      Tracer::Scope span(tracer, Tracer::kMainSlot, "verify.check",
                         "Validate+VerifyFile+hdf5lite");
      pnc::Status st = flashio::ValidateFlashPnetcdf(fs, kPncPath, cfg_,
                                                     kProcs,
                                                     FileKind::kCheckpoint);
      if (st.ok()) st = VerifyClean(fs, kPncPath);
      if (st.ok()) st = CheckHdf5lite(h5fs);
      if (!st.ok()) s.error = "check: " + st.message();
    }
    s.ok = s.error.empty();
    if (s.ok)
      s.vs_baseline =
          MBps(s.payload_bytes, win.v1 - win.v_whole) / MBps(h5_payload, h5_vns);
    return s;
  }

  [[nodiscard]] pnc::ConstByteSpan CrcPayload() const override {
    return {reinterpret_cast<const std::byte*>(crc_payload_.data()),
            crc_payload_.size() * sizeof(double)};
  }

  [[nodiscard]] std::string DescribeJson() const override {
    std::ostringstream o;
    o << "{\"file\":\"checkpoint\",\"block\":\"8x8x8\",\"blocks_per_proc\":"
      << cfg_.blocks_per_proc << ",\"nvar\":" << cfg_.nvar
      << ",\"nguard\":" << cfg_.nguard << ",\"bytes_per_proc\":"
      << flashio::BytesPerProc(cfg_, FileKind::kCheckpoint)
      << ",\"nprocs\":" << kProcs
      << ",\"baseline\":\"hdf5lite via flashio::WriteFlashHdf5lite\",\"pfs\":"
      << ConfigJson(Frost()) << ",\"cost\":" << CostJson(Sp2()) << "}";
    return o.str();
  }

 private:
  struct Window {
    pnc::Status st = pnc::Status::Ok();
    double v_whole = 0;  ///< synced clock before Create
    double v_data = 0;   ///< synced clock before the first data call
    double v1 = 0;       ///< synced clock after Close
    double pre_sync_ns = 0;
    double payload = 0;
    bool all_ok = false;
  };

  pnc::Status Define(pnetcdf::Dataset& ds, int nprocs, std::vector<int>& ids) {
    const auto blocks = static_cast<std::uint64_t>(cfg_.blocks_per_proc);
    PNC_ASSIGN_OR_RETURN(
        int d_blocks,
        ds.DefDim("tot_blocks", blocks * static_cast<std::uint64_t>(nprocs)));
    PNC_ASSIGN_OR_RETURN(int d_z, ds.DefDim("nzb", cfg_.nzb));
    PNC_ASSIGN_OR_RETURN(int d_y, ds.DefDim("nyb", cfg_.nyb));
    PNC_ASSIGN_OR_RETURN(int d_x, ds.DefDim("nxb", cfg_.nxb));
    ids.assign(static_cast<std::size_t>(cfg_.nvar) + 6, -1);
    for (int v = 0; v < cfg_.nvar; ++v) {
      PNC_ASSIGN_OR_RETURN(ids[static_cast<std::size_t>(v)],
                           ds.DefVar(VarName(v), NcType::kDouble,
                                     {d_blocks, d_z, d_y, d_x}));
    }
    PNC_ASSIGN_OR_RETURN(int d_dim, ds.DefDim("ndim", 3));
    PNC_ASSIGN_OR_RETURN(int d_gid,
                         ds.DefDim("gid_entries", FlashData::kGidEntries));
    PNC_ASSIGN_OR_RETURN(int d_two, ds.DefDim("two", 2));
    const auto n = static_cast<std::size_t>(cfg_.nvar);
    PNC_ASSIGN_OR_RETURN(ids[n + 0],
                         ds.DefVar("lrefine", NcType::kInt, {d_blocks}));
    PNC_ASSIGN_OR_RETURN(ids[n + 1],
                         ds.DefVar("nodetype", NcType::kInt, {d_blocks}));
    PNC_ASSIGN_OR_RETURN(ids[n + 2],
                         ds.DefVar("gid", NcType::kInt, {d_blocks, d_gid}));
    PNC_ASSIGN_OR_RETURN(ids[n + 3], ds.DefVar("coordinates", NcType::kDouble,
                                               {d_blocks, d_dim}));
    PNC_ASSIGN_OR_RETURN(ids[n + 4], ds.DefVar("blocksize", NcType::kDouble,
                                               {d_blocks, d_dim}));
    PNC_ASSIGN_OR_RETURN(ids[n + 5], ds.DefVar("bounding_box", NcType::kDouble,
                                               {d_blocks, d_dim, d_two}));
    PNC_RETURN_IF_ERROR(ds.PutAttText(pnetcdf::kGlobal, "file_kind",
                                      "checkpoint"));
    return ds.EndDef();
  }

  /// Unknowns through the flexible API (guard cells stripped by a subarray
  /// datatype), then the tree metadata; adds the bytes moved to `moved`.
  pnc::Status PutAll(pnetcdf::Dataset& ds, const FlashData& data, int rank,
                     const std::vector<int>& ids, Tracer* t,
                     const simmpi::VirtualClock* clk, double& moved) {
    const auto blocks = static_cast<std::uint64_t>(cfg_.blocks_per_proc);
    const auto b0 = blocks * static_cast<std::uint64_t>(rank);
    const auto nz = static_cast<std::uint64_t>(cfg_.nzb);
    const auto ny = static_cast<std::uint64_t>(cfg_.nyb);
    const auto nx = static_cast<std::uint64_t>(cfg_.nxb);
    const auto g = static_cast<std::uint64_t>(cfg_.nguard);
    const std::uint64_t start[] = {b0, 0, 0, 0};
    const std::uint64_t count[] = {blocks, nz, ny, nx};
    const std::uint64_t msizes[] = {blocks, cfg_.guarded(cfg_.nzb),
                                    cfg_.guarded(cfg_.nyb),
                                    cfg_.guarded(cfg_.nxb)};
    const std::uint64_t mstart[] = {0, g, g, g};
    PNC_ASSIGN_OR_RETURN(auto buftype,
                         simmpi::Datatype::Subarray(msizes, count, mstart,
                                                    simmpi::DoubleType()));
    const double unk_bytes = static_cast<double>(blocks * nz * ny * nx * 8);
    for (int v = 0; v < cfg_.nvar; ++v) {
      data.FillUnk(v, scratch_[static_cast<std::size_t>(rank)]);
      Tracer::Scope span(t, rank, "pnetcdf.data", "PutVaraAllFlex", clk);
      PNC_RETURN_IF_ERROR(ds.PutVaraAllFlex(
          ids[static_cast<std::size_t>(v)], start, count,
          scratch_[static_cast<std::size_t>(rank)].data(), 1, buftype));
      moved += unk_bytes;
    }

    Tracer::Scope span(t, rank, "pnetcdf.data", "PutVaraAll(tree)", clk);
    const auto n = static_cast<std::size_t>(cfg_.nvar);
    const std::uint64_t s1[] = {b0}, c1[] = {blocks};
    const std::uint64_t s2[] = {b0, 0}, c2g[] = {blocks, FlashData::kGidEntries},
                        c2d[] = {blocks, 3};
    const std::uint64_t s3[] = {b0, 0, 0}, c3[] = {blocks, 3, 2};
    PNC_RETURN_IF_ERROR(
        ds.PutVaraAll<std::int32_t>(ids[n + 0], s1, c1, data.lrefine()));
    PNC_RETURN_IF_ERROR(
        ds.PutVaraAll<std::int32_t>(ids[n + 1], s1, c1, data.nodetype()));
    PNC_RETURN_IF_ERROR(
        ds.PutVaraAll<std::int32_t>(ids[n + 2], s2, c2g, data.gid()));
    PNC_RETURN_IF_ERROR(
        ds.PutVaraAll<double>(ids[n + 3], s2, c2d, data.coord()));
    PNC_RETURN_IF_ERROR(
        ds.PutVaraAll<double>(ids[n + 4], s2, c2d, data.bsize()));
    PNC_RETURN_IF_ERROR(
        ds.PutVaraAll<double>(ids[n + 5], s3, c3, data.bnd_box()));
    moved += static_cast<double>(
        (data.lrefine().size() + data.nodetype().size() + data.gid().size()) *
            4 +
        (data.coord().size() + data.bsize().size() + data.bnd_box().size()) *
            8);
    return pnc::Status::Ok();
  }

  Window WriteBody(simmpi::Comm& comm, pfs::FileSystem& fs, Tracer* t) {
    const int r = comm.rank();
    const simmpi::VirtualClock* clk = &comm.clock();
    Tracer::Scope body(t, r, "app.rank", "flash_checkpoint", clk);
    const FlashData& data = data_[static_cast<std::size_t>(r)];
    Window w;
    comm.SyncClocksToMax();
    w.v_whole = comm.clock().now();

    pnc::Status st = pnc::Status::Ok();
    pnetcdf::Dataset ds;
    std::vector<int> ids;
    {
      Tracer::Scope span(t, r, "pnetcdf.define", "Create", clk);
      auto c = pnetcdf::Dataset::Create(comm, fs, kPncPath, simmpi::Info{});
      if (c.ok()) ds = std::move(c).value();
      else st = c.status();
    }
    if (st.ok()) {
      Tracer::Scope span(t, r, "pnetcdf.define", "DefDim+DefVar+EndDef", clk);
      st = Define(ds, comm.size(), ids);
    }

    comm.SyncClocksToMax();
    w.v_data = comm.clock().now();
    double moved = 0;
    if (st.ok()) st = PutAll(ds, data, r, ids, t, clk, moved);
    if (ds.valid()) {
      Tracer::Scope span(t, r, "pnetcdf.flush", "Close", clk);
      pnc::Status cs = ds.Close();
      if (st.ok()) st = cs;
    }
    w.pre_sync_ns = comm.clock().now();
    comm.SyncClocksToMax();
    w.v1 = comm.clock().now();
    w.payload = comm.AllreduceSum(st.ok() ? moved : 0.0);
    w.all_ok = comm.AllreduceAnd(st.ok());
    w.st = std::move(st);
    return w;
  }

  /// Read the first and last unknown of the hdf5lite file back, each rank
  /// its own blocks, and compare with the generator (guards included).
  pnc::Status CheckHdf5lite(pfs::FileSystem& fs) {
    FirstError err;
    simmpi::Run(kProcs, [&](simmpi::Comm& comm) {
      const int r = comm.rank();
      const auto blocks = static_cast<std::uint64_t>(cfg_.blocks_per_proc);
      const auto g = static_cast<std::uint64_t>(cfg_.nguard);
      const std::uint64_t start[] = {blocks * static_cast<std::uint64_t>(r), 0,
                                     0, 0};
      const std::uint64_t count[] = {blocks, static_cast<std::uint64_t>(cfg_.nzb),
                                     static_cast<std::uint64_t>(cfg_.nyb),
                                     static_cast<std::uint64_t>(cfg_.nxb)};
      const std::uint64_t mdims[] = {blocks, cfg_.guarded(cfg_.nzb),
                                     cfg_.guarded(cfg_.nyb),
                                     cfg_.guarded(cfg_.nxb)};
      const std::uint64_t mstart[] = {0, g, g, g};
      auto fr = hdf5lite::File::Open(comm, fs, kH5Path, /*writable=*/false,
                                     simmpi::Info{});
      pnc::Status st = fr.status();
      bool match = true;
      if (fr.ok()) {
        auto f = std::move(fr).value();
        std::vector<double> want, got;
        // Open/Close are collective: a rank whose data mismatches keeps going.
        for (int v : {0, cfg_.nvar - 1}) {
          auto dsr = f.OpenDataset(VarName(v));
          if (!dsr.ok()) {
            st = dsr.status();
            break;
          }
          auto ds = std::move(dsr).value();
          data_[static_cast<std::size_t>(r)].FillUnk(v, want);
          got.assign(want.size(), -1.0);
          st = ds.Read(start, count, got.data(), mdims, mstart);
          pnc::Status cs = ds.Close();
          if (st.ok()) st = cs;
          if (!st.ok()) break;
          match = match && got == want;
        }
        pnc::Status cs = f.Close();
        if (st.ok()) st = cs;
      }
      if (st.ok() && !match)
        st = pnc::Status(pnc::Err::kInternal, "hdf5lite read-back mismatch");
      err.Note(st);
    }, Sp2());
    if (auto e = err.Take(); !e.empty())
      return pnc::Status(pnc::Err::kInternal, e);
    return pnc::Status::Ok();
  }

  flashio::FlashConfig cfg_;  ///< 8^3 blocks, 80 per rank, 24 unknowns
  std::vector<FlashData> data_;
  std::vector<std::vector<double>> scratch_ =
      std::vector<std::vector<double>>(kProcs);
  std::vector<double> crc_payload_;
};

}  // namespace

std::unique_ptr<Workload> MakeFlashCheckpoint() {
  return std::make_unique<FlashCheckpoint>();
}

}  // namespace perfbench
