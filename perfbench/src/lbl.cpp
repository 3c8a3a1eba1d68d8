// LBL workloads (paper §5.1, Figures 5-6): collective access to the 64 MB
// array tt(Z=256, Y=256, X=128) of doubles, on 4 ranks of the Blue Horizon
// model, cycling through the seven Figure 5 partitions.
//
//   lbl_write  Create, define, PutVaraAll, Sync, Close on a fresh pfs.
//   lbl_read   read-only Open, GetVaraAll, Close of a file written once in
//              set-up; the pfs timeline is reset before every iteration.
//
// The baseline is Figure 6's first column: the serial netCDF library moving
// the whole array through one process. It runs on one thread, so its virtual
// time does not depend on thread scheduling and is measured once per run.
#include <cstring>
#include <iterator>
#include <sstream>

#include "bench.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kDims[3] = {256, 256, 128};  // Z, Y, X
constexpr std::uint64_t kElems = kDims[0] * kDims[1] * kDims[2];
constexpr const char* kPath = "tt.nc";

struct Partition {
  const char* name;
  unsigned mask;  ///< bit d set: axis d (0 = Z) is split
};
constexpr Partition kPartitions[] = {{"Z", 1u},  {"Y", 2u},  {"X", 4u},
                                     {"ZY", 3u}, {"ZX", 5u}, {"YX", 6u},
                                     {"ZYX", 7u}};

struct Box {
  std::uint64_t start[3], count[3];
  [[nodiscard]] std::uint64_t elems() const {
    return count[0] * count[1] * count[2];
  }
};

/// Rank `rank`'s block when kProcs ranks split the axes in `mask`
/// round-robin by halves (Figure 5; every dimension divides evenly).
Box RankBox(unsigned mask, int rank) {
  std::uint64_t parts[3] = {1, 1, 1};
  std::vector<int> axes;
  for (int d = 0; d < 3; ++d)
    if (mask & (1u << d)) axes.push_back(d);
  for (int rem = kProcs, i = 0; rem > 1; rem /= 2, ++i)
    parts[axes[static_cast<std::size_t>(i) % axes.size()]] *= 2;
  Box b{};
  auto coord = static_cast<std::uint64_t>(rank);
  for (int d = 2; d >= 0; --d) {
    b.count[d] = kDims[d] / parts[d];
    b.start[d] = b.count[d] * (coord % parts[d]);
    coord /= parts[d];
  }
  return b;
}

/// Copy the box out of the global array (rows of X are contiguous).
void Extract(const std::vector<double>& global, const Box& b,
             std::vector<double>& out) {
  out.resize(b.elems());
  double* dst = out.data();
  for (std::uint64_t z = 0; z < b.count[0]; ++z)
    for (std::uint64_t y = 0; y < b.count[1]; ++y, dst += b.count[2])
      std::memcpy(dst,
                  &global[((b.start[0] + z) * kDims[1] + b.start[1] + y) *
                              kDims[2] +
                          b.start[2]],
                  b.count[2] * sizeof(double));
}

bool Matches(const std::vector<double>& global, const Box& b,
             const std::vector<double>& buf) {
  if (buf.size() != b.elems()) return false;
  const double* src = buf.data();
  for (std::uint64_t z = 0; z < b.count[0]; ++z)
    for (std::uint64_t y = 0; y < b.count[1]; ++y, src += b.count[2])
      if (std::memcmp(src,
                      &global[((b.start[0] + z) * kDims[1] + b.start[1] + y) *
                                  kDims[2] +
                              b.start[2]],
                      b.count[2] * sizeof(double)) != 0)
        return false;
  return true;
}

pnc::ConstByteSpan Bytes(const std::vector<double>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()),
          v.size() * sizeof(double)};
}

class Lbl final : public Workload {
 public:
  explicit Lbl(bool write) : write_(write) {}

  pnc::Status Setup(std::uint64_t seed) override {
    global_.assign(kElems, 0.0);
    pnc::SplitMix64 rng(seed);
    for (double& v : global_) v = rng.NextDouble();
    bufs_.assign(kProcs, {});
    fs_.reset();
    if (write_) return pnc::Status::Ok();
    // lbl_read: the file every iteration reads, written once and checked.
    fs_ = std::make_unique<pfs::FileSystem>(BlueHorizon());
    FirstError err;
    TimedRun(Sp2(), [&](simmpi::Comm& comm) {
      err.Note(WriteBody(comm, *fs_, kPartitions[0].mask, nullptr).st);
    });
    if (auto e = err.Take(); !e.empty())
      return pnc::Status(pnc::Err::kInternal, "set-up write: " + e);
    PNC_RETURN_IF_ERROR(ReReadMatches(*fs_));
    PNC_RETURN_IF_ERROR(VerifyClean(*fs_, kPath));
    fs_->ResetTime();
    return pnc::Status::Ok();
  }

  pnc::Status MeasureBaseline(Tracer* tracer) override {
    Tracer::Scope span(tracer, Tracer::kMainSlot, "baseline.serial",
                       write_ ? "netcdf.write" : "netcdf.read");
    const double h0 = HostNowNs();
    const std::uint64_t zslab = kDims[0] / 8;  // as the LBL Fortran code
    const std::uint64_t slab_elems = zslab * kDims[1] * kDims[2];
    double v0 = 0, v1 = 0;
    if (write_) {
      pfs::FileSystem fs(BlueHorizon());
      auto dsr = netcdf::Dataset::Create(fs, kPath);
      if (!dsr.ok()) return dsr.status();
      auto ds = std::move(dsr).value();
      int dims[3];
      const char* names[3] = {"level", "latitude", "longitude"};
      for (int d = 0; d < 3; ++d) {
        PNC_ASSIGN_OR_RETURN(dims[d], ds.DefDim(names[d], kDims[d]));
      }
      PNC_ASSIGN_OR_RETURN(
          int v, ds.DefVar("tt", ncformat::NcType::kDouble,
                           {dims[0], dims[1], dims[2]}));
      PNC_RETURN_IF_ERROR(ds.EndDef());
      v0 = ds.clock().now();
      for (std::uint64_t s = 0; s < 8; ++s) {
        const std::uint64_t st[] = {s * zslab, 0, 0};
        const std::uint64_t ct[] = {zslab, kDims[1], kDims[2]};
        PNC_RETURN_IF_ERROR(ds.PutVara<double>(
            v, st, ct,
            std::span<const double>(&global_[s * slab_elems], slab_elems)));
      }
      PNC_RETURN_IF_ERROR(ds.Sync());
      PNC_RETURN_IF_ERROR(ds.Close());
      v1 = ds.clock().now();
    } else {
      auto dsr = netcdf::Dataset::Open(*fs_, kPath, /*writable=*/false);
      if (!dsr.ok()) return dsr.status();
      auto ds = std::move(dsr).value();
      PNC_ASSIGN_OR_RETURN(int v, ds.VarId("tt"));
      std::vector<double> buf(kElems);
      v0 = ds.clock().now();
      for (std::uint64_t s = 0; s < 8; ++s) {
        const std::uint64_t st[] = {s * zslab, 0, 0};
        const std::uint64_t ct[] = {zslab, kDims[1], kDims[2]};
        PNC_RETURN_IF_ERROR(ds.GetVara<double>(
            v, st, ct, std::span<double>(&buf[s * slab_elems], slab_elems)));
      }
      PNC_RETURN_IF_ERROR(ds.Close());
      v1 = ds.clock().now();
      fs_->ResetTime();
      if (buf != global_)
        return pnc::Status(pnc::Err::kInternal, "serial read mismatch");
    }
    baseline_host_ms_ = (HostNowNs() - h0) / 1e6;
    baseline_mbps_ = MBps(static_cast<double>(kElems * sizeof(double)), v1 - v0);
    return pnc::Status::Ok();
  }

  [[nodiscard]] int CycleLength() const override {
    return static_cast<int>(std::size(kPartitions));
  }

  Sample RunIteration(int iter, int label, Tracer* tracer) override {
    const Partition& part = kPartitions[label];
    Sample s;
    s.iter = iter;
    s.label = part.name;
    s.traced = tracer != nullptr;

    std::unique_ptr<pfs::FileSystem> fresh;
    if (write_) {
      fresh = std::make_unique<pfs::FileSystem>(BlueHorizon());
    } else {
      fs_->ResetTime();
    }
    pfs::FileSystem& fs = write_ ? *fresh : *fs_;
    if (!PfsIdle(fs)) {
      s.error = "pfs not idle at iteration start";
      return s;
    }

    std::vector<double> pre_sync(kProcs, 0.0);
    Window win;
    FirstError err;
    const RunCost cost = TimedRun(Sp2(), [&](simmpi::Comm& comm) {
      const Window w = write_ ? WriteBody(comm, fs, part.mask, tracer)
                              : ReadBody(comm, fs, part.mask, tracer);
      err.Note(w.st);
      pre_sync[static_cast<std::size_t>(comm.rank())] = w.pre_sync_ns;
      if (comm.rank() == 0) win = w;
    });
    s.host_ms = cost.wall_ms;
    s.cpu_ms = cost.cpu_ms;
    s.heap_mb = cost.heap_mb;
    s.payload_bytes = win.payload;
    s.data_vns = win.v1 - win.v0;
    if (tracer != nullptr)
      CollectLayers(*tracer, s.host_ms, pre_sync, s.payload_bytes, s.layer);
    s.error = err.Take();
    if (s.error.empty() && !win.all_ok) s.error = "a rank failed";

    // Correctness, outside the timed window.
    if (s.error.empty()) {
      Tracer::Scope span(tracer, Tracer::kMainSlot, "verify.check",
                         write_ ? "ReRead+VerifyFile" : "CompareBuffers");
      pnc::Status st = pnc::Status::Ok();
      if (write_) {
        st = ReReadMatches(fs);
        if (st.ok()) st = VerifyClean(fs, kPath);
      } else {
        for (int r = 0; r < kProcs && st.ok(); ++r)
          if (!Matches(global_, RankBox(part.mask, r),
                       bufs_[static_cast<std::size_t>(r)]))
            st = pnc::Status(pnc::Err::kInternal, "read buffer mismatch");
      }
      if (!st.ok()) s.error = "check: " + st.message();
    }
    s.ok = s.error.empty();
    if (s.ok && baseline_mbps_ > 0) s.vs_baseline = s.vmbps() / baseline_mbps_;
    return s;
  }

  [[nodiscard]] std::map<std::string, double> RunLayerValues() const override {
    return {{"baseline.host_ms", baseline_host_ms_},
            {"baseline.vmbps", baseline_mbps_}};
  }

  [[nodiscard]] pnc::ConstByteSpan CrcPayload() const override {
    return Bytes(global_);
  }

  [[nodiscard]] std::string DescribeJson() const override {
    std::ostringstream o;
    o << "{\"array\":\"tt(256,256,128) double\",\"array_bytes\":"
      << kElems * sizeof(double) << ",\"nprocs\":" << kProcs
      << ",\"op\":\"" << (write_ ? "write" : "read")
      << "\",\"baseline\":\"serial netCDF, 8 Z-slabs\",\"pfs\":"
      << ConfigJson(BlueHorizon()) << ",\"cost\":" << CostJson(Sp2()) << "}";
    return o.str();
  }

 private:
  /// One rank's view of the timed window.
  struct Window {
    pnc::Status st = pnc::Status::Ok();
    double v0 = 0, v1 = 0;      ///< synced clocks around the data phase
    double pre_sync_ns = 0;     ///< own clock just before the closing sync
    double payload = 0;         ///< allreduced bytes of successful calls
    bool all_ok = false;
  };

  static pnc::Status Define(pnetcdf::Dataset& ds, Tracer* t, int r,
                            const simmpi::VirtualClock* clk, int& varid) {
    Tracer::Scope span(t, r, "pnetcdf.define", "DefDim+DefVar+EndDef", clk);
    int dims[3];
    const char* names[3] = {"level", "latitude", "longitude"};
    for (int d = 0; d < 3; ++d) {
      PNC_ASSIGN_OR_RETURN(dims[d], ds.DefDim(names[d], kDims[d]));
    }
    PNC_ASSIGN_OR_RETURN(varid, ds.DefVar("tt", ncformat::NcType::kDouble,
                                          {dims[0], dims[1], dims[2]}));
    return ds.EndDef();
  }

  /// Close the window: every rank reaches the same collectives whatever its
  /// status, so a failure cannot leave another rank waiting.
  static Window Finish(simmpi::Comm& comm, pnc::Status st, double v0,
                       double mine) {
    Window w;
    w.pre_sync_ns = comm.clock().now();
    comm.SyncClocksToMax();
    w.v0 = v0;
    w.v1 = comm.clock().now();
    w.payload = comm.AllreduceSum(st.ok() ? mine : 0.0);
    w.all_ok = comm.AllreduceAnd(st.ok());
    w.st = std::move(st);
    return w;
  }

  Window WriteBody(simmpi::Comm& comm, pfs::FileSystem& fs, unsigned mask,
                   Tracer* t) {
    const int r = comm.rank();
    const simmpi::VirtualClock* clk = &comm.clock();
    Tracer::Scope body(t, r, "app.rank", "lbl_write", clk);
    const Box b = RankBox(mask, r);
    auto& buf = bufs_[static_cast<std::size_t>(r)];
    Extract(global_, b, buf);

    pnc::Status st = pnc::Status::Ok();
    pnetcdf::Dataset ds;
    {
      Tracer::Scope span(t, r, "pnetcdf.define", "Create", clk);
      auto c = pnetcdf::Dataset::Create(comm, fs, kPath, simmpi::Info{});
      if (c.ok()) ds = std::move(c).value();
      else st = c.status();
    }
    int v = -1;
    if (st.ok()) st = Define(ds, t, r, clk, v);

    comm.SyncClocksToMax();
    const double v0 = comm.clock().now();
    double mine = 0;
    if (st.ok()) {
      Tracer::Scope span(t, r, "pnetcdf.data", "PutVaraAll", clk);
      st = ds.PutVaraAll<double>(v, b.start, b.count, buf);
      mine = static_cast<double>(b.elems() * sizeof(double));
    }
    if (st.ok()) {
      Tracer::Scope span(t, r, "pnetcdf.flush", "Sync", clk);
      st = ds.Sync();
    }
    if (ds.valid()) {
      Tracer::Scope span(t, r, "pnetcdf.flush", "Close", clk);
      pnc::Status cs = ds.Close();
      if (st.ok()) st = cs;
    }
    return Finish(comm, std::move(st), v0, mine);
  }

  Window ReadBody(simmpi::Comm& comm, pfs::FileSystem& fs, unsigned mask,
                  Tracer* t) {
    const int r = comm.rank();
    const simmpi::VirtualClock* clk = &comm.clock();
    Tracer::Scope body(t, r, "app.rank", "lbl_read", clk);
    const Box b = RankBox(mask, r);
    auto& buf = bufs_[static_cast<std::size_t>(r)];
    buf.assign(b.elems(), 0.0);

    pnc::Status st = pnc::Status::Ok();
    pnetcdf::Dataset ds;
    int v = -1;
    {
      Tracer::Scope span(t, r, "pnetcdf.define", "Open+VarId", clk);
      auto o = pnetcdf::Dataset::Open(comm, fs, kPath, /*writable=*/false,
                                      simmpi::Info{});
      if (o.ok()) {
        ds = std::move(o).value();
        auto id = ds.VarId("tt");
        if (id.ok()) v = id.value();
        else st = id.status();
      } else {
        st = o.status();
      }
    }

    comm.SyncClocksToMax();
    const double v0 = comm.clock().now();
    double mine = 0;
    if (st.ok()) {
      Tracer::Scope span(t, r, "pnetcdf.data", "GetVaraAll", clk);
      st = ds.GetVaraAll<double>(v, b.start, b.count, buf);
      mine = static_cast<double>(b.elems() * sizeof(double));
    }
    if (ds.valid()) {
      Tracer::Scope span(t, r, "pnetcdf.flush", "Close", clk);
      pnc::Status cs = ds.Close();
      if (st.ok()) st = cs;
    }
    return Finish(comm, std::move(st), v0, mine);
  }

  /// Re-read the whole array collectively (Z slabs) and compare it with the
  /// seeded generator.
  pnc::Status ReReadMatches(pfs::FileSystem& fs) {
    FirstError err;
    simmpi::Run(kProcs, [&](simmpi::Comm& comm) {
      const Box b = RankBox(kPartitions[0].mask, comm.rank());
      auto& buf = bufs_[static_cast<std::size_t>(comm.rank())];
      buf.assign(b.elems(), 0.0);
      pnc::Status st = pnc::Status::Ok();
      auto o = pnetcdf::Dataset::Open(comm, fs, kPath, /*writable=*/false,
                                      simmpi::Info{});
      if (o.ok()) {
        auto ds = std::move(o).value();
        st = ds.GetVaraAll<double>(0, b.start, b.count, buf);
        pnc::Status cs = ds.Close();
        if (st.ok()) st = cs;
      } else {
        st = o.status();
      }
      if (st.ok() && !Matches(global_, b, buf))
        st = pnc::Status(pnc::Err::kInternal, "re-read mismatch");
      err.Note(st);
    }, Sp2());
    if (auto e = err.Take(); !e.empty())
      return pnc::Status(pnc::Err::kInternal, e);
    return pnc::Status::Ok();
  }

  bool write_;
  std::vector<double> global_;              ///< the seeded array
  std::vector<std::vector<double>> bufs_;   ///< one buffer per rank
  std::unique_ptr<pfs::FileSystem> fs_;     ///< lbl_read's file system
  double baseline_mbps_ = 0, baseline_host_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeLblWrite() { return std::make_unique<Lbl>(true); }
std::unique_ptr<Workload> MakeLblRead() { return std::make_unique<Lbl>(false); }

}  // namespace perfbench
