// The strongest interoperability property in the repository: for randomized
// schemas and data, a dataset written through the PARALLEL library (with the
// writes partitioned across ranks, through two-phase collective I/O, type
// conversion, record interleaving — the whole stack) must be BYTE-IDENTICAL
// to the same dataset written through the SERIAL library by one process.
//
// "our parallel netCDF design retains the original netCDF file format" (§4)
// is tested here literally, not structurally.
#include <gtest/gtest.h>

#include "netcdf/ncapi.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "pnetcdf/ncmpi.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"

namespace {

using ncformat::NcType;

struct Schema {
  struct VarSpec {
    std::string name;
    NcType type;
    std::vector<std::int32_t> dimids;
  };
  std::vector<ncformat::Dim> dims;
  std::vector<VarSpec> vars;
  std::uint64_t nrecs = 0;
};

Schema RandomSchema(pnc::SplitMix64& rng) {
  Schema s;
  const bool unlimited = rng.Below(2) == 1;
  const int ndims = 2 + static_cast<int>(rng.Below(2));  // 2..3 fixed dims
  if (unlimited) s.dims.push_back({"time", ncformat::kUnlimitedLen});
  for (int d = 0; d < ndims; ++d)
    s.dims.push_back({std::string("dim").append(std::to_string(d)),
                      4 * (1 + rng.Below(3))});  // 4, 8, or 12
  const int nvars = 1 + static_cast<int>(rng.Below(4));
  for (int v = 0; v < nvars; ++v) {
    Schema::VarSpec var;
    var.name = std::string("v").append(std::to_string(v));
    // Numeric types only; char follows a different value model.
    const NcType types[] = {NcType::kByte, NcType::kShort, NcType::kInt,
                            NcType::kFloat, NcType::kDouble};
    var.type = types[rng.Below(5)];
    const bool record = unlimited && rng.Below(2) == 1;
    if (record) var.dimids.push_back(0);
    const int extra = 1 + static_cast<int>(rng.Below(2));
    for (int d = 0; d < extra; ++d)
      var.dimids.push_back(static_cast<std::int32_t>(
          (unlimited ? 1 : 0) + rng.Below(static_cast<std::uint64_t>(ndims))));
    s.vars.push_back(std::move(var));
  }
  s.nrecs = unlimited ? 1 + rng.Below(4) : 0;
  return s;
}

/// Deterministic value for element i of variable v — both writers use this.
double ValueAt(int v, std::uint64_t i) {
  return static_cast<double>((v + 1) * 7 + static_cast<double>(i % 97));
}

template <typename DS>
void Define(DS& ds, const Schema& s) {
  for (const auto& d : s.dims) ASSERT_TRUE(ds.DefDim(d.name, d.len).ok());
  for (const auto& v : s.vars)
    ASSERT_TRUE(ds.DefVar(v.name, v.type, v.dimids).ok());
  ASSERT_TRUE(ds.PutAttText(-1, "writer", "equiv-test").ok());
  ASSERT_TRUE(ds.EndDef().ok());
}

std::vector<std::byte> Bytes(pfs::FileSystem& fs, const std::string& path) {
  auto f = fs.Open(path).value();
  std::vector<std::byte> out(f.size());
  f.HarnessRead(0, out, 0.0);
  return out;
}

class EquivP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EquivP, ParallelFileEqualsSerialFile) {
  pnc::SplitMix64 rng(GetParam());
  const Schema schema = RandomSchema(rng);
  const int nprocs = 1 << rng.Below(3);  // 1, 2, or 4

  pfs::FileSystem fs;

  // ---- serial reference ----
  {
    auto ds = netcdf::Dataset::Create(fs, "serial.nc").value();
    Define(ds, schema);
    for (std::size_t v = 0; v < schema.vars.size(); ++v) {
      auto shape = ds.header().VarShape(static_cast<int>(v));
      if (ds.header().IsRecordVar(static_cast<int>(v)))
        shape[0] = schema.nrecs;
      const std::uint64_t n = pnc::ShapeProduct(shape);
      std::vector<double> vals(n);
      for (std::uint64_t i = 0; i < n; ++i)
        vals[i] = ValueAt(static_cast<int>(v), i);
      std::vector<std::uint64_t> start(shape.size(), 0);
      ASSERT_TRUE(ds.PutVara<double>(static_cast<int>(v), start, shape, vals)
                      .ok());
    }
    ASSERT_TRUE(ds.Close().ok());
  }

  // ---- parallel writer: same schema, writes partitioned over the first
  //      dimension (block for fixed vars, record-by-record round-robin for
  //      record vars) ----
  simmpi::Run(nprocs, [&](simmpi::Comm& c) {
    auto ds = pnetcdf::Dataset::Create(c, fs, "parallel.nc",
                                       simmpi::NullInfo())
                  .value();
    Define(ds, schema);
    for (std::size_t v = 0; v < schema.vars.size(); ++v) {
      auto shape = ds.header().VarShape(static_cast<int>(v));
      const bool rec = ds.header().IsRecordVar(static_cast<int>(v));
      if (rec) shape[0] = schema.nrecs;
      if (shape.empty()) continue;
      std::uint64_t inner = 1;
      for (std::size_t d = 1; d < shape.size(); ++d) inner *= shape[d];

      // Slab partition of dimension 0, remainder to the last rank; some
      // ranks may hold nothing — the collective still completes.
      const std::uint64_t d0 = shape[0];
      const std::uint64_t per =
          (d0 + static_cast<std::uint64_t>(c.size()) - 1) /
          static_cast<std::uint64_t>(c.size());
      const std::uint64_t lo =
          std::min(d0, per * static_cast<std::uint64_t>(c.rank()));
      const std::uint64_t hi = std::min(d0, lo + per);

      std::vector<std::uint64_t> start(shape.size(), 0), count = shape;
      start[0] = lo;
      count[0] = hi - lo;
      std::vector<double> vals(count[0] * inner);
      for (std::uint64_t i = 0; i < vals.size(); ++i)
        vals[i] = ValueAt(static_cast<int>(v), lo * inner + i);
      ASSERT_TRUE(ds.PutVaraAll<double>(static_cast<int>(v), start, count,
                                        vals)
                      .ok());
    }
    ASSERT_TRUE(ds.Close().ok());
  });

  // ---- the property ----
  const auto a = Bytes(fs, "serial.nc");
  const auto b = Bytes(fs, "parallel.nc");
  ASSERT_EQ(a.size(), b.size()) << "file sizes differ (seed " << GetParam()
                                << ", nprocs " << nprocs << ")";
  EXPECT_EQ(a, b) << "file bytes differ (seed " << GetParam() << ", nprocs "
                  << nprocs << ")";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivP, ::testing::Range<std::uint64_t>(1, 41));

// ---- Redef after data exists: both libraries relayout identically ----
//
// A second definition phase adds a variable and grows a global attribute
// past the old data_begin, so the fixed and the record data both move. The
// serial library copies move by move; PnetCDF slices each move across its
// ranks. The files must still be byte-identical.

constexpr std::uint64_t kRows = 12, kCols = 10, kRecs = 3;

/// Rank `rank` of `nprocs`'s slab of [0, n) (remainder to the low ranks).
std::pair<std::uint64_t, std::uint64_t> Slab(std::uint64_t n, int rank,
                                             int nprocs) {
  const auto p = static_cast<std::uint64_t>(nprocs);
  const auto r = static_cast<std::uint64_t>(rank);
  const std::uint64_t lo = r * (n / p) + std::min(r, n % p);
  return {lo, n / p + (r < n % p ? 1 : 0)};
}

/// Both phases on any dataset type; `put(varid, start, count, vals)` is
/// the library's (collective, for PnetCDF) vara write of this rank's part.
template <typename DS, typename Put>
void RedefWorkload(DS& ds, int rank, int nprocs, Put put) {
  const int t = ds.DefDim("time", ncformat::kUnlimitedLen).value();
  const int y = ds.DefDim("y", kRows).value();
  const int x = ds.DefDim("x", kCols).value();
  const int a = ds.DefVar("a", NcType::kFloat, {y, x}).value();
  const int r = ds.DefVar("r", NcType::kShort, {t, x}).value();
  ASSERT_TRUE(ds.PutAttText(-1, "note", "short").ok());
  ASSERT_TRUE(ds.EndDef().ok());
  const auto write = [&](int v, std::uint64_t n0, std::uint64_t inner,
                         double base) {
    const auto [lo, cnt] = Slab(n0, rank, nprocs);
    std::vector<double> vals(cnt * inner);
    for (std::uint64_t i = 0; i < vals.size(); ++i)
      vals[i] = base + static_cast<double>(lo * inner + i);
    const std::uint64_t start[] = {lo, 0}, count[] = {cnt, inner};
    put(v, start, count, vals);
  };
  write(a, kRows, kCols, 0.5);
  write(r, kRecs, kCols, 100);

  ASSERT_TRUE(ds.Redef().ok());
  const int b = ds.DefVar("b", NcType::kInt, {y, x}).value();
  ASSERT_TRUE(ds.PutAttText(-1, "note", std::string(300, 'n')).ok());
  ASSERT_TRUE(ds.EndDef().ok());
  write(b, kRows, kCols, 7);
  write(r, kRecs + 1, kCols, 200);
  ASSERT_TRUE(ds.Close().ok());
}

class RedefEquivP : public ::testing::TestWithParam<int> {};

TEST_P(RedefEquivP, GrownHeaderRelayoutIsByteIdentical) {
  const int nprocs = GetParam();
  pfs::FileSystem fs;
  {
    auto ds = netcdf::Dataset::Create(fs, "serial.nc").value();
    RedefWorkload(ds, 0, 1,
                  [&](int v, std::span<const std::uint64_t> st,
                      std::span<const std::uint64_t> ct,
                      const std::vector<double>& vals) {
                    ASSERT_TRUE(ds.PutVara<double>(v, st, ct, vals).ok());
                  });
  }
  simmpi::Run(nprocs, [&](simmpi::Comm& c) {
    auto ds = pnetcdf::Dataset::Create(c, fs, "parallel.nc",
                                       simmpi::NullInfo())
                  .value();
    RedefWorkload(ds, c.rank(), c.size(),
                  [&](int v, std::span<const std::uint64_t> st,
                      std::span<const std::uint64_t> ct,
                      const std::vector<double>& vals) {
                    ASSERT_TRUE(ds.PutVaraAll<double>(v, st, ct, vals).ok());
                  });
  });
  // The grown attribute really pushed the data region.
  const auto a = Bytes(fs, "serial.nc");
  const auto h = ncformat::Header::Decode(a).value();
  EXPECT_GT(h.vars[0].begin, 300u);
  EXPECT_EQ(h.numrecs, kRecs + 1);
  EXPECT_EQ(a, Bytes(fs, "parallel.nc")) << "nprocs " << nprocs;
}

INSTANTIATE_TEST_SUITE_P(Procs, RedefEquivP, ::testing::Values(1, 3, 4));

// ---- invalid define-mode and attribute calls: one set of error codes ----

/// Every call of the table, in order, on a fresh dataset; the status codes.
template <typename DS>
std::vector<int> InvalidCallCodes(DS& ds) {
  std::vector<int> codes;
  const auto code = [&](const auto& r) {
    if constexpr (std::is_same_v<std::decay_t<decltype(r)>, pnc::Status>)
      codes.push_back(r.raw());
    else
      codes.push_back(r.status().raw());
  };
  const int t = ds.DefDim("time", ncformat::kUnlimitedLen).value();
  const int x = ds.DefDim("x", 4).value();
  code(ds.DefDim("x", 8));                                  // duplicate name
  code(ds.DefDim("time2", ncformat::kUnlimitedLen));        // 2nd unlimited
  code(ds.DefVar("bad_pos", NcType::kInt, {x, t}));         // unlimited not 1st
  code(ds.DefVar("bad_dim", NcType::kInt, {x, 7}));         // bad dimid
  code(ds.DefVar("bad_type", static_cast<NcType>(9), {x}));  // bad type
  const int v = ds.DefVar("v", NcType::kInt, {t, x}).value();
  code(ds.DefVar("v", NcType::kInt, {x}));                  // duplicate var
  code(ds.RenameDim(5, "z"));                               // bad dimid
  code(ds.RenameDim(x, "time"));                            // name in use
  code(ds.RenameVar(3, "w"));                               // bad varid
  code(ds.PutAttText(4, "units", "m"));                     // bad varid
  code(ds.GetAtt(v, "missing"));                            // no such att
  code(ds.DelAtt(v, "missing"));                            // no such att
  EXPECT_TRUE(ds.PutAttText(v, "units", "m").ok());
  EXPECT_TRUE(ds.EndDef().ok());
  code(ds.PutAttText(v, "units", "km"));                    // grows: refused
  code(ds.PutAttText(v, "other", "x"));                     // new: refused
  const std::int32_t one = 1;
  code(ds.PutAttValues(v, "units", NcType::kInt,
                       std::span<const std::int32_t>(&one, 1)));  // retype
  code(ds.PutAttText(v, "units", "s"));                     // same size: ok
  code(ds.DefDim("late", 2));                               // data mode
  code(ds.DelAtt(v, "units"));                              // data mode
  code(ds.RenameVar(v, "w"));                               // data mode
  return codes;
}

TEST(InvalidCallEquiv, SerialAndParallelReturnTheSameCodes) {
  pfs::FileSystem fs;
  auto sds = netcdf::Dataset::Create(fs, "serial.nc").value();
  const std::vector<int> serial = InvalidCallCodes(sds);
  ASSERT_TRUE(sds.Close().ok());
  // A sample of the expected codes (the rest are pinned by equality).
  ASSERT_EQ(serial.size(), 19u);
  EXPECT_EQ(serial[0], static_cast<int>(pnc::Err::kNameInUse));
  EXPECT_EQ(serial[1], static_cast<int>(pnc::Err::kUnlimit));
  EXPECT_EQ(serial[2], static_cast<int>(pnc::Err::kUnlimPos));
  EXPECT_EQ(serial[3], static_cast<int>(pnc::Err::kBadDim));
  EXPECT_EQ(serial[12], static_cast<int>(pnc::Err::kNotInDefine));
  EXPECT_EQ(serial[15], 0);
  simmpi::Run(2, [&](simmpi::Comm& c) {
    auto pds = pnetcdf::Dataset::Create(c, fs, "parallel.nc",
                                        simmpi::NullInfo())
                   .value();
    EXPECT_EQ(InvalidCallCodes(pds), serial) << "rank " << c.rank();
    ASSERT_TRUE(pds.Close().ok());
  });
}

// ---- numeric attribute conversion through both C interfaces ----

/// The attribute `name` as the file stores it (type + host-order values).
ncformat::Attr StoredAttr(pfs::FileSystem& fs, const char* path,
                          const char* name) {
  auto ds = netcdf::Dataset::Open(fs, path, /*writable=*/false).value();
  return ds.GetAtt(netcdf::kGlobal, name).value();
}

TEST(AttrConvertEquiv, PutAttDoubleNarrowsIdentically) {
  namespace nc = netcdf::capi;
  namespace ncmpi = pnetcdf::capi;
  const int kRange = static_cast<int>(pnc::Err::kRange);
  struct Case {
    int xtype;
    std::vector<double> vals;
    int want;  ///< status both calls must return
  };
  const Case cases[] = {
      {nc::NC_FLOAT, {1e40, -2.5, 3.0e38}, kRange},
      {nc::NC_FLOAT, {-1e300, 0.0}, kRange},
      {nc::NC_SHORT, {1.7, -2.9, 32767.0, -32768.0}, nc::NC_NOERR},
      {nc::NC_SHORT, {40000.0, 5.0, -40000.5}, kRange},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    const Case& k = cases[i];
    pfs::FileSystem fs;
    int ncid = 0;
    ASSERT_EQ(nc::nc_create(fs, "s.nc", nc::NC_CLOBBER, &ncid), nc::NC_NOERR);
    EXPECT_EQ(nc::nc_put_att_double(ncid, nc::NC_GLOBAL, "a", k.xtype,
                                    k.vals.size(), k.vals.data()),
              k.want)
        << "case " << i;
    ASSERT_EQ(nc::nc_close(ncid), nc::NC_NOERR);
    simmpi::Run(2, [&](simmpi::Comm& c) {
      int id = 0;
      ASSERT_EQ(ncmpi::ncmpi_create(c, fs, "p.nc", ncmpi::NC_CLOBBER,
                                    simmpi::NullInfo(), &id),
                ncmpi::NC_NOERR);
      EXPECT_EQ(ncmpi::ncmpi_put_att_double(
                    id, ncmpi::NC_GLOBAL, "a", k.xtype,
                    static_cast<ncmpi::MPI_Offset>(k.vals.size()),
                    k.vals.data()),
                k.want)
          << "case " << i;
      ASSERT_EQ(ncmpi::ncmpi_close(id), ncmpi::NC_NOERR);
    });
    const ncformat::Attr s = StoredAttr(fs, "s.nc", "a");
    const ncformat::Attr p = StoredAttr(fs, "p.nc", "a");
    EXPECT_EQ(static_cast<int>(s.type), k.xtype) << "case " << i;
    EXPECT_EQ(s.type, p.type) << "case " << i;
    EXPECT_EQ(s.data, p.data) << "case " << i;
  }
}

}  // namespace
