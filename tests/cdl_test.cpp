// Tests for the CDL tools: dump formatting, parser coverage, error handling,
// and the ncgen(ncdump(f)) == f round-trip property.
#include "tools/cdl.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "util/rng.hpp"

namespace nctools {
namespace {

using ncformat::NcType;

netcdf::Dataset MakeSample(pfs::FileSystem& fs) {
  auto ds = netcdf::Dataset::Create(fs, "sample.nc").value();
  const int t = ds.DefDim("time", netcdf::kUnlimited).value();
  const int lat = ds.DefDim("lat", 2).value();
  const int lon = ds.DefDim("lon", 3).value();
  const int temp = ds.DefVar("temp", NcType::kFloat, {t, lat, lon}).value();
  const int elev = ds.DefVar("elev", NcType::kShort, {lat, lon}).value();
  const int tag = ds.DefVar("tag", NcType::kChar, {lon}).value();
  EXPECT_TRUE(ds.PutAttText(netcdf::kGlobal, "title", "cdl test").ok());
  EXPECT_TRUE(ds.PutAttText(temp, "units", "K").ok());
  const double vr[] = {-50.0, 50.0};
  EXPECT_TRUE(
      ds.PutAttValues<double>(temp, "valid_range", NcType::kDouble, vr).ok());
  const std::int32_t missing[] = {-999};
  EXPECT_TRUE(
      ds.PutAttValues<std::int32_t>(elev, "missing", NcType::kInt, missing)
          .ok());
  EXPECT_TRUE(ds.EndDef().ok());

  std::vector<float> tv(2 * 2 * 3);
  std::iota(tv.begin(), tv.end(), 1.5f);
  EXPECT_TRUE(ds.PutVar<float>(temp, tv).ok());
  std::vector<std::int16_t> ev{10, 20, 30, 40, 50, 60};
  EXPECT_TRUE(ds.PutVar<std::int16_t>(elev, ev).ok());
  const std::string s = "abc";
  EXPECT_TRUE(ds.PutVar<char>(tag, {s.data(), 3}).ok());
  return ds;
}

TEST(Dump, HeaderFormatting) {
  pfs::FileSystem fs;
  auto ds = MakeSample(fs);
  auto cdl = DumpCdl(ds, "sample", /*with_data=*/false).value();
  EXPECT_NE(cdl.find("netcdf sample {"), std::string::npos);
  EXPECT_NE(cdl.find("time = UNLIMITED ; // (2 currently)"),
            std::string::npos);
  EXPECT_NE(cdl.find("lat = 2 ;"), std::string::npos);
  EXPECT_NE(cdl.find("float temp(time, lat, lon) ;"), std::string::npos);
  EXPECT_NE(cdl.find("temp:units = \"K\" ;"), std::string::npos);
  EXPECT_NE(cdl.find(":title = \"cdl test\" ;"), std::string::npos);
  EXPECT_EQ(cdl.find("data:"), std::string::npos);
}

TEST(Dump, DataSectionTyped) {
  pfs::FileSystem fs;
  auto ds = MakeSample(fs);
  auto cdl = DumpCdl(ds, "sample", /*with_data=*/true).value();
  EXPECT_NE(cdl.find("data:"), std::string::npos);
  EXPECT_NE(cdl.find("1.5f"), std::string::npos);   // float suffix
  EXPECT_NE(cdl.find("10s"), std::string::npos);    // short suffix
  EXPECT_NE(cdl.find("tag = \"abc\""), std::string::npos);
}

TEST(Generate, SchemaAndData) {
  const char* cdl = R"(
netcdf fromcdl {
dimensions:
	time = UNLIMITED ; // (2 currently)
	x = 3 ;
variables:
	double series(time, x) ;
		series:units = "m" ;
		series:scale = 2.5, 3.5 ;
	int counts(x) ;
	char label(x) ;
	// a comment to skip
	:history = "made by ncgen" ;
data:

 series = 1., 2., 3., 4., 5., 6. ;

 counts = 7, 8, 9 ;

 label = "hi!" ;
}
)";
  pfs::FileSystem fs;
  ASSERT_TRUE(GenerateFromCdl(fs, "g.nc", cdl).ok());

  auto ds = netcdf::Dataset::Open(fs, "g.nc", false).value();
  EXPECT_EQ(ds.ndims(), 2);
  EXPECT_EQ(ds.numrecs(), 2u);
  EXPECT_EQ(ds.GetAtt(netcdf::kGlobal, "history").value().AsText(),
            "made by ncgen");
  const int series = ds.VarId("series").value();
  EXPECT_EQ(ds.GetAtt(series, "units").value().AsText(), "m");
  auto scale = ds.GetAtt(series, "scale").value();
  EXPECT_EQ(scale.type, NcType::kDouble);
  EXPECT_EQ(scale.nelems(), 2u);
  std::vector<double> sv(6);
  ASSERT_TRUE(ds.GetVar<double>(series, sv).ok());
  EXPECT_EQ(sv, (std::vector<double>{1, 2, 3, 4, 5, 6}));
  std::vector<std::int32_t> cv(3);
  ASSERT_TRUE(ds.GetVar<std::int32_t>(ds.VarId("counts").value(), cv).ok());
  EXPECT_EQ(cv, (std::vector<std::int32_t>{7, 8, 9}));
  std::vector<char> lv(3);
  ASSERT_TRUE(ds.GetVar<char>(ds.VarId("label").value(), lv).ok());
  EXPECT_EQ(std::string(lv.data(), 3), "hi!");
}

TEST(Generate, TypeSuffixesInferAttrTypes) {
  const char* cdl = R"(
netcdf types {
dimensions:
	x = 1 ;
variables:
	byte b(x) ;
		b:bytes = 1b, 2b ;
		b:shorts = 1s ;
		b:floats = 1.5f ;
		b:ints = 42 ;
		b:doubles = 2.5 ;
}
)";
  pfs::FileSystem fs;
  ASSERT_TRUE(GenerateFromCdl(fs, "t.nc", cdl).ok());
  auto ds = netcdf::Dataset::Open(fs, "t.nc", false).value();
  const int b = ds.VarId("b").value();
  EXPECT_EQ(ds.GetAtt(b, "bytes").value().type, NcType::kByte);
  EXPECT_EQ(ds.GetAtt(b, "shorts").value().type, NcType::kShort);
  EXPECT_EQ(ds.GetAtt(b, "floats").value().type, NcType::kFloat);
  EXPECT_EQ(ds.GetAtt(b, "ints").value().type, NcType::kInt);
  EXPECT_EQ(ds.GetAtt(b, "doubles").value().type, NcType::kDouble);
}

TEST(Generate, ParseErrorsReported) {
  pfs::FileSystem fs;
  EXPECT_FALSE(GenerateFromCdl(fs, "bad1.nc", "nonsense { }").ok());
  EXPECT_FALSE(GenerateFromCdl(fs, "bad2.nc", "netcdf x {").ok());
  EXPECT_FALSE(
      GenerateFromCdl(fs, "bad3.nc",
                      "netcdf x { variables: double v(missing) ; }")
          .ok());
}

TEST(RoundTrip, GenerateDumpGenerate) {
  pfs::FileSystem fs;
  auto ds = MakeSample(fs);
  auto cdl1 = DumpCdl(ds, "sample", true).value();
  ASSERT_TRUE(GenerateFromCdl(fs, "copy.nc", cdl1).ok());
  auto copy = netcdf::Dataset::Open(fs, "copy.nc", false).value();
  auto cdl2 = DumpCdl(copy, "sample", true).value();
  EXPECT_EQ(cdl1, cdl2);
  // And the headers agree structurally (begins may differ only if layout
  // rules differed — they must not).
  EXPECT_EQ(copy.header(), ds.header());
}

class RoundTripFuzzP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripFuzzP, RandomDatasetsSurviveTheLoop) {
  pnc::SplitMix64 rng(GetParam());
  pfs::FileSystem fs;
  auto ds = netcdf::Dataset::Create(fs, "fuzz.nc").value();
  const int ndims = 1 + static_cast<int>(rng.Below(3));
  std::vector<std::int32_t> dimids;
  for (int d = 0; d < ndims; ++d)
    dimids.push_back(
        ds.DefDim(std::string("d").append(std::to_string(d)), 1 + rng.Below(4)).value());
  const int nvars = 1 + static_cast<int>(rng.Below(4));
  for (int v = 0; v < nvars; ++v) {
    const auto type = static_cast<NcType>(1 + rng.Below(6));
    std::vector<std::int32_t> vd(dimids.begin(),
                                 dimids.begin() + 1 + rng.Below(ndims));
    (void)ds.DefVar(std::string("v").append(std::to_string(v)), type, vd);
  }
  ASSERT_TRUE(ds.EndDef().ok());
  for (int v = 0; v < nvars; ++v) {
    const auto& var = ds.header().vars[static_cast<std::size_t>(v)];
    const std::uint64_t n = pnc::ShapeProduct(ds.header().VarShape(v));
    if (var.type == NcType::kChar) {
      std::vector<char> text(n);
      for (auto& c : text) c = static_cast<char>('a' + rng.Below(26));
      ASSERT_TRUE(ds.PutVar<char>(v, text).ok());
    } else {
      std::vector<double> vals(n);
      for (auto& x : vals) x = static_cast<double>(rng.Below(100));
      ASSERT_TRUE(ds.PutVar<double>(v, vals).ok());
    }
  }
  auto cdl1 = DumpCdl(ds, "fuzz", true).value();
  ASSERT_TRUE(GenerateFromCdl(fs, "fuzz2.nc", cdl1).ok()) << cdl1;
  auto copy = netcdf::Dataset::Open(fs, "fuzz2.nc", false).value();
  EXPECT_EQ(DumpCdl(copy, "fuzz", true).value(), cdl1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzzP,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace nctools
