#include "netcdf/ncapi.hpp"

#include <cstring>
#include <map>

namespace netcdf::capi {

namespace {

std::map<int, Dataset>& Handles() {
  static std::map<int, Dataset> handles;
  return handles;
}
int& NextId() {
  static int next = 0;
  return next;
}

Dataset* Find(int ncid) {
  auto it = Handles().find(ncid);
  return it == Handles().end() ? nullptr : &it->second;
}

constexpr int kBadId = static_cast<int>(pnc::Err::kBadId);
constexpr int kNotVarErr = static_cast<int>(pnc::Err::kNotVar);
constexpr int kBadTypeErr = static_cast<int>(pnc::Err::kBadType);

std::vector<std::uint64_t> ToU64(const std::size_t* p, std::size_t n) {
  return std::vector<std::uint64_t>(p, p + n);
}

std::vector<std::uint64_t> StrideU64(const std::ptrdiff_t* p, std::size_t n) {
  std::vector<std::uint64_t> v(n, 1);
  if (p)
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint64_t>(p[i]);
  return v;
}

pnc::Result<std::size_t> VarRank(Dataset* ds, int varid) {
  if (varid < 0 || varid >= ds->nvars()) return pnc::Status(pnc::Err::kNotVar);
  return ds->header().vars[static_cast<std::size_t>(varid)].dimids.size();
}

}  // namespace

const char* nc_strerror(int err) {
  return pnc::StrError(static_cast<pnc::Err>(err)).data();
}

// ------------------------------------------------------------------ files

int nc_create(pfs::FileSystem& fs, const char* path, int cmode, int* ncidp) {
  CreateOptions opts;
  opts.clobber = (cmode & NC_NOCLOBBER) == 0;
  opts.use_cdf2 = (cmode & NC_64BIT_OFFSET) != 0;
  auto r = Dataset::Create(fs, path, opts);
  if (!r.ok()) return r.status().raw();
  const int id = NextId()++;
  Handles().emplace(id, std::move(r).value());
  *ncidp = id;
  return NC_NOERR;
}

int nc_open(pfs::FileSystem& fs, const char* path, int omode, int* ncidp) {
  auto r = Dataset::Open(fs, path, (omode & NC_WRITE) != 0);
  if (!r.ok()) return r.status().raw();
  const int id = NextId()++;
  Handles().emplace(id, std::move(r).value());
  *ncidp = id;
  return NC_NOERR;
}

int nc_redef(int ncid) {
  auto* ds = Find(ncid);
  return ds ? ds->Redef().raw() : kBadId;
}
int nc_enddef(int ncid) {
  auto* ds = Find(ncid);
  return ds ? ds->EndDef().raw() : kBadId;
}
int nc_sync(int ncid) {
  auto* ds = Find(ncid);
  return ds ? ds->Sync().raw() : kBadId;
}
int nc_abort(int ncid) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  const int rc = ds->Abort().raw();
  Handles().erase(ncid);
  return rc;
}
int nc_close(int ncid) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  const int rc = ds->Close().raw();
  Handles().erase(ncid);
  return rc;
}

int nc_set_fill(int ncid, int fillmode, int* old_modep) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  if (old_modep) *old_modep = NC_NOFILL;  // default of this library
  return ds->SetFill(fillmode == NC_FILL ? FillMode::kFill : FillMode::kNoFill)
      .raw();
}

// ------------------------------------------------------------ define mode

int nc_def_dim(int ncid, const char* name, std::size_t len, int* idp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->DefDim(name, len);
  if (!r.ok()) return r.status().raw();
  if (idp) *idp = r.value();
  return NC_NOERR;
}

int nc_def_var(int ncid, const char* name, int xtype, int ndims,
               const int* dimids, int* varidp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  if (!ncformat::IsValidType(xtype)) return kBadTypeErr;
  std::vector<std::int32_t> dims(dimids, dimids + ndims);
  auto r = ds->DefVar(name, static_cast<ncformat::NcType>(xtype),
                      std::move(dims));
  if (!r.ok()) return r.status().raw();
  if (varidp) *varidp = r.value();
  return NC_NOERR;
}

int nc_rename_dim(int ncid, int dimid, const char* name) {
  auto* ds = Find(ncid);
  return ds ? ds->RenameDim(dimid, name).raw() : kBadId;
}
int nc_rename_var(int ncid, int varid, const char* name) {
  auto* ds = Find(ncid);
  return ds ? ds->RenameVar(varid, name).raw() : kBadId;
}

// ------------------------------------------------------------- attributes

int nc_put_att_text(int ncid, int varid, const char* name, std::size_t len,
                    const char* op) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  return ds->PutAttText(varid, name, std::string_view(op, len)).raw();
}

int nc_get_att_text(int ncid, int varid, const char* name, char* ip) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->GetAtt(varid, name);
  if (!r.ok()) return r.status().raw();
  if (r.value().type != ncformat::NcType::kChar) return kBadTypeErr;
  std::memcpy(ip, r.value().data.data(), r.value().data.size());
  return NC_NOERR;
}

int nc_put_att_double(int ncid, int varid, const char* name, int xtype,
                      std::size_t len, const double* op) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  if (!ncformat::IsValidType(xtype) || xtype == NC_CHAR) return kBadTypeErr;
  ncformat::Attr a;
  const pnc::Status conv = ncformat::Attr::Convert<double>(
      name, static_cast<ncformat::NcType>(xtype), {op, len}, &a);
  if (!conv.ok() && conv.code() != pnc::Err::kRange) return conv.raw();
  pnc::Status st = ds->PutAtt(varid, std::move(a));
  return st.ok() ? conv.raw() : st.raw();
}

int nc_get_att_double(int ncid, int varid, const char* name, double* ip) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->GetAtt(varid, name);
  if (!r.ok()) return r.status().raw();
  return r.value().ValuesAs<double>({ip, r.value().nelems()}).raw();
}

int nc_inq_att(int ncid, int varid, const char* name, int* xtypep,
               std::size_t* lenp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->GetAtt(varid, name);
  if (!r.ok()) return r.status().raw();
  if (xtypep) *xtypep = static_cast<int>(r.value().type);
  if (lenp) *lenp = r.value().nelems();
  return NC_NOERR;
}

int nc_del_att(int ncid, int varid, const char* name) {
  auto* ds = Find(ncid);
  return ds ? ds->DelAtt(varid, name).raw() : kBadId;
}
int nc_rename_att(int ncid, int varid, const char* name, const char* newname) {
  auto* ds = Find(ncid);
  return ds ? ds->RenameAtt(varid, name, newname).raw() : kBadId;
}

// ---------------------------------------------------------------- inquiry

int nc_inq(int ncid, int* ndimsp, int* nvarsp, int* ngattsp,
           int* unlimdimidp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  if (ndimsp) *ndimsp = ds->ndims();
  if (nvarsp) *nvarsp = ds->nvars();
  if (ngattsp) *ngattsp = ds->ngatts();
  if (unlimdimidp) *unlimdimidp = ds->unlimdim();
  return NC_NOERR;
}

int nc_inq_dimid(int ncid, const char* name, int* idp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->DimId(name);
  if (!r.ok()) return r.status().raw();
  if (idp) *idp = r.value();
  return NC_NOERR;
}

int nc_inq_dim(int ncid, int dimid, char* name, std::size_t* lenp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  const auto& h = ds->header();
  if (dimid < 0 || static_cast<std::size_t>(dimid) >= h.dims.size())
    return static_cast<int>(pnc::Err::kBadDim);
  const auto& d = h.dims[static_cast<std::size_t>(dimid)];
  if (name) std::strcpy(name, d.name.c_str());
  if (lenp) *lenp = d.is_unlimited() ? h.numrecs : d.len;
  return NC_NOERR;
}

int nc_inq_varid(int ncid, const char* name, int* varidp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto r = ds->VarId(name);
  if (!r.ok()) return r.status().raw();
  if (varidp) *varidp = r.value();
  return NC_NOERR;
}

int nc_inq_var(int ncid, int varid, char* name, int* xtypep, int* ndimsp,
               int* dimids, int* nattsp) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  const auto& h = ds->header();
  if (varid < 0 || static_cast<std::size_t>(varid) >= h.vars.size())
    return kNotVarErr;
  const auto& v = h.vars[static_cast<std::size_t>(varid)];
  if (name) std::strcpy(name, v.name.c_str());
  if (xtypep) *xtypep = static_cast<int>(v.type);
  if (ndimsp) *ndimsp = static_cast<int>(v.dimids.size());
  if (dimids)
    for (std::size_t i = 0; i < v.dimids.size(); ++i) dimids[i] = v.dimids[i];
  if (nattsp) *nattsp = static_cast<int>(v.attrs.size());
  return NC_NOERR;
}

// ------------------------------------------------------------ data access

namespace {

template <typename T>
int PutCommon(int ncid, int varid, const std::size_t* start,
              const std::size_t* count, const std::ptrdiff_t* stride,
              const std::ptrdiff_t* imap, const T* op) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  const std::size_t nd = rank.value();
  auto st = ToU64(start, nd);
  auto ct = ToU64(count, nd);
  auto sd = StrideU64(stride, nd);
  const std::uint64_t n = ncformat::AccessElems(ct);
  std::span<const T> data(op, imap ? n : n);
  if (imap) {
    auto im = StrideU64(imap, nd);
    // The caller's buffer extent under imap is unknown; the varm gather
    // indexes only the selected elements, so n elements reachable via imap
    // suffice; we pass a generous span bound.
    return ds->PutVarm<T>(varid, st, ct, sd, im,
                          std::span<const T>(op, SIZE_MAX / sizeof(T)))
        .raw();
  }
  return ds->PutVars<T>(varid, st, ct, sd, data).raw();
}

template <typename T>
int GetCommon(int ncid, int varid, const std::size_t* start,
              const std::size_t* count, const std::ptrdiff_t* stride,
              const std::ptrdiff_t* imap, T* ip) {
  auto* ds = Find(ncid);
  if (!ds) return kBadId;
  auto rank = VarRank(ds, varid);
  if (!rank.ok()) return rank.status().raw();
  const std::size_t nd = rank.value();
  auto st = ToU64(start, nd);
  auto ct = ToU64(count, nd);
  auto sd = StrideU64(stride, nd);
  const std::uint64_t n = ncformat::AccessElems(ct);
  if (imap) {
    auto im = StrideU64(imap, nd);
    return ds->GetVarm<T>(varid, st, ct, sd, im,
                          std::span<T>(ip, SIZE_MAX / sizeof(T)))
        .raw();
  }
  return ds->GetVars<T>(varid, st, ct, sd, std::span<T>(ip, n)).raw();
}

}  // namespace

#define NETCDF_CAPI_DEFINE(SUFFIX, CTYPE)                                     \
  int nc_put_var1_##SUFFIX(int ncid, int varid, const std::size_t* index,     \
                           const CTYPE* op) {                                 \
    auto* ds = Find(ncid);                                                    \
    if (!ds) return kBadId;                                                   \
    auto rank = VarRank(ds, varid);                                           \
    if (!rank.ok()) return rank.status().raw();                               \
    auto idx = ToU64(index, rank.value());                                    \
    return ds->PutVar1<CTYPE>(varid, idx, *op).raw();                         \
  }                                                                           \
  int nc_get_var1_##SUFFIX(int ncid, int varid, const std::size_t* index,     \
                           CTYPE* ip) {                                       \
    auto* ds = Find(ncid);                                                    \
    if (!ds) return kBadId;                                                   \
    auto rank = VarRank(ds, varid);                                           \
    if (!rank.ok()) return rank.status().raw();                               \
    auto idx = ToU64(index, rank.value());                                    \
    return ds->GetVar1<CTYPE>(varid, idx, *ip).raw();                         \
  }                                                                           \
  int nc_put_var_##SUFFIX(int ncid, int varid, const CTYPE* op) {             \
    auto* ds = Find(ncid);                                                    \
    if (!ds) return kBadId;                                                   \
    auto rank = VarRank(ds, varid);                                           \
    if (!rank.ok()) return rank.status().raw();                               \
    const std::uint64_t n =                                                   \
        pnc::ShapeProduct(ds->header().VarShape(varid));                      \
    return ds->PutVar<CTYPE>(varid, std::span<const CTYPE>(op, n)).raw();     \
  }                                                                           \
  int nc_get_var_##SUFFIX(int ncid, int varid, CTYPE* ip) {                   \
    auto* ds = Find(ncid);                                                    \
    if (!ds) return kBadId;                                                   \
    auto rank = VarRank(ds, varid);                                           \
    if (!rank.ok()) return rank.status().raw();                               \
    const std::uint64_t n =                                                   \
        pnc::ShapeProduct(ds->header().VarShape(varid));                      \
    return ds->GetVar<CTYPE>(varid, std::span<CTYPE>(ip, n)).raw();           \
  }                                                                           \
  int nc_put_vara_##SUFFIX(int ncid, int varid, const std::size_t* start,     \
                           const std::size_t* count, const CTYPE* op) {       \
    return PutCommon<CTYPE>(ncid, varid, start, count, nullptr, nullptr, op); \
  }                                                                           \
  int nc_get_vara_##SUFFIX(int ncid, int varid, const std::size_t* start,     \
                           const std::size_t* count, CTYPE* ip) {             \
    return GetCommon<CTYPE>(ncid, varid, start, count, nullptr, nullptr, ip); \
  }                                                                           \
  int nc_put_vars_##SUFFIX(int ncid, int varid, const std::size_t* start,     \
                           const std::size_t* count,                          \
                           const std::ptrdiff_t* stride, const CTYPE* op) {   \
    return PutCommon<CTYPE>(ncid, varid, start, count, stride, nullptr, op);  \
  }                                                                           \
  int nc_get_vars_##SUFFIX(int ncid, int varid, const std::size_t* start,     \
                           const std::size_t* count,                          \
                           const std::ptrdiff_t* stride, CTYPE* ip) {         \
    return GetCommon<CTYPE>(ncid, varid, start, count, stride, nullptr, ip);  \
  }                                                                           \
  int nc_put_varm_##SUFFIX(int ncid, int varid, const std::size_t* start,     \
                           const std::size_t* count,                          \
                           const std::ptrdiff_t* stride,                      \
                           const std::ptrdiff_t* imap, const CTYPE* op) {     \
    return PutCommon<CTYPE>(ncid, varid, start, count, stride, imap, op);     \
  }                                                                           \
  int nc_get_varm_##SUFFIX(int ncid, int varid, const std::size_t* start,     \
                           const std::size_t* count,                          \
                           const std::ptrdiff_t* stride,                      \
                           const std::ptrdiff_t* imap, CTYPE* ip) {           \
    return GetCommon<CTYPE>(ncid, varid, start, count, stride, imap, ip);     \
  }

NETCDF_CAPI_DEFINE(text, char)
NETCDF_CAPI_DEFINE(schar, signed char)
NETCDF_CAPI_DEFINE(short, short)
NETCDF_CAPI_DEFINE(int, int)
NETCDF_CAPI_DEFINE(float, float)
NETCDF_CAPI_DEFINE(double, double)
#undef NETCDF_CAPI_DEFINE

}  // namespace netcdf::capi
