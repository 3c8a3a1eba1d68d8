// The netCDF classic file header: model, serialization, and layout.
//
// Paper §3.1: "Physically, the dataset file is divided into two parts: file
// header and array data. The header contains all information (or metadata)
// about dimensions, attributes, and variables except for the variable data
// itself." This module implements the CDF-1 (classic) and CDF-2 (64-bit
// offset) grammars:
//
//   header  := magic numrecs dim_list gatt_list var_list
//   magic   := 'C' 'D' 'F' version        (version 1 or 2)
//   dim     := name length                (length 0 marks the record dim)
//   attr    := name nc_type nelems values (values padded to 4 bytes)
//   var     := name ndims dimid* vatt_list nc_type vsize begin
//
// plus the layout rules that place fixed-size arrays contiguously after the
// header and interleave record variables' records after them (Figure 1).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "format/convert.hpp"
#include "format/types.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"
#include "util/xdr.hpp"

namespace ncformat {

/// Dimension length value marking the unlimited (record) dimension.
constexpr std::uint64_t kUnlimitedLen = 0;
/// File offset of the header's numrecs field.
constexpr std::uint64_t kNumrecsOffset = 4;
/// The varid naming the global attribute list (NC_GLOBAL).
constexpr int kGlobal = -1;

/// Classic-format limits (from netcdf.h).
constexpr std::size_t kMaxName = 256;
constexpr std::size_t kMaxDims = 1024;
constexpr std::size_t kMaxVars = 8192;
constexpr std::size_t kMaxAttrs = 8192;
constexpr std::size_t kMaxVarDims = 1024;

struct Dim {
  std::string name;
  std::uint64_t len = 0;  ///< kUnlimitedLen (0) for the record dimension

  [[nodiscard]] bool is_unlimited() const { return len == kUnlimitedLen; }
};

/// An attribute: name + typed value array (held in host byte order; the
/// codec converts to/from the big-endian on-disk form).
struct Attr {
  std::string name;
  NcType type = NcType::kByte;
  std::vector<std::byte> data;  ///< host-order packed values

  [[nodiscard]] std::uint64_t nelems() const {
    return data.size() / TypeSize(type);
  }

  static Attr Text(std::string name, std::string_view value);
  template <typename T>
  static Attr Numeric(std::string name, NcType type, std::span<const T> values);
  /// A numeric attribute of external type `type` from host values of T,
  /// narrowed with netCDF range semantics: kRange comes back with the
  /// completed attribute (values cast, as the reference library stores
  /// them); text or a bad type is kBadType and leaves `out` untouched.
  template <typename T>
  static pnc::Status Convert(std::string name, NcType type,
                             std::span<const T> values, Attr* out);

  [[nodiscard]] std::string AsText() const;
  /// The values as T (nelems() of them): kBadType for text, kRange when a
  /// value does not fit T (the conversion still completes).
  template <typename T>
  pnc::Status ValuesAs(std::span<T> out) const;
};

/// Host-order packed attribute values <-> their external (big-endian)
/// bytes, host.size() bytes either way. The one conversion behind the
/// header codec and the typed numeric attribute calls of both libraries.
void AttrValuesToExternal(NcType type, pnc::ConstByteSpan host,
                          std::byte* ext);
void AttrValuesFromExternal(NcType type, const std::byte* ext,
                            pnc::ByteSpan host);

struct Var {
  std::string name;
  std::vector<std::int32_t> dimids;
  std::vector<Attr> attrs;
  NcType type = NcType::kByte;

  // Layout (computed by Header::ComputeLayout, read from file on open).
  std::uint64_t vsize = 0;  ///< bytes per variable (per record if record var)
  std::uint64_t begin = 0;  ///< file offset of first byte (of first record)
};

/// The complete in-memory header of an open dataset. Both the serial and
/// the parallel library keep one of these per open file ("a copy is cached
/// in local memory on each process", paper §4.2.1).
struct Header {
  int version = 2;  ///< 1 = CDF-1 (32-bit begins), 2 = CDF-2 (64-bit begins)
  std::uint64_t numrecs = 0;
  std::vector<Dim> dims;
  std::vector<Attr> gatts;
  std::vector<Var> vars;

  // ---- queries ----
  [[nodiscard]] int unlimited_dimid() const;
  [[nodiscard]] int FindDim(std::string_view name) const;
  [[nodiscard]] int FindVar(std::string_view name) const;
  /// Id lookups with the interface's codes (kBadDim / kNotVar).
  [[nodiscard]] pnc::Result<int> DimId(std::string_view name) const;
  [[nodiscard]] pnc::Result<int> VarId(std::string_view name) const;
  /// The variable's name, empty for an invalid id (request attribution).
  [[nodiscard]] std::string_view VarName(int varid) const;
  [[nodiscard]] bool IsRecordVar(int varid) const;
  /// Dimension lengths of a variable, record dim included as current numrecs.
  [[nodiscard]] std::vector<std::uint64_t> VarShape(int varid) const;
  /// Elements per variable instance (per record for record variables).
  [[nodiscard]] std::uint64_t VarInstanceElems(int varid) const;
  /// The shape a whole-variable put of `nelems` values writes: VarShape,
  /// except that a record variable's record count is inferred from the
  /// data size, as the reference library does.
  [[nodiscard]] std::vector<std::uint64_t> PutVarShape(
      int varid, std::uint64_t nelems) const;
  /// Bytes between the starts of consecutive records (the interleaved record
  /// slab size; Figure 1). Includes the single-record-variable special case.
  [[nodiscard]] std::uint64_t recsize() const;
  /// File offset where the data section begins (== encoded header size).
  [[nodiscard]] std::uint64_t data_begin() const;
  /// Total file bytes implied by the header (fixed part + numrecs records).
  [[nodiscard]] std::uint64_t FileSize() const;
  /// The encoded numrecs field, rewritten in place at kNumrecsOffset when
  /// the record count grows in data mode.
  [[nodiscard]] std::array<std::byte, 4> NumrecsField() const;

  // ---- define mode and attributes ----
  // The classic interface's rules, shared by the serial and the parallel
  // library (paper §4.1: PnetCDF keeps the serial define-mode and attribute
  // semantics). Callers check their own session state (define mode,
  // writable) first; these return the same pnc::Err codes from both.
  pnc::Result<int> DefDim(const std::string& name, std::uint64_t len);
  pnc::Result<int> DefVar(const std::string& name, NcType type,
                          std::vector<std::int32_t> dimids);
  pnc::Status RenameDim(int dimid, const std::string& name);
  pnc::Status RenameVar(int varid, const std::string& name);
  /// Create or replace attribute `att` of `varid` (kGlobal for the global
  /// list). Outside define mode only replacing an existing attribute with
  /// one of the same type and no more bytes is allowed — the header cannot
  /// grow without a relayout — and the caller rewrites the header.
  pnc::Status PutAtt(int varid, Attr att, bool define_mode);
  pnc::Result<Attr> GetAtt(int varid, std::string_view name) const;
  pnc::Status DelAtt(int varid, std::string_view name);
  pnc::Status RenameAtt(int varid, std::string_view old_name,
                        const std::string& new_name);

  // ---- validation & layout ----
  /// Check naming rules, dimension/variable constraints, and format limits.
  [[nodiscard]] pnc::Status Validate() const;
  /// Compute vsize/begin for every variable. `min_data_begin` reserves
  /// header space (used to avoid moving data when re-entering define mode
  /// grows the header). Fails if CDF-1 offsets overflow 32 bits.
  [[nodiscard]] pnc::Status ComputeLayout(std::uint64_t min_data_begin = 0);
  /// The EndDef layout: keep `before`'s data_begin (the header as it was
  /// at Redef; null for a new dataset) when this grown header still fits in
  /// front of it, and never start the data below `align`. Besides saving
  /// the copy, not moving is the crash-safe choice: an in-place relayout
  /// is the one case the commit protocol cannot make atomic.
  [[nodiscard]] pnc::Status ComputeLayoutAfter(const Header* before,
                                               std::uint64_t align = 0);

  // ---- codec ----
  void Encode(std::vector<std::byte>& out) const;
  [[nodiscard]] std::vector<std::byte> Encode() const;
  static pnc::Result<Header> Decode(pnc::ConstByteSpan in);

  /// Encoded size without materializing the encoding.
  [[nodiscard]] std::uint64_t EncodedSize() const;

  friend bool operator==(const Header& a, const Header& b);

 private:
  /// vsize of every variable and the record size, from the shapes alone
  /// (shared by ComputeLayout and Decode).
  void SizeVars();

  std::uint64_t data_begin_ = 0;
  std::uint64_t recsize_ = 0;
};

template <typename T>
Attr Attr::Numeric(std::string name, NcType type, std::span<const T> values) {
  Attr a;
  a.name = std::move(name);
  a.type = type;
  a.data.resize(values.size() * sizeof(T));
  std::memcpy(a.data.data(), values.data(), a.data.size());
  return a;
}

template <typename T>
pnc::Status Attr::Convert(std::string name, NcType type,
                          std::span<const T> values, Attr* out) {
  if (type == NcType::kChar) return pnc::Status(pnc::Err::kBadType, name);
  std::vector<std::byte> ext(values.size() * TypeSize(type));
  pnc::Status conv = ToExternal<T>(values, type, ext.data());
  if (!conv.ok() && conv.code() != pnc::Err::kRange) return conv;
  out->name = std::move(name);
  out->type = type;
  out->data.resize(ext.size());
  AttrValuesFromExternal(type, ext.data(), out->data);
  return conv;
}

template <typename T>
pnc::Status Attr::ValuesAs(std::span<T> out) const {
  if (type == NcType::kChar) return pnc::Status(pnc::Err::kBadType, name);
  std::vector<std::byte> ext(data.size());
  AttrValuesToExternal(type, data, ext.data());
  return FromExternal<T>(ext.data(), type, out.first(nelems()));
}

}  // namespace ncformat
