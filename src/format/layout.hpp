// Mapping variable accesses to file byte regions.
//
// Every netCDF data access (single element, whole array, subarray, strided
// subarray) reduces to a set of contiguous byte extents in the file, derived
// from the variable's begin offset, its shape, and — for record variables —
// the record interleaving (record r of variable v lives at
// v.begin + r * recsize; Figure 1). Both the serial library (which does
// buffered POSIX-style I/O over the extents) and PnetCDF (which builds MPI
// file views from them) consume this one implementation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "format/header.hpp"
#include "util/bytes.hpp"

namespace ncformat {

/// Access bounds checking policy: reads must stay within the current number
/// of records, while writes may grow the record dimension.
enum class AccessKind { kRead, kWrite };

/// Validate (start, count, stride) against the variable's shape. `stride`
/// may be empty (meaning all ones). Returns kInvalidCoords / kEdge /
/// kStride on violations, mirroring the netCDF error taxonomy, and
/// kInvalidArg when the caller's buffer holds fewer than the selected
/// elements.
pnc::Status ValidateAccess(const Header& h, int varid,
                           std::span<const std::uint64_t> start,
                           std::span<const std::uint64_t> count,
                           std::span<const std::uint64_t> stride,
                           AccessKind kind,
                           std::uint64_t buffer_elems = UINT64_MAX);

/// One past the last record a write of (start, count, stride) touches on
/// `varid` — the record count it grows numrecs to; 0 for a fixed-size
/// variable or an empty access.
std::uint64_t RecordsTouched(const Header& h, int varid,
                             std::span<const std::uint64_t> start,
                             std::span<const std::uint64_t> count,
                             std::span<const std::uint64_t> stride);

/// Compute the file extents touched by (start, count, stride) on `varid`,
/// appended to `out` in row-major element order (which is also ascending
/// file order). Adjacent extents are coalesced. Does not validate; call
/// ValidateAccess first.
void AccessRegions(const Header& h, int varid,
                   std::span<const std::uint64_t> start,
                   std::span<const std::uint64_t> count,
                   std::span<const std::uint64_t> stride,
                   std::vector<pnc::Extent>& out);

/// Number of elements selected by `count` (product; 1 for scalars).
std::uint64_t AccessElems(std::span<const std::uint64_t> count);

/// Mapped access (varm): imap[d] is the distance in elements between
/// consecutive indices of dimension d in the caller's memory. kInvalidArg
/// unless imap has one entry per dimension of `count`.
pnc::Status CheckImap(std::span<const std::uint64_t> count,
                      std::span<const std::uint64_t> imap);

/// The mapped copy of a CheckImap-valid access, both libraries' one imap
/// walk: `gather` copies mapped memory `from` into canonical row-major
/// order `to` (a put); otherwise canonical `from` scatters into mapped
/// `to` (a get).
template <typename T>
void MapCopy(std::span<const std::uint64_t> count,
             std::span<const std::uint64_t> imap, std::span<const T> from,
             std::span<T> to, bool gather) {
  const std::uint64_t nelems = AccessElems(count);
  std::vector<std::uint64_t> idx(count.size(), 0);
  for (std::uint64_t e = 0; e < nelems; ++e) {
    std::uint64_t m = 0;
    for (std::size_t d = 0; d < count.size(); ++d) m += idx[d] * imap[d];
    if (gather)
      to[e] = from[m];
    else
      to[m] = from[e];
    for (std::size_t d = count.size(); d-- > 0;) {
      if (++idx[d] < count[d]) break;
      idx[d] = 0;
    }
  }
}

/// One relayout copy: `len` bytes from file offset `from` to `to`.
struct RelayoutMove {
  std::uint64_t from = 0, to = 0, len = 0;
};

/// The moves that take the data of `old_h`'s layout to `new_h`'s after a
/// Redef (variables matched by name, record variables record by record),
/// without no-op moves, highest destination first. The header only grows,
/// so no destination precedes its source and this order never clobbers
/// unmoved data; a backwards move is kInternal. The serial library runs
/// the moves in order; PnetCDF slices each one across its ranks (§4.3).
pnc::Result<std::vector<RelayoutMove>> RelayoutPlan(const Header& old_h,
                                                    const Header& new_h);

}  // namespace ncformat
