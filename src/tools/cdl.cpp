#include "tools/cdl.hpp"

#include <cctype>
#include <cstring>
#include <cmath>
#include <sstream>

namespace nctools {

using ncformat::Attr;
using ncformat::NcType;

// ------------------------------------------------------------------- dump

namespace {

std::string EscapeString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\0': out += "\\0"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

/// Print one numeric value with ncdump's type suffix convention.
void PrintValue(std::ostringstream& os, NcType t, const std::byte* host,
                std::size_t i) {
  switch (t) {
    case NcType::kByte: {
      signed char v;
      std::memcpy(&v, host + i, 1);
      os << static_cast<int>(v) << 'b';
      break;
    }
    case NcType::kShort: {
      std::int16_t v;
      std::memcpy(&v, host + i * 2, 2);
      os << v << 's';
      break;
    }
    case NcType::kInt: {
      std::int32_t v;
      std::memcpy(&v, host + i * 4, 4);
      os << v;
      break;
    }
    case NcType::kFloat: {
      float v;
      std::memcpy(&v, host + i * 4, 4);
      std::ostringstream tmp;
      tmp.precision(9);
      tmp << v;
      os << tmp.str();
      if (tmp.str().find_first_of(".eE") == std::string::npos) os << '.';
      os << 'f';
      break;
    }
    case NcType::kDouble: {
      double v;
      std::memcpy(&v, host + i * 8, 8);
      std::ostringstream tmp;
      tmp.precision(17);
      tmp << v;
      os << tmp.str();
      if (tmp.str().find_first_of(".eE") == std::string::npos) os << '.';
      break;
    }
    case NcType::kChar:
      break;  // handled as strings by the callers
  }
}

void PrintAttr(std::ostringstream& os, const std::string& owner,
               const Attr& a) {
  os << "\t\t" << owner << ":" << a.name << " = ";
  if (a.type == NcType::kChar) {
    os << EscapeString(a.AsText());
  } else {
    const std::uint64_t n = a.nelems();
    for (std::uint64_t i = 0; i < n; ++i) {
      if (i) os << ", ";
      PrintValue(os, a.type, a.data.data(), i);
    }
  }
  os << " ;\n";
}

}  // namespace

pnc::Result<std::string> DumpCdl(netcdf::Dataset& ds, const std::string& name,
                                 bool with_data) {
  const auto& h = ds.header();
  std::ostringstream os;
  os << "netcdf " << name << " {\n";

  if (!h.dims.empty()) {
    os << "dimensions:\n";
    for (const auto& d : h.dims) {
      if (d.is_unlimited()) {
        os << "\t" << d.name << " = UNLIMITED ; // (" << h.numrecs
           << " currently)\n";
      } else {
        os << "\t" << d.name << " = " << d.len << " ;\n";
      }
    }
  }

  if (!h.vars.empty()) {
    os << "variables:\n";
    for (const auto& v : h.vars) {
      os << "\t" << TypeName(v.type) << " " << v.name;
      if (!v.dimids.empty()) {
        os << "(";
        for (std::size_t i = 0; i < v.dimids.size(); ++i) {
          if (i) os << ", ";
          os << h.dims[static_cast<std::size_t>(v.dimids[i])].name;
        }
        os << ")";
      }
      os << " ;\n";
      for (const auto& a : v.attrs) PrintAttr(os, v.name, a);
    }
  }

  if (!h.gatts.empty()) {
    os << "\n// global attributes:\n";
    for (const auto& a : h.gatts) PrintAttr(os, "", a);
  }

  if (with_data && !h.vars.empty()) {
    os << "data:\n";
    for (int vid = 0; vid < ds.nvars(); ++vid) {
      const auto& v = h.vars[static_cast<std::size_t>(vid)];
      const std::uint64_t n = pnc::ShapeProduct(h.VarShape(vid));
      os << "\n " << v.name << " = ";
      if (n == 0) {
        os << ";\n";
        continue;
      }
      if (v.type == NcType::kChar) {
        std::vector<char> text(n);
        PNC_RETURN_IF_ERROR(ds.GetVar<char>(vid, text));
        os << EscapeString(std::string_view(text.data(), text.size()));
      } else {
        std::vector<double> vals(n);  // widest type reads all numerics
        PNC_RETURN_IF_ERROR(ds.GetVar<double>(vid, vals));
        // Re-render in the variable's own type for faithful suffixes.
        std::vector<std::byte> host(n * TypeSize(v.type));
        switch (v.type) {
          case NcType::kByte:
            for (std::uint64_t i = 0; i < n; ++i) {
              const auto b = static_cast<signed char>(vals[i]);
              std::memcpy(host.data() + i, &b, 1);
            }
            break;
          case NcType::kShort:
            for (std::uint64_t i = 0; i < n; ++i) {
              const auto s = static_cast<std::int16_t>(vals[i]);
              std::memcpy(host.data() + i * 2, &s, 2);
            }
            break;
          case NcType::kInt:
            for (std::uint64_t i = 0; i < n; ++i) {
              const auto x = static_cast<std::int32_t>(vals[i]);
              std::memcpy(host.data() + i * 4, &x, 4);
            }
            break;
          case NcType::kFloat:
            for (std::uint64_t i = 0; i < n; ++i) {
              const auto f = static_cast<float>(vals[i]);
              std::memcpy(host.data() + i * 4, &f, 4);
            }
            break;
          case NcType::kDouble:
            std::memcpy(host.data(), vals.data(), n * 8);
            break;
          case NcType::kChar:
            break;
        }
        for (std::uint64_t i = 0; i < n; ++i) {
          if (i) os << ", ";
          PrintValue(os, v.type, host.data(), i);
        }
      }
      os << " ;\n";
    }
  }
  os << "}\n";
  return os.str();
}

// ------------------------------------------------------------------ parse

namespace {

struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct, kEnd } kind = kEnd;
  std::string text;
  double num = 0;
  NcType num_type = NcType::kInt;  ///< inferred from suffix / decimal point
};

class Lexer {
 public:
  explicit Lexer(std::string_view s) : s_(s) {}

  Token Next() {
    SkipWs();
    Token t;
    if (pos_ >= s_.size()) return t;
    const char c = s_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t b = pos_;
      while (pos_ < s_.size() &&
             (std::isalnum(static_cast<unsigned char>(s_[pos_])) ||
              s_[pos_] == '_'))
        ++pos_;
      t.kind = Token::kIdent;
      t.text = std::string(s_.substr(b, pos_ - b));
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+' ||
        (c == '.' && pos_ + 1 < s_.size() &&
         std::isdigit(static_cast<unsigned char>(s_[pos_ + 1])))) {
      std::size_t b = pos_;
      bool is_float = false;
      if (s_[pos_] == '-' || s_[pos_] == '+') ++pos_;
      while (pos_ < s_.size()) {
        const char d = s_[pos_];
        if (std::isdigit(static_cast<unsigned char>(d))) {
          ++pos_;
        } else if (d == '.') {
          is_float = true;
          ++pos_;
        } else if (d == 'e' || d == 'E') {
          is_float = true;
          ++pos_;
          if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
        } else {
          break;
        }
      }
      t.kind = Token::kNumber;
      t.num = std::strtod(std::string(s_.substr(b, pos_ - b)).c_str(),
                          nullptr);
      t.num_type = is_float ? NcType::kDouble : NcType::kInt;
      // Type suffix.
      if (pos_ < s_.size()) {
        switch (s_[pos_]) {
          case 'b': case 'B': t.num_type = NcType::kByte; ++pos_; break;
          case 's': case 'S': t.num_type = NcType::kShort; ++pos_; break;
          case 'f': case 'F': t.num_type = NcType::kFloat; ++pos_; break;
          case 'd': case 'D': t.num_type = NcType::kDouble; ++pos_; break;
          case 'l': case 'L': t.num_type = NcType::kInt; ++pos_; break;
          default: break;
        }
      }
      return t;
    }
    if (c == '"') {
      ++pos_;
      std::string out;
      while (pos_ < s_.size() && s_[pos_] != '"') {
        if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
          ++pos_;
          switch (s_[pos_]) {
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case '0': out += '\0'; break;
            default: out += s_[pos_];
          }
        } else {
          out += s_[pos_];
        }
        ++pos_;
      }
      if (pos_ < s_.size()) ++pos_;  // closing quote
      t.kind = Token::kString;
      t.text = std::move(out);
      return t;
    }
    t.kind = Token::kPunct;
    t.text = std::string(1, c);
    ++pos_;
    return t;
  }

 private:
  void SkipWs() {
    for (;;) {
      while (pos_ < s_.size() &&
             std::isspace(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
      if (pos_ + 1 < s_.size() && s_[pos_] == '/' && s_[pos_ + 1] == '/') {
        while (pos_ < s_.size() && s_[pos_] != '\n') ++pos_;
        continue;
      }
      break;
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

class Parser {
 public:
  Parser(pfs::FileSystem& fs, const std::string& path, std::string_view cdl)
      : fs_(fs), path_(path), lex_(cdl) {
    Advance();
  }

  pnc::Status Run() {
    PNC_RETURN_IF_ERROR(ExpectIdent("netcdf"));
    if (cur_.kind != Token::kIdent) return Err("dataset name");
    Advance();
    PNC_RETURN_IF_ERROR(ExpectPunct("{"));

    auto created = netcdf::Dataset::Create(fs_, path_);
    if (!created.ok()) return created.status();
    ds_ = std::move(created).value();

    while (cur_.kind == Token::kIdent) {
      if (cur_.text == "dimensions") {
        Advance();
        PNC_RETURN_IF_ERROR(ExpectPunct(":"));
        PNC_RETURN_IF_ERROR(Dimensions());
      } else if (cur_.text == "variables") {
        Advance();
        PNC_RETURN_IF_ERROR(ExpectPunct(":"));
        PNC_RETURN_IF_ERROR(Variables());
      } else if (cur_.text == "data") {
        Advance();
        PNC_RETURN_IF_ERROR(ExpectPunct(":"));
        PNC_RETURN_IF_ERROR(ds_.EndDef());
        in_data_ = true;
        PNC_RETURN_IF_ERROR(Data());
      } else {
        return Err("unexpected section '" + cur_.text + "'");
      }
    }
    if (IsPunct(":")) {
      // global attribute block introduced by bare ':' lines is handled in
      // Variables(); reaching here means stray punctuation.
      return Err("unexpected ':'");
    }
    PNC_RETURN_IF_ERROR(ExpectPunct("}"));
    if (!in_data_) PNC_RETURN_IF_ERROR(ds_.EndDef());
    return ds_.Close();
  }

 private:
  pnc::Status Err(const std::string& what) {
    return pnc::Status(pnc::Err::kInvalidArg, "CDL parse: " + what);
  }
  void Advance() { cur_ = lex_.Next(); }
  bool IsPunct(std::string_view p) const {
    return cur_.kind == Token::kPunct && cur_.text == p;
  }
  pnc::Status ExpectPunct(std::string_view p) {
    if (!IsPunct(p)) return Err("expected '" + std::string(p) + "'");
    Advance();
    return pnc::Status::Ok();
  }
  pnc::Status ExpectIdent(std::string_view w) {
    if (cur_.kind != Token::kIdent || cur_.text != w)
      return Err("expected '" + std::string(w) + "'");
    Advance();
    return pnc::Status::Ok();
  }

  pnc::Status Dimensions() {
    while (cur_.kind == Token::kIdent &&
           cur_.text != "variables" && cur_.text != "data") {
      const std::string name = cur_.text;
      Advance();
      PNC_RETURN_IF_ERROR(ExpectPunct("="));
      std::uint64_t len = 0;
      if (cur_.kind == Token::kIdent && cur_.text == "UNLIMITED") {
        Advance();
      } else if (cur_.kind == Token::kNumber) {
        len = static_cast<std::uint64_t>(cur_.num);
        Advance();
      } else {
        return Err("dimension length");
      }
      PNC_RETURN_IF_ERROR(ExpectPunct(";"));
      PNC_RETURN_IF_ERROR(ds_.DefDim(name, len).status());
    }
    return pnc::Status::Ok();
  }

  static bool TypeFromName(const std::string& s, NcType* out) {
    if (s == "byte") *out = NcType::kByte;
    else if (s == "char") *out = NcType::kChar;
    else if (s == "short") *out = NcType::kShort;
    else if (s == "int" || s == "long") *out = NcType::kInt;
    else if (s == "float" || s == "real") *out = NcType::kFloat;
    else if (s == "double") *out = NcType::kDouble;
    else return false;
    return true;
  }

  pnc::Status Variables() {
    for (;;) {
      if (IsPunct(":")) {  // global attribute:  :name = values ;
        Advance();
        PNC_RETURN_IF_ERROR(Attribute(netcdf::kGlobal, ""));
        continue;
      }
      if (cur_.kind != Token::kIdent) break;
      if (cur_.text == "data" || cur_.text == "dimensions") break;
      NcType type;
      if (TypeFromName(cur_.text, &type)) {
        Advance();
        if (cur_.kind != Token::kIdent) return Err("variable name");
        const std::string vname = cur_.text;
        Advance();
        std::vector<std::int32_t> dimids;
        if (IsPunct("(")) {
          Advance();
          while (cur_.kind == Token::kIdent) {
            PNC_ASSIGN_OR_RETURN(int d, ds_.DimId(cur_.text));
            dimids.push_back(d);
            Advance();
            if (IsPunct(",")) Advance();
          }
          PNC_RETURN_IF_ERROR(ExpectPunct(")"));
        }
        PNC_RETURN_IF_ERROR(ExpectPunct(";"));
        PNC_RETURN_IF_ERROR(ds_.DefVar(vname, type, std::move(dimids)).status());
        continue;
      }
      // Variable attribute: varname:attname = values ;
      const std::string vname = cur_.text;
      Advance();
      PNC_RETURN_IF_ERROR(ExpectPunct(":"));
      PNC_ASSIGN_OR_RETURN(int varid, ds_.VarId(vname));
      PNC_RETURN_IF_ERROR(Attribute(varid, vname));
    }
    return pnc::Status::Ok();
  }

  pnc::Status Attribute(int varid, const std::string&) {
    if (cur_.kind != Token::kIdent) return Err("attribute name");
    const std::string aname = cur_.text;
    Advance();
    PNC_RETURN_IF_ERROR(ExpectPunct("="));
    if (cur_.kind == Token::kString) {
      std::string text = cur_.text;
      Advance();
      PNC_RETURN_IF_ERROR(ExpectPunct(";"));
      return ds_.PutAttText(varid, aname, text);
    }
    // Numeric list: the widest suffix wins the attribute's type.
    std::vector<double> vals;
    NcType type = NcType::kInt;
    bool first = true;
    while (cur_.kind == Token::kNumber) {
      vals.push_back(cur_.num);
      if (first || TypeSize(cur_.num_type) > TypeSize(type) ||
          cur_.num_type == NcType::kDouble)
        type = cur_.num_type;
      first = false;
      Advance();
      if (IsPunct(",")) Advance();
    }
    PNC_RETURN_IF_ERROR(ExpectPunct(";"));
    if (vals.empty()) return Err("attribute values");
    return PutTypedAttr(varid, aname, type, vals);
  }

  pnc::Status PutTypedAttr(int varid, const std::string& name, NcType type,
                           const std::vector<double>& vals) {
    if (type == NcType::kChar) return Err("attribute type");
    // CDL literals narrow like C initializers: an out-of-range value is
    // stored cast (ncformat::Attr::Convert), not refused.
    Attr a;
    const pnc::Status conv = Attr::Convert<double>(name, type, vals, &a);
    if (!conv.ok() && conv.code() != pnc::Err::kRange) return conv;
    return ds_.PutAtt(varid, std::move(a));
  }

  pnc::Status Data() {
    while (cur_.kind == Token::kIdent) {
      const std::string vname = cur_.text;
      Advance();
      PNC_RETURN_IF_ERROR(ExpectPunct("="));
      PNC_ASSIGN_OR_RETURN(int varid, ds_.VarId(vname));
      const auto& v = ds_.header().vars[static_cast<std::size_t>(varid)];

      if (v.type == NcType::kChar) {
        std::string text;
        while (cur_.kind == Token::kString) {
          text += cur_.text;
          Advance();
          if (IsPunct(",")) Advance();
        }
        PNC_RETURN_IF_ERROR(ExpectPunct(";"));
        PNC_RETURN_IF_ERROR(PutWhole<char>(varid, text.size(), [&](std::size_t i) {
          return text[i];
        }));
        continue;
      }
      std::vector<double> vals;
      while (cur_.kind == Token::kNumber) {
        vals.push_back(cur_.num);
        Advance();
        if (IsPunct(",")) Advance();
      }
      PNC_RETURN_IF_ERROR(ExpectPunct(";"));
      PNC_RETURN_IF_ERROR(PutWhole<double>(
          varid, vals.size(), [&](std::size_t i) { return vals[i]; }));
    }
    return pnc::Status::Ok();
  }

  template <typename T, typename F>
  pnc::Status PutWhole(int varid, std::size_t n, F value_at) {
    std::vector<T> buf(n);
    for (std::size_t i = 0; i < n; ++i) buf[i] = value_at(i);
    return ds_.PutVar<T>(varid, buf);
  }

  pfs::FileSystem& fs_;
  std::string path_;
  Lexer lex_;
  Token cur_;
  netcdf::Dataset ds_;
  bool in_data_ = false;
};

}  // namespace

pnc::Status GenerateFromCdl(pfs::FileSystem& fs, const std::string& path,
                            std::string_view cdl) {
  return Parser(fs, path, cdl).Run();
}

}  // namespace nctools
