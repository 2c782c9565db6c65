// oaflint: dependency-free structural linter for the oaf source tree.
//
// Enforces the repo's cross-file contracts that neither the compiler nor
// clang-tidy can see (DESIGN.md §14):
//
//   pdu-contract        every PduType opcode in src/pdu/pdu.h has a fixed-
//                       size entry in src/pdu/wire_contract.h and a codec
//                       round-trip test in tests/pdu/codec_test.cpp.
//   tel-span-pairing    every tracer() .begin( span with a literal
//                       (category, name) has a matching .end(
//                       somewhere in src/ — and vice versa. Spans whose
//                       name is computed (e.g. op_span_name(...)) pair as
//                       wildcards within their category.
//   metric-unit-suffix  counter names end in _total; histogram names end in
//                       a unit (_ns or _bytes); gauge names must not end in
//                       _total (that's a counter).
//   hot-path-hygiene    the data-path translation units must not allocate
//                       with naked `new` or type-erase through
//                       std::function (move-only af::OnceCallback /
//                       MoveFunc are the sanctioned tools there).
//   header-hygiene      every header starts with #pragma once and never
//                       includes through "../" (include paths are rooted
//                       at src/).
//
// Usage: oaflint [--root DIR] [--fix] [--report FILE]
//   exit 0: clean; exit 1: violations found; exit 2: usage/setup error.
//
// --fix rewrites what is mechanically safe: appends the missing unit
// suffix to metric-name literals, inserts a missing #pragma once, and
// synthesizes the matching .end( call for an unpaired literal span begin.
//
// Deliberately a structural (line/token) checker, not a parser: the rules
// key on the narrow idioms this codebase actually uses, which keeps the
// tool dependency-free and fast enough to run on every CI push.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Diag {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string msg;
};

struct Options {
  fs::path root = ".";
  bool fix = false;
  std::string report;
};

std::vector<Diag> g_diags;

void diag(const fs::path& file, size_t line, const char* rule,
          std::string msg) {
  g_diags.push_back({file.generic_string(), line, rule, std::move(msg)});
}

// --- file helpers ---------------------------------------------------------

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool write_file(const fs::path& p, const std::string& content) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return out.good();
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

/// Blank out comments (// and /*...*/) across the whole file, preserving
/// line structure and string literals. Used before token scans so `new` in
/// a comment never fires.
std::string strip_comments(const std::string& src) {
  std::string out = src;
  enum { kCode, kLine, kBlock, kStr, kChar } st = kCode;
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char n = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case kCode:
        if (c == '/' && n == '/') {
          st = kLine;
          out[i] = ' ';
        } else if (c == '/' && n == '*') {
          st = kBlock;
          out[i] = ' ';
        } else if (c == '"') {
          st = kStr;
        } else if (c == '\'') {
          st = kChar;
        }
        break;
      case kLine:
        if (c == '\n') {
          st = kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case kBlock:
        if (c == '*' && n == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kStr:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          st = kCode;
        }
        break;
      case kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = kCode;
        }
        break;
    }
  }
  return out;
}

/// Additionally blank out string/char literals (call on already
/// comment-stripped text) so identifier scans never match inside strings.
std::string strip_strings(const std::string& src) {
  std::string out = src;
  enum { kCode, kStr, kChar } st = kCode;
  for (size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    switch (st) {
      case kCode:
        if (c == '"') {
          st = kStr;
        } else if (c == '\'') {
          st = kChar;
        }
        break;
      case kStr:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size() && out[i + 1] != '\n') out[++i] = ' ';
        } else if (c == '"') {
          st = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (i + 1 < out.size() && out[i + 1] != '\n') out[++i] = ' ';
        } else if (c == '\'') {
          st = kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

size_t line_of(const std::string& s, size_t pos) {
  return 1 + static_cast<size_t>(std::count(s.begin(), s.begin() +
                                                          static_cast<long>(
                                                              pos),
                                            '\n'));
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Find `needle` at position >= from where it is not part of a longer
/// identifier. Returns npos if absent.
size_t find_token(const std::string& s, const std::string& needle,
                  size_t from) {
  for (size_t pos = s.find(needle, from); pos != std::string::npos;
       pos = s.find(needle, pos + 1)) {
    const bool left_ok = pos == 0 || !is_ident(s[pos - 1]);
    const size_t end = pos + needle.size();
    const bool right_ok = end >= s.size() || !is_ident(s[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

std::vector<fs::path> collect(const fs::path& dir,
                              std::initializer_list<const char*> exts) {
  std::vector<fs::path> out;
  if (!fs::exists(dir)) return out;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    const std::string ext = e.path().extension().string();
    for (const char* want : exts) {
      if (ext == want) {
        out.push_back(e.path());
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- rule: pdu-contract ---------------------------------------------------

void check_pdu_contract(const Options& opt) {
  const fs::path pdu_h = opt.root / "src/pdu/pdu.h";
  const fs::path wire_h = opt.root / "src/pdu/wire_contract.h";
  const fs::path codec_t = opt.root / "tests/pdu/codec_test.cpp";
  std::string pdu, wire, codec;
  if (!read_file(pdu_h, pdu) || !read_file(wire_h, wire) ||
      !read_file(codec_t, codec)) {
    diag(pdu_h, 0, "pdu-contract",
         "cannot read pdu.h / wire_contract.h / codec_test.cpp");
    return;
  }
  const std::string code = strip_comments(pdu);
  const size_t en = code.find("enum class PduType");
  if (en == std::string::npos) {
    diag(pdu_h, 0, "pdu-contract", "enum class PduType not found");
    return;
  }
  const size_t open = code.find('{', en);
  const size_t close = code.find('}', open);
  if (open == std::string::npos || close == std::string::npos) {
    diag(pdu_h, line_of(code, en), "pdu-contract", "malformed PduType enum");
    return;
  }
  // Enumerators: identifiers starting with 'k' directly inside the braces.
  std::vector<std::pair<std::string, size_t>> opcodes;  // name, line
  for (size_t i = open + 1; i < close;) {
    while (i < close && !is_ident(code[i])) ++i;
    size_t j = i;
    while (j < close && is_ident(code[j])) ++j;
    if (j > i) {
      const std::string tok = code.substr(i, j - i);
      if (tok.size() > 1 && tok[0] == 'k' &&
          std::isupper(static_cast<unsigned char>(tok[1])) != 0) {
        opcodes.emplace_back(tok.substr(1), line_of(code, i));
      }
      // Skip the value expression up to the next comma.
      i = code.find(',', j);
      if (i == std::string::npos || i > close) break;
      ++i;
    } else {
      break;
    }
  }
  for (const auto& [name, line] : opcodes) {
    // Both TermReq directions share one wire shape.
    std::string wire_name = name;
    if (wire_name == "H2CTermReq" || wire_name == "C2HTermReq") {
      wire_name = "TermReq";
    }
    const std::string a = "kWire" + wire_name + "Bytes";
    const std::string b = "kWire" + wire_name + "FixedBytes";
    if (find_token(wire, a, 0) == std::string::npos &&
        find_token(wire, b, 0) == std::string::npos) {
      diag(pdu_h, line, "pdu-contract",
           "PduType::k" + name + " has no " + a + " / " + b +
               " entry in wire_contract.h");
    }
    std::string test_name = name;
    if (test_name == "H2CTermReq" || test_name == "C2HTermReq") {
      test_name = "TermReq";
    }
    if (codec.find(test_name) == std::string::npos) {
      diag(pdu_h, line, "pdu-contract",
           "PduType::k" + name +
               " has no round-trip coverage in tests/pdu/codec_test.cpp");
    }
  }
}

// --- rule: tel-span-pairing -----------------------------------------------

struct SpanSite {
  fs::path file;
  size_t line = 0;
  std::string cat;   // literal category
  std::string name;  // literal name, or "*" when computed
  size_t call_end = 0;  // offset just past the call's closing ');'
  size_t call_begin = 0;
  std::string call_text;
};

/// Extract the (category, name) literals from a `.begin(` / `.end(` span
/// call starting at `pos` (offset of the opening parenthesis). The first
/// argument is the track expression; category and name are the first two
/// string literals after it.
bool parse_span_call(const std::string& src, size_t paren, SpanSite& out) {
  int depth = 0;
  std::vector<std::string> literals;
  bool computed_name = false;
  size_t i = paren;
  for (; i < src.size(); ++i) {
    const char c = src[i];
    if (c == '(') {
      ++depth;
    } else if (c == ')') {
      --depth;
      if (depth == 0) break;
    } else if (c == '"') {
      std::string lit;
      ++i;
      while (i < src.size() && src[i] != '"') {
        if (src[i] == '\\') ++i;
        lit += src[i];
        ++i;
      }
      if (literals.size() < 2) literals.push_back(lit);
    } else if (depth == 1 && literals.size() == 1 && is_ident(c)) {
      // An identifier where the name literal belongs: computed name.
      computed_name = true;
    }
  }
  if (literals.empty()) return false;
  out.cat = literals[0];
  out.name = literals.size() > 1 ? literals[1]
             : computed_name     ? std::string("*")
                                 : std::string("*");
  out.call_end = i + 1;
  return true;
}

void scan_spans(const fs::path& file, const std::string& raw,
                std::vector<SpanSite>& begins, std::vector<SpanSite>& ends) {
  const std::string code = strip_comments(raw);
  for (const char* kind : {".begin(", ".end("}) {
    for (size_t pos = code.find(kind); pos != std::string::npos;
         pos = code.find(kind, pos + 1)) {
      // Only tracer() span calls — anchor on the receiver.
      const size_t ctx_from = pos > 200 ? pos - 200 : 0;
      const std::string ctx = code.substr(ctx_from, pos - ctx_from);
      const size_t anchor = ctx.rfind("tracer()");
      if (anchor == std::string::npos) continue;
      // The receiver must be adjacent (allowing whitespace) to this call.
      if (ctx.find(';', anchor) != std::string::npos) continue;
      SpanSite site;
      site.file = file;
      site.line = line_of(code, pos);
      site.call_begin = pos;
      const size_t paren = pos + std::strlen(kind) - 1;
      if (!parse_span_call(code, paren, site)) continue;
      site.call_text = raw.substr(pos, site.call_end - pos);
      (std::strcmp(kind, ".begin(") == 0 ? begins : ends).push_back(site);
    }
  }
}

void check_tel_pairing(const Options& opt,
                       std::map<std::string, std::vector<SpanSite>>* unpaired) {
  std::vector<SpanSite> begins;
  std::vector<SpanSite> ends;
  for (const auto& f :
       collect(opt.root / "src", {".cpp", ".h"})) {
    std::string raw;
    if (!read_file(f, raw)) continue;
    scan_spans(f, raw, begins, ends);
  }
  auto has_match = [](const std::vector<SpanSite>& pool, const SpanSite& s) {
    for (const auto& p : pool) {
      if (p.cat != s.cat) continue;
      if (p.name == s.name || p.name == "*" || s.name == "*") return true;
    }
    return false;
  };
  for (const auto& b : begins) {
    if (!has_match(ends, b)) {
      diag(b.file, b.line, "tel-span-pairing",
           "span begin (\"" + b.cat + "\", \"" + b.name +
               "\") has no matching end() anywhere in src/");
      if (unpaired != nullptr) {
        (*unpaired)[b.file.generic_string()].push_back(b);
      }
    }
  }
  for (const auto& e : ends) {
    if (!has_match(begins, e)) {
      diag(e.file, e.line, "tel-span-pairing",
           "span end (\"" + e.cat + "\", \"" + e.name +
               "\") has no matching begin() anywhere in src/");
    }
  }
}

// --- rule: metric-unit-suffix ---------------------------------------------

bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

struct MetricFix {
  size_t lit_begin = 0;  // offset of the opening quote
  size_t lit_end = 0;    // offset of the closing quote
  std::string fixed;     // replacement name
};

void check_metric_names(const fs::path& file, const std::string& raw,
                        std::vector<MetricFix>* fixes) {
  const std::string code = strip_comments(raw);
  struct Kind {
    const char* call;
    const char* what;
  };
  static const Kind kKinds[] = {
      {"counter(\"", "counter"},
      {"histogram(\"", "histogram"},
      {"gauge(\"", "gauge"},
  };
  for (const auto& k : kKinds) {
    for (size_t pos = code.find(k.call); pos != std::string::npos;
         pos = code.find(k.call, pos + 1)) {
      if (pos > 0 && is_ident(code[pos - 1])) continue;  // foocounter(
      const size_t lit_begin = pos + std::strlen(k.call) - 1;
      const size_t lit_close = code.find('"', lit_begin + 1);
      if (lit_close == std::string::npos) continue;
      const std::string name =
          code.substr(lit_begin + 1, lit_close - lit_begin - 1);
      if (name.empty()) continue;
      const size_t ln = line_of(code, pos);
      std::string want;
      if (std::strcmp(k.what, "counter") == 0) {
        if (!ends_with(name, "_total")) {
          diag(file, ln, "metric-unit-suffix",
               "counter \"" + name + "\" must end in _total");
          want = name + "_total";
        }
      } else if (std::strcmp(k.what, "histogram") == 0) {
        if (!ends_with(name, "_ns") && !ends_with(name, "_bytes")) {
          diag(file, ln, "metric-unit-suffix",
               "histogram \"" + name +
                   "\" must carry a unit suffix (_ns or _bytes)");
          want = name + "_ns";
        }
      } else {
        if (ends_with(name, "_total")) {
          diag(file, ln, "metric-unit-suffix",
               "gauge \"" + name +
                   "\" must not end in _total (that names a counter)");
        }
      }
      if (!want.empty() && fixes != nullptr) {
        fixes->push_back({lit_begin, lit_close, want});
      }
    }
  }
}

// --- rule: hot-path-hygiene -----------------------------------------------

bool is_hot_path_file(const fs::path& f) {
  static const char* kHot[] = {
      "src/nvmf/initiator.cpp",
      "src/nvmf/target.cpp",
      "src/nvmf/path_group.cpp",
  };
  const std::string g = f.generic_string();
  for (const char* h : kHot) {
    if (ends_with(g, h)) return true;
  }
  return false;
}

void check_hot_path(const fs::path& file, const std::string& raw) {
  const std::string code = strip_strings(strip_comments(raw));
  for (size_t pos = find_token(code, "new", 0); pos != std::string::npos;
       pos = find_token(code, "new", pos + 1)) {
    diag(file, line_of(code, pos), "hot-path-hygiene",
         "naked `new` on the data path — use value members, "
         "std::make_unique at setup time, or pool allocation");
  }
  for (size_t pos = code.find("std::function"); pos != std::string::npos;
       pos = code.find("std::function", pos + 1)) {
    diag(file, line_of(code, pos), "hot-path-hygiene",
         "std::function on the data path — completions are linear "
         "af::OnceCallback, generic callables are oaf::MoveFunc");
  }
  // Raw C allocators dodge both the operator-new rule above and the
  // OAF_PROF allocation ledger's typed accounting; they have no place on
  // the data path. (free() is not flagged: releasing setup-time buffers
  // from a teardown path is fine — it is acquisition that must not happen.)
  for (const char* fn : {"malloc", "calloc", "realloc"}) {
    for (size_t pos = find_token(code, fn, 0); pos != std::string::npos;
         pos = find_token(code, fn, pos + 1)) {
      diag(file, line_of(code, pos), "hot-path-hygiene",
           std::string("raw `") + fn +
               "` on the data path — use value members or pool "
               "allocation; the allocation ledger cannot attribute "
               "untyped C buffers");
    }
  }
}

// --- rule: header-hygiene -------------------------------------------------

void check_header(const fs::path& file, const std::string& raw,
                  bool* missing_pragma) {
  const std::string code = strip_comments(raw);
  if (code.find("#pragma once") == std::string::npos) {
    diag(file, 1, "header-hygiene", "header is missing #pragma once");
    if (missing_pragma != nullptr) *missing_pragma = true;
  }
  for (size_t pos = code.find("#include \"../"); pos != std::string::npos;
       pos = code.find("#include \"../", pos + 1)) {
    diag(file, line_of(code, pos), "header-hygiene",
         "relative #include \"../…\" — include paths are rooted at src/");
  }
}

// --- fix application ------------------------------------------------------

void apply_fixes(const Options& opt) {
  // Metric suffixes + missing pragma once, file by file.
  for (const auto& f : collect(opt.root / "src", {".cpp", ".h"})) {
    std::string raw;
    if (!read_file(f, raw)) continue;
    std::vector<MetricFix> fixes;
    std::vector<Diag> scratch;
    std::swap(scratch, g_diags);  // don't double-report during fix scan
    check_metric_names(f, raw, &fixes);
    bool missing_pragma = false;
    if (f.extension() == ".h") check_header(f, raw, &missing_pragma);
    std::swap(scratch, g_diags);
    if (fixes.empty() && !missing_pragma) continue;
    // Apply literal replacements back-to-front so offsets stay valid.
    std::sort(fixes.begin(), fixes.end(),
              [](const MetricFix& a, const MetricFix& b) {
                return a.lit_begin > b.lit_begin;
              });
    for (const auto& fx : fixes) {
      raw.replace(fx.lit_begin + 1, fx.lit_end - fx.lit_begin - 1, fx.fixed);
    }
    if (missing_pragma) {
      // Insert after the leading comment block (if any).
      const std::vector<std::string> lines = split_lines(raw);
      size_t at = 0;
      while (at < lines.size() &&
             (lines[at].rfind("//", 0) == 0 || lines[at].empty())) {
        ++at;
      }
      std::string rebuilt;
      for (size_t i = 0; i < lines.size(); ++i) {
        if (i == at) rebuilt += "#pragma once\n";
        rebuilt += lines[i];
        rebuilt += '\n';
      }
      if (at >= lines.size()) rebuilt += "#pragma once\n";
      raw = rebuilt;
    }
    write_file(f, raw);
    std::fprintf(stderr, "oaflint: fixed %s\n", f.generic_string().c_str());
  }

  // Unpaired span begins: synthesize the matching end() directly after the
  // begin statement — same receiver, track, category, and name; id and
  // timestamp degrade to 0 for the author to refine.
  std::map<std::string, std::vector<SpanSite>> unpaired;
  {
    std::vector<Diag> scratch;
    std::swap(scratch, g_diags);
    check_tel_pairing(opt, &unpaired);
    std::swap(scratch, g_diags);
  }
  for (auto& [file, sites] : unpaired) {
    std::string raw;
    if (!read_file(file, raw)) continue;
    std::sort(sites.begin(), sites.end(),
              [](const SpanSite& a, const SpanSite& b) {
                return a.call_begin > b.call_begin;
              });
    bool changed = false;
    for (const auto& s : sites) {
      // Receiver: walk back from the call to the start of the expression.
      size_t expr_begin = s.call_begin;
      while (expr_begin > 0 &&
             (is_ident(raw[expr_begin - 1]) || raw[expr_begin - 1] == ':' ||
              raw[expr_begin - 1] == '.' || raw[expr_begin - 1] == ')' ||
              raw[expr_begin - 1] == '(')) {
        --expr_begin;
      }
      const std::string receiver =
          raw.substr(expr_begin, s.call_begin - expr_begin);
      // First argument (track expression) of the begin call.
      const size_t paren = raw.find('(', s.call_begin);
      size_t comma = paren;
      int depth = 0;
      for (size_t i = paren; i < raw.size(); ++i) {
        if (raw[i] == '(') ++depth;
        if (raw[i] == ')') --depth;
        if (raw[i] == ',' && depth == 1) {
          comma = i;
          break;
        }
      }
      const std::string track = raw.substr(paren + 1, comma - paren - 1);
      const size_t stmt_end = raw.find(';', expr_begin + (s.call_end -
                                                          s.call_begin));
      if (stmt_end == std::string::npos) continue;
      const std::string insert = "\n  " + receiver + ".end(" + track + ", \"" +
                                 s.cat + "\", \"" + s.name + "\", 0, 0);";
      raw.insert(stmt_end + 1, insert);
      changed = true;
    }
    if (changed) {
      write_file(file, raw);
      std::fprintf(stderr, "oaflint: fixed %s\n", file.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--fix") {
      opt.fix = true;
    } else if (a == "--root" && i + 1 < argc) {
      opt.root = argv[++i];
    } else if (a == "--report" && i + 1 < argc) {
      opt.report = argv[++i];
    } else if (a == "--help" || a == "-h") {
      std::fprintf(stderr,
                   "usage: oaflint [--root DIR] [--fix] [--report FILE]\n");
      return 2;
    } else {
      std::fprintf(stderr, "oaflint: unknown argument '%s'\n", a.c_str());
      return 2;
    }
  }
  if (!fs::exists(opt.root / "src")) {
    std::fprintf(stderr, "oaflint: no src/ under root '%s'\n",
                 opt.root.generic_string().c_str());
    return 2;
  }

  if (opt.fix) apply_fixes(opt);

  check_pdu_contract(opt);
  check_tel_pairing(opt, nullptr);
  for (const auto& f : collect(opt.root / "src", {".cpp", ".h"})) {
    std::string raw;
    if (!read_file(f, raw)) continue;
    check_metric_names(f, raw, nullptr);
    if (is_hot_path_file(f)) check_hot_path(f, raw);
    if (f.extension() == ".h") check_header(f, raw, nullptr);
  }

  std::sort(g_diags.begin(), g_diags.end(), [](const Diag& a, const Diag& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  std::ostringstream report;
  for (const auto& d : g_diags) {
    report << d.file << ":" << d.line << ": " << d.rule << ": " << d.msg
           << "\n";
  }
  std::fputs(report.str().c_str(), stdout);
  if (!opt.report.empty()) {
    std::ostringstream full;
    full << "oaflint report\nroot: " << opt.root.generic_string()
         << "\nviolations: " << g_diags.size() << "\n\n"
         << report.str();
    if (!write_file(opt.report, full.str())) {
      std::fprintf(stderr, "oaflint: cannot write report '%s'\n",
                   opt.report.c_str());
      return 2;
    }
  }
  if (g_diags.empty()) {
    std::fprintf(stderr, "oaflint: clean\n");
    return 0;
  }
  std::fprintf(stderr, "oaflint: %zu violation(s)\n", g_diags.size());
  return 1;
}
