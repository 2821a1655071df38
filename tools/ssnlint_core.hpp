// ssnlint — project-specific numeric-hygiene checker for ssnkit.
//
// A deliberately small, dependency-free static checker for the handful of
// mistakes that matter most in this codebase: silent NaN propagation and
// numeric-comparison bugs that a general linter does not know to look for.
// It lexes (it does not parse) C++, which keeps it fast and predictable;
// every rule is a token-pattern with a documented rationale.
//
// Rule catalog (see docs/STATIC_ANALYSIS.md for examples):
//   SSN-L001  exact ==/!= comparison against a floating-point literal
//   SSN-L002  use of std::rand/srand (non-deterministic across platforms)
//   SSN-L003  solver entry point without an SSN_REQUIRE/SSN_ASSERT_FINITE/
//             SSN_ENSURE contract guard
//   SSN-L004  uninitialized double member in a struct
//   SSN-L005  catch (...) that swallows the exception (no rethrow)
//   SSN-L006  bare `throw std::runtime_error` inside src/sim or src/numeric
//             (solver failures must be typed support::SolverError so callers
//             can tell retryable from fatal)
//   SSN-L007  bare std::stod/stoi/strtod/atof-family call outside the
//             hardened parsing helpers in src/io/diagnostics.cpp (they
//             accept "inf"/"nan"/hex and throw std::out_of_range; use
//             io::parse_double_prefix / io::parse_int_strict)
//   SSN-L008  dense Matrix construction or SparseMatrix::from_dense inside
//             a loop body in src/sim or src/numeric (the solver hot path
//             stamps into a cached sparse pattern; a per-iteration dense
//             build reintroduces the O(n^2) allocate-and-convert cost the
//             stamped workspace exists to avoid)
//   SSN-L009  lifecycle hygiene: raw signal/sigaction/raise outside
//             src/support (signal handling must go through
//             support::ScopedSignalCancel so SIGINT/SIGTERM trip the shared
//             RunContext instead of racing ad-hoc handlers), or an unbounded
//             loop (while(true)/while(1)/for(;;)) in src/analysis batch code
//             whose body never consults the lifecycle layer
//             (stop_requested/try_start_item/RunContext) — such a loop can
//             not be cancelled or deadlined cooperatively
//   SSN-L013  a solver/analysis result (run_transient, measure_ssn,
//             monte_carlo_vmax, ...) consumed without ever inspecting its
//             status or TrustReport (ok()/error/stop/trust/...): reading
//             v_max off a result whose verdict was never looked at is
//             exactly the silently-wrong consumption the trust layer exists
//             to prevent
//   SSN-L014  process hygiene: raw fork/vfork/waitpid/wait/kill/exec-family/
//             posix_spawn calls outside src/support and the serve-layer
//             supervisor. Child processes that are not registered with the
//             crash-kill registry (support/crashclean.hpp) survive a
//             crash-path _Exit as orphans, and ad-hoc waitpid loops race the
//             supervisor's reaper; spawn through support/subprocess.hpp
//
// Whole-project passes (ssnlint_project.hpp / _units.hpp / _registry.hpp):
//   SSN-L010  include-graph layering: upward includes against the
//             architecture order and include cycles
//   SSN-L011  physical-units dataflow: unit-incompatible arithmetic on
//             annotated / conventionally named quantities
//   SSN-L012  diagnostic-code registry: duplicate, undocumented, or dead
//             SSN-Exxx/Wxxx/Lxxx codes vs. the docs/ catalog
//
// Suppression: append `// ssnlint-ignore(SSN-L001)` (comma-separated list
// allowed) on the offending line or the line directly above it.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace ssnlint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string hint;         ///< fix-it guidance, shown under the finding
  std::string fingerprint;  ///< line-content hash for baseline matching
};

inline const std::vector<std::pair<std::string, std::string>>& rule_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kRules = {
      {"SSN-L001", "exact ==/!= comparison against a floating-point literal"},
      {"SSN-L002", "std::rand/srand is banned; use <random> engines"},
      {"SSN-L003", "solver entry point lacks a contract guard"},
      {"SSN-L004", "uninitialized double member in a struct"},
      {"SSN-L005", "catch (...) swallows the exception"},
      {"SSN-L006", "bare throw std::runtime_error in solver code"},
      {"SSN-L007", "bare std::stod/stoi-family call outside hardened parsers"},
      {"SSN-L008", "dense Matrix build inside a loop in solver code"},
      {"SSN-L009", "raw signal handling or uncancellable batch loop"},
      {"SSN-L010", "include-graph layering violation (upward include or cycle)"},
      {"SSN-L011", "physical-units mismatch in annotated arithmetic"},
      {"SSN-L012", "diagnostic code is duplicated, undocumented, or dead"},
      {"SSN-L013", "solver/analysis result consumed without a status/trust check"},
      {"SSN-L014", "raw process-management syscall outside support/supervisor"},
  };
  return kRules;
}

/// One-line fix-it guidance per rule, attached to every diagnostic and
/// emitted as the SARIF rule help text.
inline std::string rule_fixit(const std::string& rule) {
  static const std::map<std::string, std::string> kHints = {
      {"SSN-L001",
       "compare with an explicit tolerance (std::abs(a - b) < eps), or "
       "ssnlint-ignore an intentional exact-zero/default check"},
      {"SSN-L002",
       "use a seeded std::mt19937/std::mt19937_64 engine from <random>"},
      {"SSN-L003",
       "add an SSN_REQUIRE precondition or SSN_ASSERT_FINITE on the inputs "
       "(see src/support/contracts.hpp)"},
      {"SSN-L004", "default the member in-class, e.g. 'double x = 0.0;'"},
      {"SSN-L005",
       "catch a concrete exception type, or rethrow with 'throw;' after "
       "logging"},
      {"SSN-L006",
       "throw support::SolverError{kind, message} so the recovery ladder can "
       "classify the failure (see docs/ROBUSTNESS.md)"},
      {"SSN-L007",
       "convert through io::parse_double_prefix / io::parse_int_strict "
       "(src/io/diagnostics.hpp)"},
      {"SSN-L008",
       "hoist the dense build out of the loop, or stamp into a cached "
       "StampedMatrix pattern and refactorize numerically"},
      {"SSN-L009",
       "install handlers via support::ScopedSignalCancel, and poll "
       "RunContext::stop_requested (or try_start_item) inside batch loops"},
      {"SSN-L010",
       "invert the dependency (move the shared code into the lower layer) or "
       "lift this file into the layer it reaches up to; the architecture "
       "order is support -> numeric/io -> circuit/process/devices/waveform/"
       "core -> sim -> analysis -> cli/tools"},
      {"SSN-L011",
       "make the operands dimensionally consistent, fix the '// ssn-units:' "
       "annotation or the _h/_f/_v/... name suffix, or convert explicitly "
       "and annotate the result"},
      {"SSN-L012",
       "register the code exactly once in the docs/ catalog tables "
       "(docs/DIAGNOSTICS.md for SSN-E/W, docs/STATIC_ANALYSIS.md for "
       "SSN-L), and delete catalog rows for codes no longer emitted"},
      {"SSN-L013",
       "check the result's status before reading values off it — ok()/error/"
       "stop/trust.verdict — or pass it through verify_measurement; "
       "ssnlint-ignore a site whose failures provably surface as exceptions"},
      {"SSN-L014",
       "spawn and manage children through support/subprocess.hpp "
       "(spawn_child/wait_child/kill_child) so every pid is registered with "
       "the crash-kill registry and reaped exactly once"},
  };
  const auto it = kHints.find(rule);
  return it == kHints.end() ? std::string() : it->second;
}

// ---------------------------------------------------------------------------
// Pass 1: strip comments and string/character literals (preserving line
// structure) and harvest `ssnlint-ignore(...)` suppressions from comments.
// ---------------------------------------------------------------------------

struct StrippedSource {
  std::string code;  // same length/line structure as the input
  // Like `code` but with string/character literal *contents* preserved —
  // comments are still blanked. The diagnostic-code registry pass (L012)
  // scans this so codes in comments do not count as emissions.
  std::string code_with_strings;
  // line number (1-based) -> rule IDs suppressed on that line and the next
  std::map<int, std::set<std::string>> suppressions;
  // line number -> raw `// ssn-units: ...` annotation text on that line
  std::map<int, std::string> unit_annotations;
};

namespace detail {

inline void harvest_suppressions(const std::string& comment, int line,
                                 std::map<int, std::set<std::string>>& out) {
  const std::string kTag = "ssnlint-ignore(";
  std::size_t pos = 0;
  while ((pos = comment.find(kTag, pos)) != std::string::npos) {
    const std::size_t open = pos + kTag.size();
    const std::size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::string inner = comment.substr(open, close - open);
    std::stringstream ss(inner);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      rule.erase(std::remove_if(rule.begin(), rule.end(),
                                [](unsigned char c) { return std::isspace(c); }),
                 rule.end());
      if (!rule.empty()) out[line].insert(rule);
    }
    pos = close;
  }
}

inline void harvest_unit_annotations(const std::string& comment, int line,
                                     std::map<int, std::string>& out) {
  const std::string kTag = "ssn-units:";
  const std::size_t pos = comment.find(kTag);
  if (pos == std::string::npos) return;
  std::string text = comment.substr(pos + kTag.size());
  while (!text.empty() && std::isspace(unsigned(text.front()))) text.erase(0, 1);
  while (!text.empty() && std::isspace(unsigned(text.back()))) text.pop_back();
  if (text.empty()) return;
  auto& slot = out[line];
  slot = slot.empty() ? text : slot + ", " + text;
}

inline bool ident_char_raw(char c) {
  return std::isalnum(unsigned(c)) || c == '_';
}

/// True when the `"` at position i opens a raw string literal: the text
/// before it must end in an encoding-prefixed R (R, u8R, uR, UR, LR) that is
/// not merely the tail of a longer identifier (`FOO_R"x"` lexes as an
/// identifier followed by an ordinary string).
inline bool is_raw_string_opener(const std::string& src, std::size_t i) {
  if (i == 0 || src[i - 1] != 'R') return false;
  std::size_t p = i - 1;  // position of 'R'
  if (p == 0) return true;
  const char b = src[p - 1];
  if (!ident_char_raw(b)) return true;
  // Allow exactly the encoding prefixes u8R / uR / UR / LR.
  if ((b == 'u' || b == 'U' || b == 'L') &&
      (p - 1 == 0 || !ident_char_raw(src[p - 2])))
    return true;
  if (b == '8' && p >= 2 && src[p - 2] == 'u' &&
      (p - 2 == 0 || !ident_char_raw(src[p - 3])))
    return true;
  return false;
}

/// Scan a raw-string delimiter after the opening quote at `quote`. Returns
/// true and fills `terminator` with ")delim\"" when the opener is well
/// formed (d-char-seq of at most 16 chars, then '('); malformed openers are
/// lexed as ordinary strings, matching the compiler's error recovery.
inline bool scan_raw_delimiter(const std::string& src, std::size_t quote,
                               std::string& terminator) {
  std::string delim;
  for (std::size_t j = quote + 1; j < src.size() && delim.size() <= 16; ++j) {
    const char c = src[j];
    if (c == '(') {
      terminator = ")" + delim + "\"";
      return true;
    }
    // d-chars may not include parens, backslash, quotes, or whitespace.
    if (c == ')' || c == '\\' || c == '"' || std::isspace(unsigned(c)))
      return false;
    delim += c;
  }
  return false;
}

/// True when the `'` at position i separates digits of a pp-number
/// (1'000'000, 0xFF'FF) rather than opening a character literal (u8'a',
/// L'x'): the alphanumeric run immediately before it must start with a
/// digit.
inline bool is_digit_separator(const std::string& src, std::size_t i) {
  if (i == 0 || i + 1 >= src.size()) return false;
  if (!std::isalnum(unsigned(src[i - 1])) || !std::isalnum(unsigned(src[i + 1])))
    return false;
  std::size_t start = i;
  while (start > 0 && (ident_char_raw(src[start - 1]) || src[start - 1] == '\''))
    --start;
  return std::isdigit(unsigned(src[start]));
}

}  // namespace detail

inline StrippedSource strip_source(const std::string& src) {
  StrippedSource out;
  out.code.assign(src.size(), ' ');
  out.code_with_strings.assign(src.size(), ' ');
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  int line = 1;
  std::string comment_text;    // accumulated text of the current comment
  int comment_line = 1;        // line the current comment chunk lives on
  std::string raw_delim;       // )delim" terminator for raw strings

  const auto flush_comment = [&]() {
    if (!comment_text.empty()) {
      detail::harvest_suppressions(comment_text, comment_line, out.suppressions);
      detail::harvest_unit_annotations(comment_text, comment_line,
                                       out.unit_annotations);
    }
    comment_text.clear();
  };
  // Literal contents survive in code_with_strings; the code view gets the
  // default blank.
  const auto keep_in_strings = [&](std::size_t i, char c) {
    out.code_with_strings[i] = c;
  };
  // Characters visible to both views (code outside comments/literals and the
  // literal delimiters themselves).
  const auto keep_in_both = [&](std::size_t i, char c) {
    out.code[i] = c;
    out.code_with_strings[i] = c;
  };

  for (std::size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    if (c == '\n') {
      out.code[i] = '\n';
      out.code_with_strings[i] = '\n';
      // A comment spanning lines registers its directive per line chunk.
      if (state == State::kLineComment) {
        flush_comment();
        state = State::kCode;
      } else if (state == State::kBlockComment) {
        flush_comment();
        comment_line = line + 1;
      }
      ++line;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_line = line;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_line = line;
          ++i;
        } else if (c == '"') {
          std::string terminator;
          if (detail::is_raw_string_opener(src, i) &&
              detail::scan_raw_delimiter(src, i, terminator)) {
            raw_delim = terminator;
            state = State::kRawString;
            keep_in_both(i, '"');
          } else {
            // Includes malformed raw-string openers (`FOO_R"x"`, bad
            // delimiter): lexed as an ordinary string.
            state = State::kString;
            keep_in_both(i, '"');
          }
        } else if (c == '\'') {
          keep_in_both(i, '\'');
          // Digit separators (1'000'000) are part of numbers, not chars;
          // u8'a' / L'x' are character literals despite the alnum prefix.
          if (!detail::is_digit_separator(src, i)) state = State::kChar;
        } else {
          keep_in_both(i, c);
        }
        break;
      case State::kLineComment:
        comment_text += c;
        break;
      case State::kBlockComment:
        comment_text += c;
        if (c == '*' && next == '/') {
          flush_comment();
          ++i;
          state = State::kCode;
        }
        break;
      case State::kString:
        if (c == '\\') {
          keep_in_strings(i, c);
          ++i;  // escaped char: keep it, and keep counting its newline
          if (i < src.size()) {
            keep_in_strings(i, src[i]);
            if (src[i] == '\n') {
              out.code[i] = '\n';
              ++line;
            }
          }
        } else if (c == '"') {
          keep_in_both(i, '"');
          state = State::kCode;
        } else {
          keep_in_strings(i, c);
        }
        break;
      case State::kChar:
        if (c == '\\') {
          keep_in_strings(i, c);
          ++i;
          if (i < src.size()) {
            keep_in_strings(i, src[i]);
            if (src[i] == '\n') {
              out.code[i] = '\n';
              ++line;
            }
          }
        } else if (c == '\'') {
          keep_in_both(i, '\'');
          state = State::kCode;
        } else {
          keep_in_strings(i, c);
        }
        break;
      case State::kRawString:
        if (c == raw_delim[0] && src.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          keep_in_both(i, '"');
          state = State::kCode;
        } else {
          keep_in_strings(i, c);
        }
        break;
    }
  }
  flush_comment();
  return out;
}

// ---------------------------------------------------------------------------
// Pass 2: lex the stripped code into identifier / number / punctuation tokens.
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
};

namespace detail {

inline bool ident_start(char c) {
  return std::isalpha(unsigned(c)) || c == '_';
}
inline bool ident_char(char c) {
  return std::isalnum(unsigned(c)) || c == '_';
}

}  // namespace detail

inline std::vector<Token> tokenize(const std::string& code) {
  std::vector<Token> toks;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = code.size();
  while (i < n) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(unsigned(c))) {
      ++i;
      continue;
    }
    if (detail::ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && detail::ident_char(code[j])) ++j;
      toks.push_back({Token::Kind::kIdent, code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(unsigned(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(unsigned(code[i + 1])))) {
      // pp-number: digits, letters, dots, quotes-as-separators, and exponent
      // signs when preceded by e/E/p/P.
      std::size_t j = i + 1;
      while (j < n) {
        const char d = code[j];
        if (detail::ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') &&
                   (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                    code[j - 1] == 'p' || code[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      toks.push_back({Token::Kind::kNumber, code.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation: greedily take the few multi-char tokens the rules need.
    static const std::vector<std::string> kMulti = {
        "...", "->*", "<<=", ">>=", "::", "->", "==", "!=", "<=", ">=",
        "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "<<", ">>"};
    std::string text(1, c);
    for (const auto& m : kMulti) {
      if (code.compare(i, m.size(), m) == 0) {
        text = m;
        break;
      }
    }
    toks.push_back({Token::Kind::kPunct, text, line});
    i += text.size();
  }
  return toks;
}

inline bool is_float_literal(const std::string& t) {
  if (t.size() >= 2 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) return false;
  return t.find('.') != std::string::npos || t.find('e') != std::string::npos ||
         t.find('E') != std::string::npos;
}

// ---------------------------------------------------------------------------
// Rules. Each takes the token stream (and emits diagnostics); suppressions
// are applied afterwards by lint_source().
// ---------------------------------------------------------------------------

namespace detail {

inline void add(std::vector<Diagnostic>& out, const std::string& file, int line,
                const char* rule, std::string message) {
  Diagnostic d;
  d.file = file;
  d.line = line;
  d.rule = rule;
  d.message = std::move(message);
  out.push_back(std::move(d));
}

/// Index of the matching closer for the opener at `open` (e.g. '(' -> ')'),
/// or toks.size() when unbalanced.
inline std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                                 const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    if (toks[i].text == opener) ++depth;
    if (toks[i].text == closer && --depth == 0) return i;
  }
  return toks.size();
}

// SSN-L001: `x == 0.3`-style comparisons. Exact equality on doubles is almost
// always a rounding bug; the rare intentional exact-zero skip gets an
// ssnlint-ignore.
inline void rule_float_compare(const std::vector<Token>& toks,
                               const std::string& file,
                               std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kPunct || (t.text != "==" && t.text != "!="))
      continue;
    bool flagged = false;
    if (i > 0 && toks[i - 1].kind == Token::Kind::kNumber &&
        is_float_literal(toks[i - 1].text))
      flagged = true;
    std::size_t r = i + 1;
    if (r < toks.size() && toks[r].kind == Token::Kind::kPunct &&
        (toks[r].text == "+" || toks[r].text == "-"))
      ++r;  // unary sign
    if (r < toks.size() && toks[r].kind == Token::Kind::kNumber &&
        is_float_literal(toks[r].text))
      flagged = true;
    if (flagged)
      add(out, file, t.line, "SSN-L001",
          "exact '" + t.text +
              "' comparison against a floating-point literal; compare with a "
              "tolerance (or ssnlint-ignore an intentional exact-zero check)");
  }
}

// SSN-L002: std::rand/srand. The C PRNG is low-quality and its sequence is
// implementation-defined, which breaks Monte Carlo reproducibility.
inline void rule_banned_rand(const std::vector<Token>& toks,
                             const std::string& file,
                             std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent || (t.text != "rand" && t.text != "srand"))
      continue;
    // Must look like a call (next token '('), not e.g. a member named rand.
    if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) continue;
    add(out, file, t.line, "SSN-L002",
        "'" + t.text + "' is banned; use a seeded <random> engine");
  }
}

// SSN-L003: solver entry points must carry at least one contract guard so a
// NaN cannot cross a solver boundary silently.
inline bool is_solver_entry_name(const std::string& name) {
  if (name.rfind("solve", 0) == 0) return true;
  static const std::set<std::string> kExact = {
      "rk4",      "rk45",   "levenberg_marquardt", "dc_operating_point",
      "lu_solve", "run_dc", "run_transient",       "run_ac"};
  return kExact.count(name) > 0;
}

inline void rule_unguarded_solver(const std::vector<Token>& toks,
                                  const std::string& file,
                                  std::vector<Diagnostic>& out) {
  static const std::set<std::string> kGuards = {"SSN_REQUIRE", "SSN_ENSURE",
                                                "SSN_ASSERT_FINITE"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent || !is_solver_entry_name(t.text)) continue;
    if (toks[i + 1].text != "(") continue;
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))
      continue;  // member call, not a definition
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close >= toks.size()) continue;
    // A definition: optional qualifiers, then the body brace.
    std::size_t j = close + 1;
    while (j < toks.size() && toks[j].kind == Token::Kind::kIdent &&
           (toks[j].text == "const" || toks[j].text == "noexcept" ||
            toks[j].text == "override" || toks[j].text == "final"))
      ++j;
    if (j >= toks.size() || toks[j].text != "{") continue;  // call or prototype
    const std::size_t body_end = match_forward(toks, j, "{", "}");
    bool guarded = false;
    for (std::size_t k = j; k < body_end && !guarded; ++k)
      if (toks[k].kind == Token::Kind::kIdent && kGuards.count(toks[k].text))
        guarded = true;
    if (!guarded)
      add(out, file, t.line, "SSN-L003",
          "solver entry point '" + t.text +
              "' has no SSN_REQUIRE/SSN_ENSURE/SSN_ASSERT_FINITE guard");
  }
}

// SSN-L004: `double x;` members in structs start as garbage; an aggregate
// someone forgets to brace-init then feeds indeterminate values into the
// solvers (UB, and exactly the kind of bug ASan/MSan only catch at runtime).
inline void rule_uninitialized_double_member(const std::vector<Token>& toks,
                                             const std::string& file,
                                             std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i].text != "struct") continue;
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].kind == Token::Kind::kIdent) ++j;  // name
    // Skip a base-clause up to the opening brace; stop at ';' (fwd decl).
    while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") ++j;
    if (j >= toks.size() || toks[j].text != "{") continue;
    const std::size_t body_end = match_forward(toks, j, "{", "}");
    int depth = 0;
    for (std::size_t k = j + 1; k < body_end; ++k) {
      if (toks[k].kind == Token::Kind::kPunct) {
        if (toks[k].text == "{") ++depth;
        if (toks[k].text == "}") --depth;
        continue;
      }
      if (depth != 0) continue;  // inside a member function / nested scope
      if (toks[k].kind != Token::Kind::kIdent || toks[k].text != "double")
        continue;
      if (k > 0 && (toks[k - 1].text == "static" || toks[k - 1].text == "constexpr" ||
                    toks[k - 1].text == "," || toks[k - 1].text == "("))
        continue;  // statics handled elsewhere; ',' / '(' => parameter list
      // Parse: double name [, name...] terminated by ';'. Any declarator not
      // followed by '=' or '{' is uninitialized. Bail on functions/pointers.
      std::size_t p = k + 1;
      while (p < body_end) {
        if (toks[p].kind != Token::Kind::kIdent) break;  // e.g. '*', '&'
        const std::string member = toks[p].text;
        ++p;
        if (p >= body_end) break;
        const std::string& d = toks[p].text;
        if (d == "=" || d == "{") {
          // initialized: skip to ',' or ';' at depth 0
          int br = 0;
          while (p < body_end) {
            if (toks[p].text == "{" || toks[p].text == "(") ++br;
            if (toks[p].text == "}" || toks[p].text == ")") --br;
            if (br == 0 && (toks[p].text == ";" || toks[p].text == ",")) break;
            ++p;
          }
        } else if (d == ";" || d == ",") {
          add(out, file, toks[k].line, "SSN-L004",
              "struct member 'double " + member +
                  "' has no initializer; default it (e.g. '= 0.0')");
        } else {
          break;  // function, array, bitfield... out of scope for this rule
        }
        if (p < body_end && toks[p].text == ",") {
          ++p;
          continue;
        }
        break;
      }
    }
  }
}

// SSN-L005: a catch-all that neither rethrows nor converts hides solver
// failures as silently-wrong results.
inline void rule_catch_all_swallow(const std::vector<Token>& toks,
                                   const std::string& file,
                                   std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i + 4 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i].text != "catch") continue;
    if (toks[i + 1].text != "(" || toks[i + 2].text != "..." ||
        toks[i + 3].text != ")" || toks[i + 4].text != "{")
      continue;
    const std::size_t body_end = match_forward(toks, i + 4, "{", "}");
    bool rethrows = false;
    for (std::size_t k = i + 5; k < body_end && !rethrows; ++k)
      if (toks[k].kind == Token::Kind::kIdent && toks[k].text == "throw")
        rethrows = true;
    if (!rethrows)
      add(out, file, toks[i].line, "SSN-L005",
          "catch (...) swallows the exception; rethrow or catch a concrete "
          "type");
  }
}

// SSN-L006: solver code (the sim and numeric layers) must throw the typed
// support::SolverError, not a bare std::runtime_error — the recovery ladder
// and batch drivers dispatch on SolverError::kind()/retryable(), and an
// untyped throw silently opts out of recovery.
inline bool is_solver_layer_path(const std::string& file) {
  for (const auto& part : std::filesystem::path(file))
    if (part == "sim" || part == "numeric") return true;
  return false;
}

inline void rule_untyped_solver_throw(const std::vector<Token>& toks,
                                      const std::string& file,
                                      std::vector<Diagnostic>& out) {
  if (!is_solver_layer_path(file)) return;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i].text != "throw") continue;
    std::size_t j = i + 1;
    if (j + 1 < toks.size() && toks[j].text == "std" && toks[j + 1].text == "::")
      j += 2;
    if (j < toks.size() && toks[j].kind == Token::Kind::kIdent &&
        toks[j].text == "runtime_error")
      add(out, file, toks[i].line, "SSN-L006",
          "bare 'throw std::runtime_error' in solver code; throw "
          "support::SolverError with a kind and diagnostics instead");
  }
}

// SSN-L007: the std::sto* / strto* / ato* family silently accepts "inf",
// "nan", hex floats ("0x1p3") and leading whitespace, and throws
// std::out_of_range on overflow — three surprises that have no business at
// an input boundary. All conversions must go through the hardened
// io::parse_double_prefix / io::parse_int_strict, which live in
// src/io/diagnostics.cpp (the single allowlisted file).
inline bool is_hardened_parser_file(const std::string& file) {
  const std::filesystem::path p(file);
  return p.filename() == "diagnostics.cpp" &&
         p.parent_path().filename() == "io";
}

inline void rule_bare_numeric_conversion(const std::vector<Token>& toks,
                                         const std::string& file,
                                         std::vector<Diagnostic>& out) {
  if (is_hardened_parser_file(file)) return;
  static const std::set<std::string> kBanned = {
      "stod",  "stof",  "stold",  "stoi",   "stol",   "stoll", "stoul",
      "stoull", "strtod", "strtof", "strtold", "strtol", "strtoll",
      "strtoul", "strtoull", "atof", "atoi", "atol", "atoll"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent || kBanned.count(t.text) == 0) continue;
    if (toks[i + 1].text != "(") continue;  // must look like a call
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))
      continue;  // member call on some unrelated object
    add(out, file, t.line, "SSN-L007",
        "bare '" + t.text +
            "' accepts inf/nan/hex and throws std::out_of_range; use "
            "io::parse_double_prefix / io::parse_int_strict instead");
  }
}

// SSN-L008: dense-matrix construction or from_dense conversion inside a loop
// body in solver code. The engine's hot path stamps straight into a cached
// sparse pattern (StampedMatrix + SparseFactor::refactorize) precisely so no
// O(n^2) dense build happens per Newton iteration or per time step; a
// `Matrix a(n, n)` or `SparseMatrix::from_dense(...)` inside a loop quietly
// reintroduces that cost. Loop-free dense builds (setup, factor once) are
// fine, as is anything outside src/sim and src/numeric.
inline void rule_dense_in_loop(const std::vector<Token>& toks,
                               const std::string& file,
                               std::vector<Diagnostic>& out) {
  if (!is_solver_layer_path(file)) return;
  // Token ranges of every loop body: for/while (...) { ... } or a single
  // statement up to ';', and do { ... } while (...).
  std::vector<std::pair<std::size_t, std::size_t>> bodies;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    std::size_t body = toks.size();
    if (toks[i].text == "for" || toks[i].text == "while") {
      if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
      const std::size_t close = match_forward(toks, i + 1, "(", ")");
      if (close >= toks.size()) continue;
      body = close + 1;
    } else if (toks[i].text == "do") {
      body = i + 1;
    } else {
      continue;
    }
    if (body >= toks.size()) continue;
    if (toks[body].text == "{") {
      bodies.emplace_back(body + 1, match_forward(toks, body, "{", "}"));
    } else {
      std::size_t j = body;
      while (j < toks.size() && toks[j].text != ";") ++j;
      bodies.emplace_back(body, j);
    }
  }
  if (bodies.empty()) return;
  const auto in_loop = [&bodies](std::size_t k) {
    for (const auto& range : bodies)
      if (k >= range.first && k < range.second) return true;
    return false;
  };
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))
      continue;  // member access on an unrelated object
    if (!in_loop(i)) continue;
    // `Matrix(...)` temporary, or `Matrix name(...)` / `Matrix name{...}`.
    const bool ctor_temp = toks[i + 1].text == "(";
    const bool ctor_named =
        i + 2 < toks.size() && toks[i + 1].kind == Token::Kind::kIdent &&
        (toks[i + 2].text == "(" || toks[i + 2].text == "{");
    if (t.text == "Matrix" && (ctor_temp || ctor_named)) {
      add(out, file, t.line, "SSN-L008",
          "dense Matrix constructed inside a loop in solver code; hoist it "
          "out or stamp into a cached StampedMatrix pattern");
    } else if (t.text == "from_dense" && ctor_temp) {
      add(out, file, t.line, "SSN-L008",
          "SparseMatrix::from_dense inside a loop in solver code; build the "
          "pattern once and refill with StampedMatrix::clear + stamps");
    }
  }
}

// SSN-L009: job-lifecycle hygiene. Two patterns:
//
//  (a) A raw signal()/sigaction()/raise() call outside src/support. The CLI
//      installs exactly one handler pair through support::ScopedSignalCancel
//      (which trips the shared RunContext and restores the previous handler
//      on scope exit); a second ad-hoc handler silently replaces it and the
//      batch stops responding to Ctrl-C. std::raise in tests is fine — the
//      linter only runs over src/.
//
//  (b) An unbounded loop — `while (true)`, `while (1)`, `for (;;)` — in
//      src/analysis whose body never consults the lifecycle layer
//      (stop_requested / try_start_item / RunContext / cancel_requested).
//      Batch drivers are exactly the code --deadline and SIGINT must be able
//      to stop; an unbounded loop that never polls is uncancellable.
inline bool is_support_layer_path(const std::string& file) {
  for (const auto& part : std::filesystem::path(file))
    if (part == "support") return true;
  return false;
}

inline bool is_analysis_layer_path(const std::string& file) {
  for (const auto& part : std::filesystem::path(file))
    if (part == "analysis") return true;
  return false;
}

inline void rule_lifecycle_hygiene(const std::vector<Token>& toks,
                                   const std::string& file,
                                   std::vector<Diagnostic>& out) {
  // (a) raw signal-management calls outside the support layer.
  if (!is_support_layer_path(file)) {
    static const std::set<std::string> kSignalCalls = {"signal", "sigaction",
                                                       "raise"};
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Token::Kind::kIdent || kSignalCalls.count(t.text) == 0)
        continue;
      if (toks[i + 1].text != "(") continue;  // must look like a call
      if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))
        continue;  // member call on an unrelated object
      // `struct sigaction sa;` declares the type, `sigaction(...)` calls it;
      // the call-position check above already separates them.
      add(out, file, t.line, "SSN-L009",
          "raw '" + t.text +
              "' outside src/support; install handlers through "
              "support::ScopedSignalCancel so the shared RunContext is "
              "tripped");
    }
  }

  // (b) unbounded loops in analysis batch code that never poll the
  // lifecycle layer.
  if (!is_analysis_layer_path(file)) return;
  static const std::set<std::string> kLifecycleTokens = {
      "stop_requested", "try_start_item", "RunContext", "cancel_requested"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    bool unbounded = false;
    std::size_t close = toks.size();
    if ((toks[i].text == "while" || toks[i].text == "for") &&
        toks[i + 1].text == "(") {
      close = match_forward(toks, i + 1, "(", ")");
      if (close >= toks.size()) continue;
      if (toks[i].text == "while") {
        // while (true) / while (1)
        unbounded = close == i + 3 &&
                    (toks[i + 2].text == "true" || toks[i + 2].text == "1");
      } else {
        // for (;;)
        unbounded =
            close == i + 4 && toks[i + 2].text == ";" && toks[i + 3].text == ";";
      }
    }
    if (!unbounded) continue;
    std::size_t body_end = toks.size();
    std::size_t body = close + 1;
    if (body < toks.size() && toks[body].text == "{") {
      body_end = match_forward(toks, body, "{", "}");
      ++body;
    } else {
      body_end = body;
      while (body_end < toks.size() && toks[body_end].text != ";") ++body_end;
    }
    bool polls = false;
    for (std::size_t k = body; k < body_end && !polls; ++k)
      if (toks[k].kind == Token::Kind::kIdent &&
          kLifecycleTokens.count(toks[k].text) != 0)
        polls = true;
    if (!polls)
      add(out, file, toks[i].line, "SSN-L009",
          "unbounded loop in analysis batch code never polls the lifecycle "
          "layer; check RunContext::stop_requested (or gate items with "
          "try_start_item) so --deadline and SIGINT can stop it");
  }
}

// SSN-L014: process hygiene. Raw process-management syscalls — fork/vfork,
// waitpid/wait, kill, the exec family, posix_spawn — have exactly two
// sanctioned homes: the support layer (support/subprocess.hpp is the spawn/
// reap/kill wrapper, support/crashclean.cpp the crash-path killer) and the
// serve-layer supervisor (src/serve/supervisor*), which owns worker
// lifecycles end to end. Anywhere else, a hand-rolled fork leaks a pid the
// crash-kill registry doesn't know about (so a crash-path _Exit orphans it)
// and an ad-hoc waitpid races the supervisor's reaper for exit statuses.
inline bool is_process_sanctioned_path(const std::string& file) {
  if (is_support_layer_path(file)) return true;
  const std::filesystem::path p(file);
  bool in_serve = false;
  for (const auto& part : p)
    if (part == "serve") in_serve = true;
  return in_serve && p.stem().string().rfind("supervisor", 0) == 0;
}

inline void rule_process_hygiene(const std::vector<Token>& toks,
                                 const std::string& file,
                                 std::vector<Diagnostic>& out) {
  if (is_process_sanctioned_path(file)) return;
  static const std::set<std::string> kProcessCalls = {
      "fork",  "vfork",  "waitpid",     "wait",         "kill",
      "execl", "execlp", "execle",      "execv",        "execvp",
      "execve", "execvpe", "posix_spawn", "posix_spawnp"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent || kProcessCalls.count(t.text) == 0)
      continue;
    if (toks[i + 1].text != "(") continue;  // must look like a call
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))
      continue;  // member call (cv.wait(lock), process.kill()) is fine
    // A preceding identifier means a declaration (`pid_t fork(...)`,
    // `void kill() {}`), not a call — unless it is a statement keyword
    // (`return fork();`), which does precede real calls.
    if (i > 0 && toks[i - 1].kind == Token::Kind::kIdent) {
      static const std::set<std::string> kStmtKeywords = {
          "return", "co_return", "co_yield", "case", "else", "do"};
      if (kStmtKeywords.count(toks[i - 1].text) == 0) continue;
    }
    add(out, file, t.line, "SSN-L014",
        "raw '" + t.text +
            "' outside src/support and the serve supervisor; use "
            "support/subprocess.hpp (spawn_child/wait_child/kill_child) so "
            "the pid is crash-kill registered and reaped exactly once");
  }
}

// SSN-L013: a solver/analysis result consumed without ever inspecting its
// status. The producers below return status-bearing results (a TrustReport,
// an ok()/error pair, or a StopReason); reading v_max/mean/rows off one
// while never looking at any of those members is a silent-wrong-answer
// hazard — a degraded or cancelled result is indistinguishable from a good
// one at the point of use. Two shapes are checked:
//
//   (a) chained temporary: `measure_ssn(spec).v_max` — the result object is
//       gone before anything could inspect it;
//   (b) a named result whose every use in its scope is a member read of a
//       non-status member. Forwarding the variable anywhere (function
//       argument, return, copy) delegates the obligation and is accepted.
inline bool is_result_producer(const std::string& name) {
  static const std::set<std::string> kProducers = {
      "run_transient", "run_transient_resilient", "measure_ssn",
      "measure_ssn_resilient", "monte_carlo_vmax", "monte_carlo_vmax_sim",
      "run_driver_sweep", "run_capacitance_sweep", "run_query"};
  return kProducers.count(name) != 0;
}

inline bool is_status_member(const std::string& name) {
  static const std::set<std::string> kInspect = {
      "ok",      "error", "error_kind", "trust",      "verdict", "stop",
      "status",  "summary", "fidelity", "resilience", "stats"};
  return kInspect.count(name) != 0;
}

/// Walk a `.a.b(...)->c` member chain starting at the '.'/'->' token `j`.
/// Returns true when any member on the chain is a status member; `any` is
/// set when the chain contained at least one member access.
inline bool chain_inspects_status(const std::vector<Token>& toks,
                                  std::size_t j, bool& any) {
  while (j + 1 < toks.size() && toks[j].kind == Token::Kind::kPunct &&
         (toks[j].text == "." || toks[j].text == "->") &&
         toks[j + 1].kind == Token::Kind::kIdent) {
    any = true;
    if (is_status_member(toks[j + 1].text)) return true;
    j += 2;
    // Skip a member call's argument list so the chain can continue past it
    // (`.waveform(node).value`).
    if (j < toks.size() && toks[j].text == "(") j = match_forward(toks, j, "(", ")") + 1;
  }
  return false;
}

inline void rule_uninspected_result(const std::vector<Token>& toks,
                                    const std::string& file,
                                    std::vector<Diagnostic>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdent || !is_result_producer(t.text)) continue;
    if (toks[i + 1].text != "(") continue;  // must look like a call
    if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))
      continue;  // member call on an unrelated object
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close + 1 >= toks.size()) continue;
    // Definitions and prototypes are the producer itself, not a consumption
    // site: the producer token is preceded by its return type
    // (`SsnMeasurement measure_ssn(...)`) or directly followed by its body.
    const std::string& after = toks[close + 1].text;
    if (after == "{" || after == "const" || after == "noexcept") continue;
    if (i > 0 && toks[i - 1].kind == Token::Kind::kIdent &&
        toks[i - 1].text != "return")
      continue;

    // (a) chained temporary access: `producer(...).member...`.
    if (after == "." || after == "->") {
      bool any = false;
      if (!chain_inspects_status(toks, close + 1, any) && any)
        add(out, file, t.line, "SSN-L013",
            "value read off the temporary result of '" + t.text +
                "' without inspecting its status; bind it to a name and "
                "check ok()/error/stop/trust first");
      continue;
    }

    // (b) named result: `[const] [auto|Type] name = [ns ::] producer(...)`.
    // Step back over namespace qualification to find the '=' and the name.
    std::size_t q = i;
    while (q >= 2 && toks[q - 1].text == "::" &&
           toks[q - 2].kind == Token::Kind::kIdent)
      q -= 2;
    if (q < 2 || toks[q - 1].text != "=" ||
        toks[q - 2].kind != Token::Kind::kIdent)
      continue;
    if (q >= 3 && (toks[q - 3].text == "." || toks[q - 3].text == "->"))
      continue;  // assignment into a member: the result escapes
    const std::string name = toks[q - 2].text;

    // Scan every use of `name` until the enclosing scope closes.
    bool inspected = false;
    bool any_use = false;
    int depth = 0;
    for (std::size_t k = close + 1; k < toks.size(); ++k) {
      if (toks[k].kind == Token::Kind::kPunct) {
        if (toks[k].text == "{") ++depth;
        if (toks[k].text == "}" && --depth < 0) break;  // scope ended
        continue;
      }
      if (toks[k].kind != Token::Kind::kIdent || toks[k].text != name) continue;
      if (toks[k - 1].text == "." || toks[k - 1].text == "->" ||
          toks[k - 1].text == "::")
        continue;  // a member of something else that shares the name
      if (k + 1 < toks.size() &&
          (toks[k + 1].text == "." || toks[k + 1].text == "->")) {
        bool any = false;
        if (chain_inspects_status(toks, k + 1, any)) {
          inspected = true;
          break;
        }
        any_use = true;
      } else {
        // Any non-member-access use (argument, return, copy, &name) hands
        // the result to code that can inspect it; accept it.
        inspected = true;
        break;
      }
    }
    if (!inspected && any_use)
      add(out, file, toks[q - 2].line, "SSN-L013",
          "result '" + name + "' of '" + t.text +
              "' is consumed without any status check; inspect "
              "ok()/error/stop/trust (or forward the result) before reading "
              "values off it");
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Baseline fingerprints. A finding is identified by its rule, the file's
// basename, and an FNV-1a hash of the offending line with whitespace removed
// — stable across both line-number drift (edits above the finding) and
// re-indentation, the two most common reasons a grandfathered finding would
// otherwise escape its baseline entry.
// ---------------------------------------------------------------------------

namespace detail {

inline std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace detail

inline std::string fingerprint_of(const std::string& rule,
                                  const std::string& file,
                                  const std::string& line_text) {
  std::string norm;
  norm.reserve(line_text.size());
  for (const char c : line_text)
    if (!std::isspace(unsigned(c))) norm += c;
  const std::string base = std::filesystem::path(file).filename().string();
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    detail::fnv1a(rule + '|' + base + '|' + norm)));
  return buf;
}

inline std::vector<std::string> split_lines(const std::string& source) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : source) {
    if (c == '\n') {
      lines.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(std::move(cur));
  return lines;
}

/// Attach the fix-it hint and baseline fingerprint; `lines` is the file
/// split with split_lines() (may be empty for synthetic diagnostics, which
/// then fingerprint on the message instead of the source line).
inline void finalize_diagnostic(Diagnostic& d,
                                const std::vector<std::string>& lines) {
  d.hint = rule_fixit(d.rule);
  const bool have_line = d.line >= 1 && std::size_t(d.line) <= lines.size();
  d.fingerprint = fingerprint_of(
      d.rule, d.file, have_line ? lines[std::size_t(d.line) - 1] : d.message);
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

inline std::vector<Diagnostic> lint_source(const std::string& file,
                                           const std::string& source) {
  const StrippedSource stripped = strip_source(source);
  const std::vector<Token> toks = tokenize(stripped.code);
  std::vector<Diagnostic> all;
  detail::rule_float_compare(toks, file, all);
  detail::rule_banned_rand(toks, file, all);
  detail::rule_unguarded_solver(toks, file, all);
  detail::rule_uninitialized_double_member(toks, file, all);
  detail::rule_catch_all_swallow(toks, file, all);
  detail::rule_untyped_solver_throw(toks, file, all);
  detail::rule_bare_numeric_conversion(toks, file, all);
  detail::rule_dense_in_loop(toks, file, all);
  detail::rule_lifecycle_hygiene(toks, file, all);
  detail::rule_process_hygiene(toks, file, all);
  detail::rule_uninspected_result(toks, file, all);

  std::vector<Diagnostic> kept;
  for (const Diagnostic& d : all) {
    bool suppressed = false;
    for (int l : {d.line, d.line - 1}) {
      const auto it = stripped.suppressions.find(l);
      if (it != stripped.suppressions.end() &&
          (it->second.count(d.rule) || it->second.count("all")))
        suppressed = true;
    }
    if (!suppressed) kept.push_back(d);
  }
  const std::vector<std::string> lines = split_lines(source);
  for (Diagnostic& d : kept) finalize_diagnostic(d, lines);
  std::sort(kept.begin(), kept.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return kept;
}

inline std::vector<Diagnostic> lint_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    Diagnostic d;
    d.file = path.string();
    d.rule = "SSN-L000";
    d.message = "cannot open file";
    return {d};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_source(path.string(), ss.str());
}

inline bool lintable_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

/// Lint every .hpp/.cpp under each path (file or directory, recursive).
inline std::vector<Diagnostic> lint_paths(const std::vector<std::string>& paths,
                                          std::size_t* files_scanned = nullptr) {
  std::vector<std::filesystem::path> files;
  for (const std::string& p : paths) {
    const std::filesystem::path root(p);
    if (std::filesystem::is_directory(root)) {
      for (const auto& e : std::filesystem::recursive_directory_iterator(root))
        if (e.is_regular_file() && lintable_extension(e.path()))
          files.push_back(e.path());
    } else {
      files.push_back(root);
    }
  }
  std::sort(files.begin(), files.end());
  if (files_scanned) *files_scanned = files.size();
  std::vector<Diagnostic> out;
  for (const auto& f : files) {
    std::vector<Diagnostic> d = lint_file(f);
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

}  // namespace ssnlint
