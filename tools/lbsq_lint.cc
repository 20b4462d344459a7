// lbsq_lint — project-specific static checker for the lbsq tree.
//
// This box builds with g++ only (no clang-tidy, no cppcheck), so the
// invariants the codebase promises in prose — the abort/Status boundary
// of DESIGN.md §7, the mutex discipline of the shared routing table,
// deterministic experiments — are enforced here, by a comment/string-
// aware lexer over the sources (no full C++ parse; the rules are chosen
// so token-level analysis is sound for this codebase's style).
//
// Rules (see --list-rules and DESIGN.md "Static analysis layer"):
//   check-in-decode-surface  no aborting construct in hostile-input code
//   guarded-by               mutex-owning classes annotate every member
//   guarded-access           LBSQ_GUARDED_BY members only touched with
//                            the mutex provably held (flow-sensitive)
//   status-propagation       StatusOr value access dominated by ok()
//   event-loop-blocking      no blocking calls on the poll-loop thread
//   determinism              no nondeterministic randomness sources
//   banned-function          sprintf/strtok/atof/... are off limits
//   naked-new-delete         ownership goes through smart pointers
//   header-guard             every header has a guard or #pragma once
//   using-namespace-header   no `using namespace` in headers
//
// The first seven rules are token-local. guarded-access and
// status-propagation are *flow-sensitive*: the linter runs two passes
// over the input set — pass 1 builds a registry of every class's mutex
// members, LBSQ_GUARDED_BY(member -> mutex) map and LBSQ_REQUIRES
// method contracts; pass 2 walks each function body with a scope stack,
// tracking the must-held lock set through lock_guard / scoped_lock /
// unique_lock construction (incl. defer/adopt tags), explicit
// .lock()/.unlock(), LBSQ_ASSERT_HELD, scope exits and early returns,
// and tracking the checked-ness of each StatusOr local through
// dominating .ok() branches and LBSQ_RETURN_IF_ERROR. The lattice is
// deliberately conservative (must-held, not may-held): a lock taken
// inside a conditional is not held after it, an unlock anywhere kills
// held-ness for the rest of the scope. Lambda bodies are treated as
// inline blocks that inherit the enclosing lock state — exactly right
// for condition_variable wait predicates, the one lambda idiom the
// serving stack uses under a lock. Constructors are exempt (the object
// is not shared during construction; clang exempts them too).
//
// Escape hatches:
//   // lint: allow(rule-id)   suppresses `rule-id` on this line and the
//                             next (so a pragma may sit on its own line
//                             above a long statement).
//   // lint: surface(decode)  marks the whole file as a hostile-input
//                             decode surface (used by future surfaces
//                             and the fixture self-tests; the two known
//                             production surfaces are also hardwired by
//                             path so deleting the comment cannot evade
//                             the check).
//
// Output: `file:line: rule-id: message`, one finding per line, sorted;
// exit status 1 if anything fired, 0 on a clean tree.

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

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------

struct RuleInfo {
  const char* id;
  const char* summary;
};

const RuleInfo kRules[] = {
    {"check-in-decode-surface",
     "LBSQ_CHECK / aborting ByteReader reads / abort() are forbidden inside "
     "hostile-input decode surfaces (DESIGN.md S7); use the Try* tier and "
     "return Status"},
    {"guarded-by",
     "every data member of a class that owns a std::mutex must carry "
     "LBSQ_GUARDED_BY(mu) / LBSQ_PT_GUARDED_BY(mu) / LBSQ_EXCLUDED(reason) "
     "from common/annotations.h"},
    {"guarded-access",
     "flow-sensitive lock check: a member declared LBSQ_GUARDED_BY(mu) may "
     "only be read or written while mu is provably held (RAII guard, "
     "explicit lock, LBSQ_REQUIRES entry contract or LBSQ_ASSERT_HELD); "
     "calling an LBSQ_REQUIRES method needs the mutex held at the call "
     "site, and a manually locked mutex may not leak past a return"},
    {"status-propagation",
     "inside Status/StatusOr-returning functions, value access "
     "(.value() / * / ->) on a StatusOr local must be dominated by an "
     ".ok() check or LBSQ_RETURN_IF_ERROR on that same local; "
     "re-assignment invalidates earlier checks"},
    {"event-loop-blocking",
     "src/net/event_loop.cc, net_server.cc and push/push_scheduler.cc "
     "run on the single poll thread: sleeping "
     "(sleep/usleep/nanosleep/sleep_for/sleep_until), blocking accept(2) "
     "(use accept4 + SOCK_NONBLOCK) and MSG_WAITALL recv/send are banned "
     "there"},
    {"determinism",
     "std::random_device, rand, srand, time()-seeding and now()-as-seed are "
     "banned outside src/common/rng.h; experiments must replay from the seed "
     "alone"},
    {"banned-function",
     "sprintf/vsprintf/strtok/atof/atoi/atol/gets are banned (unbounded or "
     "locale/error-blind); use snprintf / strto* / std::from_chars"},
    {"naked-new-delete",
     "naked new/delete outside the storage allowlist; ownership goes through "
     "std::make_unique / containers"},
    {"header-guard",
     "headers start with an include guard (#ifndef/#define) or #pragma once"},
    {"using-namespace-header",
     "`using namespace` in a header leaks into every includer"},
};

// Hostile-input surfaces, hardwired by path suffix: function-name
// patterns (trailing '*' = prefix match) inside which rule
// check-in-decode-surface applies.
struct SurfaceRule {
  const char* path_suffix;
  std::vector<const char*> function_patterns;
};

const SurfaceRule kSurfaces[] = {
    {"core/wire_format.cc", {"Decode*", "Read*", "Try*"}},
    {"storage/checksummed_page_store.cc", {"Verify", "LoadTable", "Scrub"}},
    {"net/frame.cc", {"Decode*", "Next", "Feed", "Read*", "Try*"}},
};

// Single-threaded poll-loop surfaces, hardwired by path suffix: rule
// event-loop-blocking applies to every function in these files. The
// push scheduler runs entirely inside EventLoop callbacks, so it is a
// loop surface like the loop itself.
const char* kLoopSurfaceSuffixes[] = {"net/event_loop.cc", "net/net_server.cc",
                                      "push/push_scheduler.cc"};

// Calls that park the poll-loop thread. `accept` is listed because the
// loop must go through accept4(SOCK_NONBLOCK); MSG_WAITALL is caught
// separately (it turns a nonblocking recv into a blocking one).
const std::set<std::string> kBlockingCalls = {
    "sleep", "usleep", "nanosleep", "sleep_for", "sleep_until", "accept"};

// Files whose job is randomness or which may legitimately draw from the
// banned determinism sources.
const char* kDeterminismAllowedSuffixes[] = {"common/rng.h"};

// Directories whose files may use naked new/delete (page arenas own raw
// storage). Currently empty: the tree uses smart pointers throughout.
const char* kNewDeleteAllowedSuffixes[] = {"storage/page_arena"};

bool MatchesPattern(const std::string& name, const char* pattern) {
  const size_t len = std::strlen(pattern);
  if (len > 0 && pattern[len - 1] == '*') {
    return name.compare(0, len - 1, pattern, len - 1) == 0;
  }
  return name == pattern;
}

bool HasSuffix(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ---------------------------------------------------------------------
// Lexer: comments and string/char literals are stripped (so banned
// identifiers inside them never fire), but comment text is scanned for
// lint pragmas first.
// ---------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
  bool is_ident = false;
};

struct LexedFile {
  std::vector<Token> tokens;
  // rule-ids allowed per line (pragma covers its line and the next).
  std::map<int, std::set<std::string>> allows;
  // lines of the file with comments/literals blanked, for line-oriented
  // checks (header guards).
  std::vector<std::string> stripped_lines;
  bool whole_file_decode_surface = false;
};

void RecordPragma(LexedFile* out, const std::string& comment, int line) {
  // Accept "lint: allow(rule)" and "lint:allow(rule)"; several pragmas
  // may share one comment.
  size_t pos = 0;
  while ((pos = comment.find("lint:", pos)) != std::string::npos) {
    size_t p = pos + 5;
    while (p < comment.size() && std::isspace(static_cast<unsigned char>(
                                     comment[p]))) {
      ++p;
    }
    if (comment.compare(p, 6, "allow(") == 0) {
      const size_t close = comment.find(')', p + 6);
      if (close != std::string::npos) {
        out->allows[line].insert(comment.substr(p + 6, close - (p + 6)));
      }
    } else if (comment.compare(p, 8, "surface(") == 0) {
      const size_t close = comment.find(')', p + 8);
      if (close != std::string::npos &&
          comment.substr(p + 8, close - (p + 8)) == "decode") {
        out->whole_file_decode_surface = true;
      }
    }
    pos = p;
  }
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

LexedFile Lex(const std::string& text) {
  LexedFile out;
  std::string stripped;  // same length/line structure as text
  stripped.reserve(text.size());

  int line = 1;
  size_t i = 0;
  const size_t n = text.size();
  auto advance_copy = [&](char c) {
    stripped.push_back(c);
    if (c == '\n') ++line;
  };
  auto advance_blank = [&](char c) {
    stripped.push_back(c == '\n' ? '\n' : ' ');
    if (c == '\n') ++line;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const int start_line = line;
      size_t j = i;
      while (j < n && text[j] != '\n') ++j;
      RecordPragma(&out, text.substr(i, j - i), start_line);
      while (i < j) advance_blank(text[i++]);
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const int start_line = line;
      size_t j = i + 2;
      while (j + 1 < n && !(text[j] == '*' && text[j + 1] == '/')) ++j;
      const size_t end = (j + 1 < n) ? j + 2 : n;
      RecordPragma(&out, text.substr(i, end - i), start_line);
      while (i < end) advance_blank(text[i++]);
    } else if (c == '"' || c == '\'') {
      // Raw strings: R"delim( ... )delim"
      const bool raw = c == '"' && i > 0 && text[i - 1] == 'R' &&
                       (i < 2 || !IsIdentChar(text[i - 2]));
      if (raw) {
        size_t j = i + 1;
        std::string delim;
        while (j < n && text[j] != '(') delim.push_back(text[j++]);
        const std::string closer = ")" + delim + "\"";
        const size_t close = text.find(closer, j);
        const size_t end = close == std::string::npos ? n : close + closer.size();
        while (i < end) advance_blank(text[i++]);
      } else {
        const char quote = c;
        advance_blank(text[i++]);
        while (i < n && text[i] != quote) {
          if (text[i] == '\\' && i + 1 < n) advance_blank(text[i++]);
          if (i < n) advance_blank(text[i++]);
        }
        if (i < n) advance_blank(text[i++]);  // closing quote
      }
    } else {
      advance_copy(text[i++]);
    }
  }

  // Split the stripped text into lines (header-guard checks) and tokens.
  {
    std::istringstream lines(stripped);
    std::string l;
    while (std::getline(lines, l)) out.stripped_lines.push_back(l);
  }

  int tline = 1;
  i = 0;
  while (i < stripped.size()) {
    const char c = stripped[i];
    if (c == '\n') {
      ++tline;
      ++i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (IsIdentChar(c)) {
      size_t j = i;
      while (j < stripped.size() && IsIdentChar(stripped[j])) ++j;
      Token t;
      t.text = stripped.substr(i, j - i);
      t.line = tline;
      t.is_ident = !std::isdigit(static_cast<unsigned char>(c));
      out.tokens.push_back(std::move(t));
      i = j;
    } else {
      // Punctuation; fold "::" and "->" (the member-access and scope
      // operators the rules look at), everything else is single.
      Token t;
      if (c == ':' && i + 1 < stripped.size() && stripped[i + 1] == ':') {
        t.text = "::";
        i += 2;
      } else if (c == '-' && i + 1 < stripped.size() &&
                 stripped[i + 1] == '>') {
        t.text = "->";
        i += 2;
      } else {
        t.text = std::string(1, c);
        ++i;
      }
      t.line = tline;
      out.tokens.push_back(std::move(t));
    }
  }
  return out;
}

// ---------------------------------------------------------------------
// Class registry (pass 1 of the flow-sensitive rules)
// ---------------------------------------------------------------------
// Keyed by unqualified class name — unique across this tree for every
// class that matters (the lint would collide registries for same-named
// classes in different namespaces; none exist, and a collision only
// widens the guarded set, it cannot hide a finding for an existing
// member/mutex pair).

struct ClassInfo {
  std::set<std::string> mutexes;               // std::mutex data members
  std::map<std::string, std::string> guarded;  // member -> guarding mutex
  // method name -> mutexes its LBSQ_REQUIRES contract demands on entry.
  std::map<std::string, std::set<std::string>> requires_held;

  bool NeedsBodyAnalysis() const {
    return !guarded.empty() || !requires_held.empty();
  }
};

using ClassRegistry = std::map<std::string, ClassInfo>;

// ---------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------

struct Finding {
  std::string path;
  int line;
  std::string rule;
  std::string message;
};

class Linter {
 public:
  Linter(std::vector<Finding>* findings, ClassRegistry* registry)
      : findings_(findings), registry_(registry) {}

  // Pass 1: populate the class registry, report nothing.
  void CollectFile(const std::string& display_path, const LexedFile& lexed);
  // Pass 2: the checks, consulting the registry built by pass 1.
  void CheckFile(const std::string& display_path, const LexedFile& lexed);

 private:
  void Report(int line, const char* rule, const std::string& message) {
    if (collecting_) return;
    // A pragma on the finding's line or on the line just above it
    // suppresses the finding.
    for (int l = line - 1; l <= line; ++l) {
      auto it = lexed_->allows.find(l);
      if (it != lexed_->allows.end() && it->second.count(rule)) return;
    }
    findings_->push_back({path_, line, rule, message});
  }

  const Token& Tok(size_t i) const {
    static const Token kEmpty;
    return i < lexed_->tokens.size() ? lexed_->tokens[i] : kEmpty;
  }
  bool PrevIsMemberAccess(size_t i) const {
    if (i == 0) return false;
    const std::string& p = lexed_->tokens[i - 1].text;
    return p == "." || p == "->";
  }

  // Context of one function body, assembled by the signature automaton
  // when its '{' opens; consumed by the flow analyses when it closes.
  struct FuncCtx {
    std::string name;
    std::string class_name;  // qualifier or enclosing class ("" = free)
    bool is_ctor = false;
    bool is_dtor = false;
    bool returns_status = false;     // Status/StatusOr in the return type
    bool has_acquire_release = false;  // LBSQ_ACQUIRE/RELEASE on the sig
    std::set<std::string> entry_held;  // LBSQ_REQUIRES on the definition
  };

  void CheckHeaderGuard();
  void ScanTokens();
  void CheckMemberAnnotations(size_t class_open_index, size_t class_close_index,
                              int class_line, const std::string& class_name);
  void CollectClassInfo(size_t class_open_index, size_t class_close_index,
                        const std::string& class_name);
  void AnalyzeLockDiscipline(size_t body_open, size_t body_close,
                             const FuncCtx& ctx, const ClassInfo& info);
  void AnalyzeStatusFlow(size_t body_open, size_t body_close);
  void CheckDeterminismToken(size_t i);
  void CheckBannedToken(size_t i);
  void CheckSurfaceToken(size_t i);
  void CheckLoopToken(size_t i);
  // Computes the per-file rule configuration (surface tables, allow
  // lists, path-keyed toggles) shared by both passes.
  void SetupFile(const std::string& display_path);

  // Statement bounds around token i: [begin, end) delimited by ; { } at
  // the same nesting, used for "is this now() a seed" context checks.
  std::pair<size_t, size_t> StatementAround(size_t i) const;

  // Index of the token matching `open_text` at token index i (which must
  // hold `open_text`), scanning to `limit`; returns `limit` if unmatched.
  size_t MatchForward(size_t i, const char* open_text, const char* close_text,
                      size_t limit) const;
  // First index >= i past a balanced <...> template argument list (i must
  // point at '<'); returns i unchanged if Tok(i) is not '<'.
  size_t SkipAngles(size_t i, size_t limit) const;
  // Last identifier token inside [begin, end) — how a mutex argument like
  // `self->mu_` or `queue.mu_` collapses to its mutex name.
  std::string LastIdentIn(size_t begin, size_t end) const;
  // Parses `MACRO(a, b.mu_)`-style args at the '(' at index i into the
  // per-argument last identifiers; returns index of the closing ')'.
  size_t ParseMacroArgs(size_t i, size_t limit,
                        std::vector<std::string>* out) const;

  std::vector<Finding>* findings_;
  ClassRegistry* registry_;
  bool collecting_ = false;
  std::string path_;
  bool is_header_ = false;
  bool in_bench_ = false;
  bool determinism_allowed_ = false;
  bool new_delete_allowed_ = false;
  bool loop_surface_ = false;
  std::vector<const char*> surface_patterns_;
  const LexedFile* lexed_ = nullptr;
};

std::pair<size_t, size_t> Linter::StatementAround(size_t i) const {
  const std::vector<Token>& toks = lexed_->tokens;
  size_t begin = i;
  while (begin > 0) {
    const std::string& t = toks[begin - 1].text;
    if (t == ";" || t == "{" || t == "}") break;
    --begin;
  }
  size_t end = i;
  while (end < toks.size()) {
    const std::string& t = toks[end].text;
    if (t == ";" || t == "{" || t == "}") break;
    ++end;
  }
  return {begin, end};
}

size_t Linter::MatchForward(size_t i, const char* open_text,
                            const char* close_text, size_t limit) const {
  int depth = 0;
  for (size_t j = i; j < limit; ++j) {
    const std::string& t = Tok(j).text;
    if (t == open_text) {
      ++depth;
    } else if (t == close_text) {
      if (--depth == 0) return j;
    }
  }
  return limit;
}

size_t Linter::SkipAngles(size_t i, size_t limit) const {
  if (Tok(i).text != "<") return i;
  int depth = 0;
  for (size_t j = i; j < limit; ++j) {
    const std::string& t = Tok(j).text;
    if (t == "<") ++depth;
    if (t == ">") {
      if (--depth == 0) return j + 1;
    }
    // A template argument list never crosses these; bail out so a lone
    // less-than comparison cannot swallow the rest of the function.
    if (t == ";" || t == "{" || t == "}") return i;
  }
  return limit;
}

std::string Linter::LastIdentIn(size_t begin, size_t end) const {
  std::string last;
  for (size_t j = begin; j < end; ++j) {
    if (Tok(j).is_ident) last = Tok(j).text;
  }
  return last;
}

size_t Linter::ParseMacroArgs(size_t i, size_t limit,
                              std::vector<std::string>* out) const {
  const size_t close = MatchForward(i, "(", ")", limit);
  size_t arg_begin = i + 1;
  int depth = 0;
  for (size_t j = i + 1; j < close; ++j) {
    const std::string& t = Tok(j).text;
    if (t == "(" || t == "<" || t == "[") ++depth;
    if (t == ")" || t == ">" || t == "]") --depth;
    if (t == "," && depth == 0) {
      out->push_back(LastIdentIn(arg_begin, j));
      arg_begin = j + 1;
    }
  }
  if (arg_begin < close) out->push_back(LastIdentIn(arg_begin, close));
  return close;
}

void Linter::CheckLoopToken(size_t i) {
  const Token& t = Tok(i);
  if (!t.is_ident) return;
  if (kBlockingCalls.count(t.text) && Tok(i + 1).text == "(") {
    if (t.text == "accept") {
      Report(t.line, "event-loop-blocking",
             "accept(2) blocks the poll loop; use accept4 with "
             "SOCK_NONBLOCK");
    } else {
      Report(t.line, "event-loop-blocking",
             t.text + "() parks the poll-loop thread; every connection "
             "stalls until it returns");
    }
  } else if (t.text == "MSG_WAITALL") {
    Report(t.line, "event-loop-blocking",
           "MSG_WAITALL turns a nonblocking recv/send into a blocking "
           "one; the loop's fds must stay nonblocking");
  }
}

void Linter::CheckHeaderGuard() {
  // First meaningful line must be `#pragma once` or `#ifndef`.
  for (size_t l = 0; l < lexed_->stripped_lines.size(); ++l) {
    std::string s = lexed_->stripped_lines[l];
    s.erase(0, s.find_first_not_of(" \t"));
    if (s.empty()) continue;
    if (s.rfind("#ifndef", 0) == 0) return;
    if (s.rfind("#pragma", 0) == 0 &&
        s.find("once") != std::string::npos) {
      return;
    }
    Report(static_cast<int>(l + 1), "header-guard",
           "header does not start with an include guard or #pragma once");
    return;
  }
}

void Linter::CheckDeterminismToken(size_t i) {
  if (determinism_allowed_) return;
  const Token& t = Tok(i);
  if (!t.is_ident) return;
  const bool call = Tok(i + 1).text == "(";
  if (t.text == "random_device") {
    Report(t.line, "determinism",
           "std::random_device is nondeterministic; seed an lbsq::Rng");
  } else if ((t.text == "rand" || t.text == "srand") && call &&
             !PrevIsMemberAccess(i)) {
    Report(t.line, "determinism",
           t.text + "() is banned; use lbsq::Rng (common/rng.h)");
  } else if (t.text == "time" && call && !PrevIsMemberAccess(i)) {
    Report(t.line, "determinism",
           "time()-based seeding is banned; experiments replay from fixed "
           "seeds");
  } else if (t.text == "now" && call && Tok(i + 2).text == ")") {
    if (in_bench_) return;  // timing blocks in bench/ are the use case
    // now() is fine for timing; it is banned when the statement around it
    // smells like seeding.
    const auto [begin, end] = StatementAround(i);
    for (size_t j = begin; j < end; ++j) {
      const Token& s = Tok(j);
      if (!s.is_ident) continue;
      std::string lower = s.text;
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char ch) { return std::tolower(ch); });
      if (lower.find("seed") != std::string::npos || s.text == "Rng" ||
          s.text == "mt19937" || s.text == "srand") {
        Report(t.line, "determinism",
               "now() used as a seed; experiments replay from fixed seeds");
        return;
      }
    }
  }
}

void Linter::CheckBannedToken(size_t i) {
  const Token& t = Tok(i);
  if (!t.is_ident) return;
  static const std::set<std::string> kBanned = {
      "sprintf", "vsprintf", "strtok", "atof", "atoi", "atol", "gets"};
  if (kBanned.count(t.text) && Tok(i + 1).text == "(" &&
      !PrevIsMemberAccess(i)) {
    Report(t.line, "banned-function",
           t.text + "() is banned; use a bounded/error-reporting equivalent");
  }
  if (!new_delete_allowed_) {
    if (t.text == "new" && Tok(i - 1).text != "operator") {
      Report(t.line, "naked-new-delete",
             "naked new; use std::make_unique or a container");
    } else if (t.text == "delete" && Tok(i - 1).text != "=" &&
               Tok(i - 1).text != "operator") {
      // `= delete` declares a deleted function; everything else is a
      // deallocation.
      Report(t.line, "naked-new-delete",
             "naked delete; owning pointers must be smart pointers");
    }
  }
}

void Linter::CheckSurfaceToken(size_t i) {
  const Token& t = Tok(i);
  if (!t.is_ident) return;
  if (t.text.rfind("LBSQ_CHECK", 0) == 0 || t.text.rfind("LBSQ_DCHECK", 0) == 0) {
    Report(t.line, "check-in-decode-surface",
           t.text + " aborts on hostile input; return Status instead");
  } else if (t.text == "abort" && Tok(i + 1).text == "(") {
    Report(t.line, "check-in-decode-surface",
           "abort() in a decode surface; return Status instead");
  } else if (PrevIsMemberAccess(i)) {
    if (t.text == "Read" && Tok(i + 1).text == "<") {
      Report(t.line, "check-in-decode-surface",
             "aborting ByteReader::Read<T> on untrusted bytes; use TryRead");
    } else if (t.text == "ReadVarCount" && Tok(i + 1).text == "(") {
      Report(t.line, "check-in-decode-surface",
             "aborting ByteReader::ReadVarCount on untrusted bytes; use "
             "TryReadVarCount");
    }
  }
}

void Linter::CheckMemberAnnotations(size_t class_open_index,
                                    size_t class_close_index, int class_line,
                                    const std::string& class_name) {
  // Member declarations are statements at class depth 1 whose declared
  // name follows the codebase convention (trailing underscore) and is
  // immediately followed by ; = { or [. Function bodies and nested
  // classes are skipped wholesale, so locals never match.
  struct Member {
    std::string name;
    int line;
    bool is_sync_primitive;  // std::mutex / std::condition_variable
    bool annotated;
  };
  std::vector<Member> members;
  bool has_mutex = false;

  size_t i = class_open_index + 1;
  size_t stmt_begin = i;
  int paren_depth = 0;
  while (i < class_close_index) {
    const Token& t = Tok(i);
    if (t.text == "(") {
      ++paren_depth;
    } else if (t.text == ")") {
      --paren_depth;
    } else if (t.text == "{") {
      // Skip nested braces (function bodies, nested classes, brace
      // initializers) — but a brace initializer belongs to the current
      // statement, so only reset the statement start for the others.
      int depth = 1;
      size_t j = i + 1;
      while (j < class_close_index && depth > 0) {
        if (Tok(j).text == "{") ++depth;
        if (Tok(j).text == "}") --depth;
        ++j;
      }
      i = j;
      continue;
    } else if (t.text == ";") {
      stmt_begin = i + 1;
    } else if (t.text == ":" && (Tok(i - 1).text == "public" ||
                                 Tok(i - 1).text == "private" ||
                                 Tok(i - 1).text == "protected")) {
      stmt_begin = i + 1;
    } else if (paren_depth == 0 && t.is_ident && t.text.size() > 1 &&
               t.text.back() == '_') {
      const std::string& next = Tok(i + 1).text;
      if (next == ";" || next == "=" || next == "{" || next == "[") {
        // Statement tokens: from stmt_begin to the terminating ';'.
        size_t end = i;
        int inner_paren = 0, inner_brace = 0;
        while (end < class_close_index) {
          const std::string& e = Tok(end).text;
          if (e == "(") ++inner_paren;
          if (e == ")") --inner_paren;
          if (e == "{") ++inner_brace;
          if (e == "}") --inner_brace;
          if (e == ";" && inner_paren == 0 && inner_brace == 0) break;
          ++end;
        }
        bool is_static = false, is_mutex = false, is_cv = false,
             annotated = false;
        for (size_t j = stmt_begin; j < end; ++j) {
          const std::string& s = Tok(j).text;
          if (s == "static") is_static = true;
          if (s == "mutex") is_mutex = true;
          if (s == "condition_variable") is_cv = true;
          if (s.rfind("LBSQ_GUARDED_BY", 0) == 0 ||
              s.rfind("LBSQ_PT_GUARDED_BY", 0) == 0 ||
              s.rfind("LBSQ_EXCLUDED", 0) == 0) {
            annotated = true;
          }
        }
        if (!is_static) {
          if (is_mutex) has_mutex = true;
          members.push_back({t.text, t.line, is_mutex || is_cv, annotated});
        }
        i = end;  // resume at the terminating ';'
        continue;
      }
    }
    ++i;
  }

  if (!has_mutex) return;
  for (const Member& m : members) {
    if (m.is_sync_primitive || m.annotated) continue;
    Report(m.line, "guarded-by",
           "class " + class_name + " owns a std::mutex; member " + m.name +
               " needs LBSQ_GUARDED_BY / LBSQ_EXCLUDED "
               "(common/annotations.h)");
  }
  (void)class_line;
}

// Pass-1 registry build over one class body: mutex members, the
// LBSQ_GUARDED_BY(member -> mutex) map, and per-method LBSQ_REQUIRES
// contracts (from in-class declarations or inline definitions; an
// out-of-line definition repeating the annotation is also honored, at
// analysis time). Scans class depth 1 only; nested classes and method
// bodies are skipped and collected through their own scopes.
void Linter::CollectClassInfo(size_t class_open_index,
                              size_t class_close_index,
                              const std::string& class_name) {
  if (class_name.empty()) return;
  ClassInfo& info = (*registry_)[class_name];
  size_t i = class_open_index + 1;
  size_t stmt_begin = i;
  while (i < class_close_index) {
    const Token& t = Tok(i);
    if (t.text == "{") {
      i = MatchForward(i, "{", "}", class_close_index) + 1;
      stmt_begin = i;
      continue;
    }
    if (t.text == ";") {
      stmt_begin = i + 1;
      ++i;
      continue;
    }
    if (t.text.rfind("LBSQ_GUARDED_BY", 0) == 0 && Tok(i + 1).text == "(" &&
        Tok(i - 1).is_ident) {
      std::vector<std::string> args;
      const size_t close = ParseMacroArgs(i + 1, class_close_index, &args);
      if (!args.empty() && !args[0].empty()) {
        info.guarded[Tok(i - 1).text] = args[0];
      }
      i = close + 1;
      continue;
    }
    // A mutex member: trailing-underscore name terminated by ';' in a
    // statement whose type mentions `mutex` (std::mutex mu_;).
    if (t.is_ident && t.text.size() > 1 && t.text.back() == '_' &&
        Tok(i + 1).text == ";") {
      for (size_t j = stmt_begin; j < i; ++j) {
        if (Tok(j).text == "mutex" || Tok(j).text == "shared_mutex") {
          info.mutexes.insert(t.text);
          break;
        }
      }
      ++i;
      continue;
    }
    // A method declaration or inline definition: name '(' params ')'
    // [qualifiers / annotations] (';' | '{'). LBSQ_REQUIRES between the
    // parameter list and the terminator is the entry contract.
    if (t.is_ident && Tok(i + 1).text == "(" && !PrevIsMemberAccess(i)) {
      const size_t params_close =
          MatchForward(i + 1, "(", ")", class_close_index);
      size_t j = params_close + 1;
      while (j < class_close_index && Tok(j).text != ";" &&
             Tok(j).text != "{") {
        if (Tok(j).text.rfind("LBSQ_REQUIRES", 0) == 0 &&
            Tok(j + 1).text == "(") {
          std::vector<std::string> args;
          j = ParseMacroArgs(j + 1, class_close_index, &args);
          for (const std::string& mu : args) {
            if (!mu.empty()) info.requires_held[t.text].insert(mu);
          }
        }
        ++j;
      }
      i = j;  // resume at the ';' or '{'; the '{' branch above skips it
      continue;
    }
    ++i;
  }
}

// Flow-sensitive must-held lock analysis over one function body
// [body_open+1, body_close). The held set is a multiset (an outer
// REQUIRES plus an inner re-acquire both count); each brace scope
// records what it acquired so scope exit releases exactly that. The
// join is conservative: anything acquired inside a nested scope is not
// held after it, and an explicit unlock releases for the rest of the
// enclosing scope. Lambdas are inline blocks — they inherit the current
// held set, which is precisely the semantics of a condition_variable
// wait predicate (the lock is held whenever the predicate runs).
void Linter::AnalyzeLockDiscipline(size_t body_open, size_t body_close,
                                   const FuncCtx& ctx,
                                   const ClassInfo& info) {
  struct LockScope {
    std::vector<std::string> acquired;    // undo at scope exit
    std::vector<std::string> guard_vars;  // RAII guards declared here
  };
  std::map<std::string, int> held;
  std::map<std::string, std::vector<std::string>> guards;  // var -> mutexes
  std::set<std::string> manual;  // locked via mu_.lock(), no RAII guard
  std::vector<LockScope> scopes(1);

  for (const std::string& mu : ctx.entry_held) ++held[mu];

  auto is_held = [&](const std::string& mu) {
    auto it = held.find(mu);
    return it != held.end() && it->second > 0;
  };
  auto acquire = [&](const std::string& mu) {
    ++held[mu];
    scopes.back().acquired.push_back(mu);
  };
  // Releases one acquisition of `mu`: decrement held and drop one
  // occurrence from the innermost scope that acquired it, so the later
  // scope exit does not double-release.
  auto release = [&](const std::string& mu) {
    auto it = held.find(mu);
    if (it == held.end() || it->second == 0) return;
    --it->second;
    for (size_t s = scopes.size(); s-- > 0;) {
      auto& acq = scopes[s].acquired;
      for (size_t a = acq.size(); a-- > 0;) {
        if (acq[a] == mu) {
          acq.erase(acq.begin() + a);
          manual.erase(mu);
          return;
        }
      }
    }
  };

  for (size_t i = body_open + 1; i < body_close; ++i) {
    const Token& t = Tok(i);
    if (t.text == "{") {
      scopes.push_back({});
      continue;
    }
    if (t.text == "}") {
      if (scopes.size() > 1) {
        for (const std::string& mu : scopes.back().acquired) {
          --held[mu];
          manual.erase(mu);
        }
        for (const std::string& var : scopes.back().guard_vars) {
          guards.erase(var);
        }
        scopes.pop_back();
      }
      continue;
    }
    if (!t.is_ident) continue;

    // RAII guard construction: lock_guard/scoped_lock/unique_lock
    // [<...>] var (mu[, mu2 | std::defer_lock | std::adopt_lock ...]).
    if ((t.text == "lock_guard" || t.text == "scoped_lock" ||
         t.text == "unique_lock" || t.text == "shared_lock") &&
        !PrevIsMemberAccess(i)) {
      size_t j = SkipAngles(i + 1, body_close);
      if (j == i + 1 && Tok(j).text == "<") continue;  // unbalanced
      if (!Tok(j).is_ident || Tok(j + 1).text != "(") continue;
      const std::string var = Tok(j).text;
      std::vector<std::string> args;
      const size_t close = ParseMacroArgs(j + 1, body_close, &args);
      bool deferred = false;
      std::vector<std::string> mutexes;
      for (const std::string& arg : args) {
        if (arg == "defer_lock" || arg == "try_to_lock") {
          deferred = true;  // not (provably) held after construction
        } else if (arg == "adopt_lock") {
          // Already held by the caller; nothing to acquire, but the
          // guard now owns the release.
        } else if (!arg.empty()) {
          mutexes.push_back(arg);
        }
      }
      guards[var] = mutexes;
      scopes.back().guard_vars.push_back(var);
      if (!deferred) {
        for (const std::string& mu : mutexes) {
          if (manual.count(mu)) {
            manual.erase(mu);  // adopt: manual lock becomes RAII-owned
          } else {
            acquire(mu);
          }
        }
      }
      i = close;
      continue;
    }

    // Explicit lock()/unlock() through a guard variable or a mutex
    // member. try_lock is maybe-held: conservatively not held.
    if ((t.text == "lock" || t.text == "unlock") && PrevIsMemberAccess(i) &&
        Tok(i + 1).text == "(" && Tok(i - 2).is_ident) {
      const std::string recv = Tok(i - 2).text;
      auto g = guards.find(recv);
      if (g != guards.end()) {
        for (const std::string& mu : g->second) {
          if (t.text == "lock") {
            acquire(mu);
          } else {
            release(mu);
          }
        }
      } else if (info.mutexes.count(recv)) {
        if (t.text == "lock") {
          acquire(recv);
          manual.insert(recv);
        } else {
          release(recv);
        }
      }
      continue;
    }

    // LBSQ_ASSERT_HELD(mu): a runtime-checked claim the linter accepts
    // for the rest of the scope.
    if (t.text == "LBSQ_ASSERT_HELD" && Tok(i + 1).text == "(") {
      std::vector<std::string> args;
      const size_t close = ParseMacroArgs(i + 1, body_close, &args);
      for (const std::string& mu : args) {
        if (!mu.empty()) acquire(mu);
      }
      i = close;
      continue;
    }

    // Early return with a manually locked mutex: a leak on this path
    // (an LBSQ_ACQUIRE/RELEASE-annotated function hands locks across
    // its boundary on purpose and is exempt).
    if (t.text == "return" && !manual.empty() && !ctx.has_acquire_release) {
      Report(t.line, "guarded-access",
             "return while '" + *manual.begin() +
                 "' is locked with no RAII guard (leaks the lock on "
                 "this path)");
      continue;
    }

    // Access to a guarded member of the context class.
    auto guarded = info.guarded.find(t.text);
    if (guarded != info.guarded.end()) {
      if (PrevIsMemberAccess(i) && Tok(i - 2).text != "this") {
        continue;  // someone else's member; their class's analysis owns it
      }
      if (Tok(i - 1).text == "::") continue;
      if (!is_held(guarded->second)) {
        Report(t.line, "guarded-access",
               "'" + t.text + "' is guarded by '" + guarded->second +
                   "', which is not held here (class " + ctx.class_name +
                   ")");
      }
      continue;
    }

    // Call site of an LBSQ_REQUIRES method of the context class.
    auto req = info.requires_held.find(t.text);
    if (req != info.requires_held.end() && Tok(i + 1).text == "(" &&
        t.text != ctx.name) {
      if (PrevIsMemberAccess(i) && Tok(i - 2).text != "this") continue;
      if (Tok(i - 1).text == "::") continue;
      for (const std::string& mu : req->second) {
        if (!is_held(mu)) {
          Report(t.line, "guarded-access",
                 "call to '" + t.text + "()' requires '" + mu +
                     "' held (LBSQ_REQUIRES), but it is not held at "
                     "this call site");
        }
      }
      continue;
    }
  }

  if (!manual.empty() && !ctx.has_acquire_release) {
    Report(Tok(body_close).line, "guarded-access",
           "function ends with '" + *manual.begin() +
               "' still locked with no RAII guard");
  }
}

// Dominating-check analysis for StatusOr locals in a Status/StatusOr-
// returning function body. A value access (.value(), ->, unary *) on a
// tracked local is legal only when dominated by a check of that local
// that post-dates its latest assignment:
//   - inside an `if (x.ok() && ...)` block (no || — the disjunction
//     would not guarantee ok on entry),
//   - after an `if (!x.ok() ...)` whose body exits (return/continue/
//     break directly in the body; no && — passing a conjunction does
//     not guarantee ok),
//   - after LBSQ_RETURN_IF_ERROR(...x...) in the same scope,
//   - an x.ok() mention earlier in the same statement (ternaries,
//     short-circuit &&).
// Only locals declared with a spelled-out StatusOr<...> type are
// tracked; `auto` hides the type from a token-level analysis and is
// documented as a known hole (DESIGN.md §8).
void Linter::AnalyzeStatusFlow(size_t body_open, size_t body_close) {
  struct VarScope {
    std::map<std::string, size_t> checked;  // var -> check token index
    std::vector<std::string> declared;
  };
  std::vector<VarScope> scopes(1);
  std::set<std::string> tracked;
  std::map<std::string, size_t> last_assign;
  // var checked at token `check` while inside [begin, end] (the body of
  // a braceless `if (x.ok()) use(*x);`).
  struct Range {
    std::string var;
    size_t check, begin, end;
  };
  std::vector<Range> ranges;
  // Checks that activate when the walk reaches a token index: at a '{'
  // they seed the new scope (positive check over a braced body), at any
  // other index they join the current scope (early-exit negated check).
  std::map<size_t, std::vector<std::pair<std::string, size_t>>> at_open;
  std::map<size_t, std::vector<std::pair<std::string, size_t>>> at_index;

  auto body_exits = [&](size_t begin, size_t end) {
    int depth = 0;
    for (size_t j = begin; j < end; ++j) {
      const std::string& s = Tok(j).text;
      if (s == "{") ++depth;
      if (s == "}") --depth;
      if (depth == 0 &&
          (s == "return" || s == "continue" || s == "break")) {
        return true;
      }
    }
    return false;
  };
  auto is_checked = [&](const std::string& var, size_t use) {
    const size_t assigned = last_assign[var];
    // Same-statement mention of var.ok() (&&-guard, ternary).
    size_t stmt_begin = use;
    while (stmt_begin > body_open) {
      const std::string& s = Tok(stmt_begin - 1).text;
      if (s == ";" || s == "{" || s == "}") break;
      --stmt_begin;
    }
    for (size_t j = stmt_begin; j + 2 < use; ++j) {
      if (Tok(j).text == var && Tok(j + 1).text == "." &&
          Tok(j + 2).text == "ok" && j > assigned) {
        return true;
      }
    }
    for (size_t s = scopes.size(); s-- > 0;) {
      auto it = scopes[s].checked.find(var);
      if (it != scopes[s].checked.end() && it->second > assigned) return true;
    }
    for (const Range& r : ranges) {
      if (r.var == var && use >= r.begin && use <= r.end &&
          r.check > assigned) {
        return true;
      }
    }
    return false;
  };
  auto report_use = [&](const std::string& var, size_t use, int line) {
    if (!tracked.count(var) || is_checked(var, use)) return;
    Report(line, "status-propagation",
           "value access on StatusOr '" + var +
               "' is not dominated by an ok() check or "
               "LBSQ_RETURN_IF_ERROR since its last assignment");
  };

  for (size_t i = body_open + 1; i < body_close; ++i) {
    auto pending = at_index.find(i);
    if (pending != at_index.end()) {
      for (const auto& [var, check] : pending->second) {
        scopes.back().checked[var] = check;
      }
    }
    const Token& t = Tok(i);
    if (t.text == "{") {
      scopes.push_back({});
      auto seed = at_open.find(i);
      if (seed != at_open.end()) {
        for (const auto& [var, check] : seed->second) {
          scopes.back().checked[var] = check;
        }
      }
      continue;
    }
    if (t.text == "}") {
      if (scopes.size() > 1) {
        for (const std::string& var : scopes.back().declared) {
          tracked.erase(var);
          last_assign.erase(var);
        }
        scopes.pop_back();
      }
      continue;
    }

    // Declaration: StatusOr<...> name ( = | ( | { | ; ).
    if (t.text == "StatusOr" && !PrevIsMemberAccess(i) &&
        Tok(i + 1).text == "<") {
      const size_t j = SkipAngles(i + 1, body_close);
      const std::string& after = Tok(j + 1).text;
      if (Tok(j).is_ident &&
          (after == "=" || after == "(" || after == "{" || after == ";")) {
        const std::string var = Tok(j).text;
        tracked.insert(var);
        scopes.back().declared.push_back(var);
        last_assign[var] = j;
        i = j;
      }
      continue;
    }

    // Dominating checks from an if statement.
    if (t.text == "if" && Tok(i + 1).text == "(") {
      const size_t cond_close = MatchForward(i + 1, "(", ")", body_close);
      bool has_or = false, has_and = false;
      std::vector<std::string> positive, negated;
      for (size_t j = i + 2; j < cond_close; ++j) {
        if (Tok(j).text == "|") has_or = true;
        if (Tok(j).text == "&") has_and = true;
        if (tracked.count(Tok(j).text) && Tok(j + 1).text == "." &&
            Tok(j + 2).text == "ok") {
          if (j > i + 2 && Tok(j - 1).text == "!") {
            negated.push_back(Tok(j).text);
          } else {
            positive.push_back(Tok(j).text);
          }
        }
      }
      const size_t body_begin = cond_close + 1;
      if (Tok(body_begin).text == "{") {
        const size_t body_end =
            MatchForward(body_begin, "{", "}", body_close);
        if (!has_or) {
          for (const std::string& v : positive) at_open[body_begin].push_back({v, i});
        }
        if (!has_and && Tok(body_end + 1).text != "else" &&
            body_exits(body_begin + 1, body_end)) {
          for (const std::string& v : negated) at_index[body_end + 1].push_back({v, i});
        }
      } else {
        size_t stmt_end = body_begin;
        int depth = 0;
        while (stmt_end < body_close) {
          const std::string& s = Tok(stmt_end).text;
          if (s == "(") ++depth;
          if (s == ")") --depth;
          if (s == ";" && depth == 0) break;
          ++stmt_end;
        }
        if (!has_or) {
          for (const std::string& v : positive) {
            ranges.push_back({v, i, body_begin, stmt_end});
          }
        }
        if (!has_and && Tok(stmt_end + 1).text != "else" &&
            body_exits(body_begin, stmt_end)) {
          for (const std::string& v : negated) at_index[stmt_end + 1].push_back({v, i});
        }
      }
      continue;
    }

    // LBSQ_RETURN_IF_ERROR(...x...) checks x for the rest of the scope.
    if (t.text == "LBSQ_RETURN_IF_ERROR" && Tok(i + 1).text == "(") {
      const size_t close = MatchForward(i + 1, "(", ")", body_close);
      for (size_t j = i + 2; j < close; ++j) {
        if (tracked.count(Tok(j).text)) scopes.back().checked[Tok(j).text] = i;
      }
      i = close;
      continue;
    }

    // Re-assignment kills earlier checks (x = ...; but not x == / *x =).
    if (tracked.count(t.text) && Tok(i + 1).text == "=" &&
        Tok(i + 2).text != "=" && Tok(i - 1).text != "*" &&
        !PrevIsMemberAccess(i)) {
      last_assign[t.text] = i;
      continue;
    }

    // Value accesses.
    if (tracked.count(t.text) && !PrevIsMemberAccess(i)) {
      if (Tok(i + 1).text == "->" ||
          (Tok(i + 1).text == "." && Tok(i + 2).text == "value" &&
           Tok(i + 3).text == "(")) {
        report_use(t.text, i, t.line);
        continue;
      }
    }
    if (t.text == "*" && tracked.count(Tok(i + 1).text)) {
      // Unary deref, not multiplication: the token before '*' must not
      // be an operand (identifier, number, ')' or ']').
      const Token& prev = Tok(i - 1);
      const bool operand_before =
          (!prev.text.empty() &&
           (IsIdentChar(prev.text[0]) || prev.text == ")" ||
            prev.text == "]"));
      if (!operand_before) report_use(Tok(i + 1).text, i + 1, t.line);
      continue;
    }
  }
}

void Linter::ScanTokens() {
  const std::vector<Token>& toks = lexed_->tokens;

  // Brace-kind stack for function/namespace/class tracking.
  enum class BraceKind { kNamespace, kFunction, kClass, kOther };
  struct Scope {
    BraceKind kind;
    bool surface = false;       // function body subject to rule R1
    size_t open_index = 0;      // token index of '{'
    int open_line = 0;
    std::string name;
    FuncCtx ctx;                // populated for kFunction scopes
  };
  std::vector<Scope> stack;

  // Pending function-signature automaton (active only outside functions).
  std::string pending_name;
  int pending_line = 0;
  bool have_params = false;
  int sig_paren_depth = 0;
  // Extensions for the flow analyses: where the current declaration
  // statement began (for return-type scanning), the token index of the
  // pending function name, its qualifying class (out-of-line
  // definitions), destructor-ness, and where its parameter list closed
  // (for parsing the LBSQ_REQUIRES/ACQUIRE/RELEASE signature trailer).
  size_t pending_stmt_start = 0;
  size_t pending_name_index = 0;
  size_t pending_params_end = 0;
  std::string pending_qualifier;
  bool pending_dtor = false;
  // Last class/struct keyword seen in the current statement, for
  // classifying the next '{'.
  std::string pending_class_kw_name;
  bool pending_namespace = false;
  bool pending_class = false;
  bool pending_enum = false;

  auto in_function = [&] {
    for (const Scope& s : stack) {
      if (s.kind == BraceKind::kFunction) return true;
    }
    return false;
  };
  auto in_surface = [&] {
    for (const Scope& s : stack) {
      if (s.surface) return true;
    }
    return false;
  };
  auto reset_statement = [&] {
    pending_name.clear();
    have_params = false;
    pending_namespace = false;
    pending_class = false;
    pending_enum = false;
    pending_class_kw_name.clear();
    pending_qualifier.clear();
    pending_dtor = false;
    pending_params_end = 0;
  };
  auto enclosing_class = [&]() -> std::string {
    for (size_t s = stack.size(); s-- > 0;) {
      if (stack[s].kind == BraceKind::kClass) return stack[s].name;
    }
    return {};
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    // Line-independent token rules.
    CheckDeterminismToken(i);
    CheckBannedToken(i);
    if (in_surface()) CheckSurfaceToken(i);
    if (loop_surface_ && !collecting_) CheckLoopToken(i);
    if (is_header_ && t.text == "using" && Tok(i + 1).text == "namespace") {
      Report(t.line, "using-namespace-header",
             "`using namespace` in a header leaks into every includer");
    }

    // Scope tracking.
    if (t.text == "{") {
      Scope s;
      s.open_index = i;
      s.open_line = t.line;
      if (in_function()) {
        s.kind = BraceKind::kOther;
      } else if (pending_namespace) {
        s.kind = BraceKind::kNamespace;
      } else if (pending_enum) {
        s.kind = BraceKind::kOther;
      } else if (pending_class) {
        s.kind = BraceKind::kClass;
        s.name = pending_class_kw_name;
      } else if (have_params && !pending_name.empty()) {
        s.kind = BraceKind::kFunction;
        s.name = pending_name;
        if (lexed_->whole_file_decode_surface) {
          s.surface = true;
        } else {
          for (const char* pattern : surface_patterns_) {
            if (MatchesPattern(pending_name, pattern)) {
              s.surface = true;
              break;
            }
          }
        }
        // Flow-analysis context. The owning class is the out-of-line
        // qualifier when present, else the innermost enclosing class.
        s.ctx.name = pending_name;
        s.ctx.is_dtor = pending_dtor;
        s.ctx.class_name =
            !pending_qualifier.empty() ? pending_qualifier : enclosing_class();
        s.ctx.is_ctor = !s.ctx.is_dtor && s.ctx.name == s.ctx.class_name;
        for (size_t j = pending_stmt_start; j < pending_name_index; ++j) {
          const std::string& r = toks[j].text;
          if (r == "Status" || r == "StatusOr") s.ctx.returns_status = true;
        }
        // Signature trailer between the parameter list and this '{':
        // LBSQ_REQUIRES names mutexes held on entry; ACQUIRE/RELEASE
        // mark lock-transfer helpers whose imbalance is intentional.
        for (size_t j = pending_params_end; j < i; ++j) {
          const std::string& r = toks[j].text;
          if (r == "LBSQ_REQUIRES" && toks[j + 1].text == "(") {
            std::vector<std::string> args;
            j = ParseMacroArgs(j + 1, i, &args);
            for (const std::string& a : args) s.ctx.entry_held.insert(a);
          } else if (r == "LBSQ_ACQUIRE" || r == "LBSQ_RELEASE") {
            s.ctx.has_acquire_release = true;
          }
        }
        if (registry_) {
          auto cit = registry_->find(s.ctx.class_name);
          if (cit != registry_->end()) {
            auto rit = cit->second.requires_held.find(s.ctx.name);
            if (rit != cit->second.requires_held.end()) {
              for (const std::string& m : rit->second) {
                s.ctx.entry_held.insert(m);
              }
            }
          }
        }
      } else {
        s.kind = BraceKind::kOther;  // brace init, array init, ...
      }
      stack.push_back(s);
      reset_statement();
      pending_stmt_start = i + 1;
    } else if (t.text == "}") {
      if (!stack.empty()) {
        const Scope s = stack.back();
        stack.pop_back();
        if (s.kind == BraceKind::kClass) {
          if (collecting_) {
            CollectClassInfo(s.open_index, i, s.name);
          } else {
            CheckMemberAnnotations(s.open_index, i, s.open_line, s.name);
          }
        } else if (s.kind == BraceKind::kFunction && !collecting_) {
          if (registry_ && !s.ctx.is_ctor) {
            auto cit = registry_->find(s.ctx.class_name);
            if (cit != registry_->end() &&
                cit->second.NeedsBodyAnalysis()) {
              AnalyzeLockDiscipline(s.open_index, i, s.ctx, cit->second);
            }
          }
          if (s.ctx.returns_status) AnalyzeStatusFlow(s.open_index, i);
        }
      }
      reset_statement();
      pending_stmt_start = i + 1;
    } else if (t.text == ";" && sig_paren_depth == 0) {
      reset_statement();
      pending_stmt_start = i + 1;
    } else if (!in_function()) {
      // Function-signature automaton.
      if (t.text == "namespace") {
        pending_namespace = true;
      } else if (t.text == "class" || t.text == "struct" ||
                 t.text == "union") {
        if (Tok(i - 1).text == "enum") {
          pending_enum = true;  // enum class
        } else {
          pending_class = true;
          // The class name is the next identifier.
          if (Tok(i + 1).is_ident) pending_class_kw_name = Tok(i + 1).text;
        }
      } else if (t.text == "enum") {
        pending_enum = true;
      } else if (t.text == "(") {
        if (sig_paren_depth == 0 && !have_params && Tok(i - 1).is_ident) {
          pending_name = Tok(i - 1).text;
          pending_line = t.line;
          pending_name_index = i - 1;
          pending_dtor = false;
          pending_qualifier.clear();
          // `Cls::~Cls(` and `Cls::Name(` out-of-line qualifiers
          // ('::' and '->' are the only multi-char tokens the lexer
          // folds, so '::' is a single token here).
          size_t q = i - 1;
          if (Tok(q - 1).text == "~") {
            pending_dtor = true;
            --q;
          }
          if (Tok(q - 1).text == "::" && Tok(q - 2).is_ident) {
            pending_qualifier = Tok(q - 2).text;
          }
        }
        ++sig_paren_depth;
      } else if (t.text == ")") {
        if (sig_paren_depth > 0) --sig_paren_depth;
        if (sig_paren_depth == 0 && !pending_name.empty()) {
          if (!have_params) pending_params_end = i;
          have_params = true;  // freeze across ctor-init-lists
        }
      } else if (t.text == "=" && sig_paren_depth == 0) {
        // `= default;` / `= delete;` / variable init — not a definition.
        pending_name.clear();
        have_params = false;
      }
    }
  }
  (void)pending_line;
}

void Linter::SetupFile(const std::string& display_path) {
  path_ = display_path;
  is_header_ = HasSuffix(path_, ".h") || HasSuffix(path_, ".hpp");
  // Normalize path separators for suffix tables.
  std::string norm = path_;
  std::replace(norm.begin(), norm.end(), '\\', '/');
  in_bench_ = norm.find("bench/") != std::string::npos;

  determinism_allowed_ = false;
  for (const char* suffix : kDeterminismAllowedSuffixes) {
    if (HasSuffix(norm, suffix)) determinism_allowed_ = true;
  }
  new_delete_allowed_ = false;
  for (const char* suffix : kNewDeleteAllowedSuffixes) {
    if (norm.find(suffix) != std::string::npos) new_delete_allowed_ = true;
  }
  surface_patterns_.clear();
  for (const SurfaceRule& s : kSurfaces) {
    if (HasSuffix(norm, s.path_suffix)) {
      surface_patterns_ = s.function_patterns;
    }
  }
  loop_surface_ = false;
  for (const char* suffix : kLoopSurfaceSuffixes) {
    if (HasSuffix(norm, suffix)) loop_surface_ = true;
  }
}

void Linter::CollectFile(const std::string& display_path,
                         const LexedFile& lexed) {
  SetupFile(display_path);
  collecting_ = true;
  lexed_ = &lexed;
  ScanTokens();
  lexed_ = nullptr;
  collecting_ = false;
}

void Linter::CheckFile(const std::string& display_path,
                       const LexedFile& lexed) {
  SetupFile(display_path);
  lexed_ = &lexed;
  if (is_header_) CheckHeaderGuard();
  ScanTokens();
  lexed_ = nullptr;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".h" || ext == ".hpp";
}

int Usage() {
  std::fprintf(stderr,
               "usage: lbsq_lint [--root DIR] [--json FILE] [--list-rules] "
               "[files...]\n"
               "With no files, lints src/ tools/ bench/ examples/ under "
               "--root (default: cwd).\n"
               "--json FILE additionally writes the findings as a "
               "machine-readable artifact.\n");
  return 2;
}

// Minimal JSON string escaping for the --json artifact (paths and
// messages are ASCII; control characters are not expected but handled).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool WriteJsonArtifact(const std::string& path,
                       const std::vector<Finding>& findings) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"tool\":\"lbsq_lint\",\"count\":" << findings.size()
      << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i) out << ",";
    out << "\n  {\"file\":\"" << JsonEscape(f.path) << "\",\"line\":" << f.line
        << ",\"rule\":\"" << JsonEscape(f.rule) << "\",\"message\":\""
        << JsonEscape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]}\n" : "\n]}\n");
  return static_cast<bool>(out.flush());
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_path;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const RuleInfo& r : kRules) {
        std::printf("%-24s %s\n", r.id, r.summary);
      }
      return 0;
    } else if (arg == "--root") {
      if (i + 1 >= argc) return Usage();
      root = argv[++i];
    } else if (arg == "--json") {
      if (i + 1 >= argc) return Usage();
      json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return Usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "lbsq_lint: unknown flag %s\n", arg.c_str());
      return Usage();
    } else {
      files.push_back(arg);
    }
  }

  std::vector<std::pair<std::string, std::string>> display_and_real;
  if (files.empty()) {
    for (const char* dir : {"src", "tools", "bench", "examples"}) {
      const fs::path base = fs::path(root) / dir;
      std::error_code ec;
      if (!fs::is_directory(base, ec)) continue;
      for (auto it = fs::recursive_directory_iterator(base, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file() && IsSourceFile(it->path())) {
          const std::string real = it->path().string();
          // Report paths relative to the root for stable output.
          std::string display = real;
          const std::string prefix = (fs::path(root) / "").string();
          if (display.rfind(prefix, 0) == 0) display.erase(0, prefix.size());
          display_and_real.emplace_back(display, real);
        }
      }
    }
  } else {
    for (const std::string& f : files) display_and_real.emplace_back(f, f);
  }
  std::sort(display_and_real.begin(), display_and_real.end());

  // Read and lex every file once; both passes walk the same token
  // streams. Pass 1 builds the class registry (mutexes, GUARDED_BY
  // members, REQUIRES contracts) across the whole tree so that
  // out-of-line method definitions see their class's contract even when
  // it lives in a different file. Pass 2 reports.
  std::vector<std::pair<std::string, LexedFile>> lexed_files;
  bool read_error = false;
  for (const auto& [display, real] : display_and_real) {
    std::ifstream in(real, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "lbsq_lint: cannot read %s\n", real.c_str());
      read_error = true;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    lexed_files.emplace_back(display, Lex(buf.str()));
  }

  std::vector<Finding> findings;
  ClassRegistry registry;
  Linter linter(&findings, &registry);
  for (const auto& [display, lexed] : lexed_files) {
    linter.CollectFile(display, lexed);
  }
  for (const auto& [display, lexed] : lexed_files) {
    linter.CheckFile(display, lexed);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  for (const Finding& f : findings) {
    std::printf("%s:%d: %s: %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "lbsq_lint: %zu finding(s)\n", findings.size());
  }
  if (!json_path.empty() && !WriteJsonArtifact(json_path, findings)) {
    std::fprintf(stderr, "lbsq_lint: cannot write %s\n", json_path.c_str());
    read_error = true;
  }
  return (findings.empty() && !read_error) ? 0 : 1;
}
