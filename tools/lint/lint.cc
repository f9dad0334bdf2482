#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "lint/index.h"
#include "lint/lockcheck.h"

namespace divexp {
namespace lint {
namespace {

namespace fs = std::filesystem;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

bool IsWordChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(content);
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// True for lines that are entirely comment ("//...", or a "*"-led
// continuation of a block comment). Content rules skip these so prose
// examples never trip token scans.
bool IsCommentLine(const std::string& line) {
  size_t i = line.find_first_not_of(" \t");
  if (i == std::string::npos) return false;
  if (line.compare(i, 2, "//") == 0) return true;
  if (line[i] == '*') return true;
  if (line.compare(i, 2, "/*") == 0) return true;
  return false;
}

// `lint:allow(<rule>): <reason>` on the diagnostic's line suppresses
// it. The reason is mandatory: an allow without one does not suppress.
bool HasAllow(const std::string& line, const std::string& rule) {
  const std::string needle = "lint:allow(" + rule + ")";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  size_t after = pos + needle.size();
  if (after >= line.size() || line[after] != ':') return false;
  size_t reason = line.find_first_not_of(" \t", after + 1);
  return reason != std::string::npos;
}

// Every shipped rule id; the stale-suppression pass only treats an
// allow of a *known* rule as a suppression site (prose like
// `lint:allow(<rule-id>)` in docs comments stays invisible).
const std::set<std::string>& KnownRules() {
  static const std::set<std::string> kRules = {
      kRuleNoIgnoredStatus,  kRuleNoRawFileOutput,
      kRuleFailpointName,    kRuleMetricName,
      kRuleStageDocumented,  kRuleIncludeLayering,
      kRuleShardStatus,      kRuleKernelNoAlloc,
      kRuleServeNoMutation,  kRuleNoRawSubprocess,
      kRuleLockOrderCycle,   kRuleUndeclaredLockEdge,
      kRuleNoBlockingUnderLock, kRuleStaleSuppression,
  };
  return kRules;
}

// All well-formed suppressions (`lint:allow(<known-rule>): <reason>`)
// on one line.
std::vector<std::string> AllowedRulesOnLine(const std::string& line) {
  std::vector<std::string> rules;
  const std::string marker = "lint:allow(";
  size_t pos = 0;
  while ((pos = line.find(marker, pos)) != std::string::npos) {
    size_t start = pos + marker.size();
    size_t close = line.find(')', start);
    pos = start;
    if (close == std::string::npos) break;
    const std::string rule = line.substr(start, close - start);
    if (KnownRules().count(rule) > 0 && HasAllow(line, rule)) {
      rules.push_back(rule);
    }
  }
  return rules;
}

// Shared record of which allow comments actually suppressed a finding,
// keyed "file\x1fline\x1frule". Fed by every pass; drained by the
// stale-suppression pass.
struct SuppressionLog {
  std::set<std::string> used;
  static std::string Key(const std::string& file, int line,
                         const std::string& rule) {
    return file + "\x1f" + std::to_string(line) + "\x1f" + rule;
  }
};

// Applies the `// lint-path: <path>` override a corpus fixture may
// carry in its first lines.
std::string EffectivePath(const std::string& logical_path,
                          const std::string& content) {
  std::istringstream in(content);
  std::string line;
  const std::string marker = "// lint-path: ";
  for (int i = 0; i < 5 && std::getline(in, line); ++i) {
    size_t pos = line.find(marker);
    if (pos == std::string::npos) continue;
    std::string path = line.substr(pos + marker.size());
    while (!path.empty() &&
           (path.back() == ' ' || path.back() == '\r')) {
      path.pop_back();
    }
    return path;
  }
  return logical_path;
}

// All directory ranks are spaced by 10 so future layers can slot in
// between without renumbering every suppression-free include.
const std::map<std::string, int>& SrcDirLayers() {
  static const std::map<std::string, int> kLayers = {
      {"util", 0},    {"obs", 10},      {"stats", 10},
      {"data", 20},   {"model", 30},    {"fpm", 40},
      {"datasets", 50}, {"recovery", 60}, {"core", 70},
      {"slicefinder", 70}, {"shard", 75},  {"serve", 78},
  };
  return kLayers;
}

// atomic_file/crc32/snapshot_file are low-level IO with no dependency
// above util; pinning them below data/ lets data/csv.cc use
// WriteFileAtomic without inverting the data <- recovery order.
int PinnedRecoveryIoLayer(const std::string& src_relative) {
  static const char* kPinned[] = {"recovery/atomic_file.",
                                  "recovery/crc32.",
                                  "recovery/snapshot_file."};
  for (const char* prefix : kPinned) {
    if (StartsWith(src_relative, prefix)) return 10;
  }
  return -1;
}

// The compute-kernel layer sits below the miners that call it: fpm/
// files include fpm/kernels/ headers, never the reverse (the kernels
// are pure primitives with no fpm dependency).
int PinnedKernelLayer(const std::string& src_relative) {
  return StartsWith(src_relative, "fpm/kernels/") ? 35 : -1;
}

// The process-isolation layer sits above the shard driver it runs
// attempts for (and above serve/, whose artifact format carries worker
// results) but below tools/: shard/shard.cc reaches workers only
// through the ShardAttemptRunner seam, never by including these
// headers, so a thread-isolation build carries no subprocess code.
int PinnedWorkerLayer(const std::string& src_relative) {
  return StartsWith(src_relative, "shard/worker/") ? 79 : -1;
}

// Maps a quoted include string (as written in the source, e.g.
// "util/status.h") to (layer, implied repo-relative path). Unknown
// first segments — single-file includes, third-party — yield layer -1
// and are never flagged.
struct IncludeTarget {
  int layer = -1;
  std::string implied_path;
};

IncludeTarget ResolveInclude(const std::string& inc) {
  IncludeTarget t;
  size_t slash = inc.find('/');
  if (slash == std::string::npos) return t;
  const std::string head = inc.substr(0, slash);
  if (head == "testing") {
    t.layer = 85;
    t.implied_path = "tests/" + inc;
    return t;
  }
  if (head == "tools") {
    t.layer = 80;
    t.implied_path = inc;
    return t;
  }
  auto it = SrcDirLayers().find(head);
  if (it == SrcDirLayers().end()) return t;
  t.layer = it->second;
  int pinned = PinnedRecoveryIoLayer(inc);
  if (pinned < 0) pinned = PinnedKernelLayer(inc);
  if (pinned < 0) pinned = PinnedWorkerLayer(inc);
  if (pinned >= 0) t.layer = pinned;
  t.implied_path = "src/" + inc;
  return t;
}

std::string DirName(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool IsNameSegment(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!(std::islower(static_cast<unsigned char>(c)) != 0 ||
          std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '_')) {
      return false;
    }
  }
  return s.front() != '_' && s.back() != '_';
}

// Extracts every `token` between backticks on a markdown line.
std::vector<std::string> BacktickTokens(const std::string& line) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (true) {
    size_t open = line.find('`', pos);
    if (open == std::string::npos) break;
    size_t close = line.find('`', open + 1);
    if (close == std::string::npos) break;
    tokens.push_back(line.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return tokens;
}

std::string ReadFileOrEmpty(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::string();
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Parses a double-quoted string literal starting at `pos` (which must
// point at the opening quote). Returns false on malformed input.
bool ParseStringLiteral(const std::string& line, size_t pos,
                        std::string* value, size_t* end) {
  if (pos >= line.size() || line[pos] != '"') return false;
  std::string out;
  for (size_t i = pos + 1; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out += line[i + 1];
      ++i;
      continue;
    }
    if (line[i] == '"') {
      *value = std::move(out);
      *end = i + 1;
      return true;
    }
    out += line[i];
  }
  return false;
}

size_t SkipSpaces(const std::string& line, size_t pos) {
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == '\t')) {
    ++pos;
  }
  return pos;
}

// Validates one `name@ordinal:action` fail-point spec. Mirrors
// ParseFailPointSpecs in util/failpoint.cc; docs/recovery.md documents
// the grammar.
bool ValidateFailPointSpec(const std::string& spec, std::string* why) {
  size_t at = spec.find('@');
  if (at == std::string::npos) {
    *why = "missing '@ordinal'";
    return false;
  }
  const std::string name = spec.substr(0, at);
  if (!IsDottedName(name)) {
    *why = "name '" + name + "' is not dotted snake_case";
    return false;
  }
  size_t colon = spec.find(':', at + 1);
  if (colon == std::string::npos) {
    *why = "missing ':action'";
    return false;
  }
  const std::string ordinal = spec.substr(at + 1, colon - at - 1);
  if (ordinal.empty() ||
      ordinal.find_first_not_of("0123456789") != std::string::npos ||
      ordinal == std::string(ordinal.size(), '0')) {
    *why = "ordinal '" + ordinal + "' must be an integer >= 1";
    return false;
  }
  const std::string action = spec.substr(colon + 1);
  if (action == "return-error" || action == "throw" || action == "abort" ||
      action == "segv" || action == "kill") {
    return true;
  }
  if (StartsWith(action, "delay-")) {
    const std::string ms = action.substr(6);
    if (!ms.empty() &&
        ms.find_first_not_of("0123456789") == std::string::npos) {
      return true;
    }
  }
  *why = "unknown action '" + action + "'";
  return false;
}

class FileLinter {
 public:
  FileLinter(std::string logical_path, const Catalogs& catalogs,
             std::vector<Diagnostic>* out, SuppressionLog* log)
      : path_(std::move(logical_path)),
        catalogs_(catalogs),
        out_(out),
        log_(log) {
    in_layered_src_ =
        StartsWith(path_, "src/") || StartsWith(path_, "tools/");
  }

  void Lint(const std::string& content) {
    const std::vector<std::string> lines = SplitLines(content);
    // A fixture may pin its logical path for path-dependent rules.
    for (size_t i = 0; i < lines.size() && i < 5; ++i) {
      const std::string marker = "// lint-path: ";
      size_t pos = lines[i].find(marker);
      if (pos != std::string::npos) {
        path_ = lines[i].substr(pos + marker.size());
        while (!path_.empty() &&
               (path_.back() == ' ' || path_.back() == '\r')) {
          path_.pop_back();
        }
        in_layered_src_ =
            StartsWith(path_, "src/") || StartsWith(path_, "tools/");
        break;
      }
    }
    source_layer_ = LayerOf(path_);
    for (size_t i = 0; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      const int lineno = static_cast<int>(i) + 1;
      CheckInclude(line, lineno);
      if (IsCommentLine(line)) continue;
      CheckIgnoredStatus(line, lineno);
      CheckRawFileOutput(line, lineno);
      CheckKernelNoAlloc(line, lineno);
      CheckServeNoMutation(line, lineno);
      CheckRawSubprocess(line, lineno);
      CheckFailPoints(line, lineno);
      CheckMetricNames(line, lineno);
      CheckStageNames(line, lineno);
      NoteShardTokens(line, lineno);
    }
    CheckShardStatus();
  }

 private:
  void Emit(const std::string& line, int lineno, const char* rule,
            std::string message) {
    if (HasAllow(line, rule)) {
      if (log_ != nullptr) {
        log_->used.insert(SuppressionLog::Key(path_, lineno, rule));
      }
      return;
    }
    out_->push_back(Diagnostic{path_, lineno, rule, std::move(message)});
  }

  void CheckInclude(const std::string& line, int lineno) {
    if (source_layer_ < 0) return;
    size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '#') return;
    size_t inc = line.find("include", i);
    if (inc == std::string::npos) return;
    size_t open = line.find('"', inc);
    if (open == std::string::npos) return;  // <...> includes are exempt
    std::string target;
    size_t end = 0;
    if (!ParseStringLiteral(line, open, &target, &end)) return;
    const IncludeTarget t = ResolveInclude(target);
    if (t.layer < 0) return;
    if (DirName(t.implied_path) == DirName(path_)) return;
    if (t.layer < source_layer_) return;
    Emit(line, lineno, kRuleIncludeLayering,
         "\"" + target + "\" (layer " + std::to_string(t.layer) +
             ") is not below " + path_ + " (layer " +
             std::to_string(source_layer_) +
             "); the tree layers util <- data <- fpm <- core <- tools");
  }

  void CheckIgnoredStatus(const std::string& line, int lineno) {
    // A cast-to-void of a Status/Result-returning call silences the
    // [[nodiscard]] check without leaving a reason behind.
    size_t pos = 0;
    while ((pos = line.find("(void)", pos)) != std::string::npos) {
      size_t p = SkipSpaces(line, pos + 6);
      size_t start = p;
      while (p < line.size() &&
             (IsWordChar(line[p]) || line[p] == ':' || line[p] == '.' ||
              line[p] == '>' || line[p] == '-' || line[p] == '*')) {
        ++p;
      }
      if (p < line.size() && p > start && line[p] == '(') {
        std::string chain = line.substr(start, p - start);
        size_t cut = chain.find_last_of(":.>");
        const std::string callee =
            cut == std::string::npos ? chain : chain.substr(cut + 1);
        if (catalogs_.status_functions.count(callee) > 0) {
          Emit(line, lineno, kRuleNoIgnoredStatus,
               "'" + callee +
                   "' returns a Status/Result; a void cast hides the "
                   "drop. Use `Status ignored = ...;  // best-effort: <reason>`");
        }
      }
      pos += 6;
    }
    // The sanctioned drop form must carry its reason on the same line.
    static const std::regex kIgnored(R"(\bStatus\s+ignored\s*=)");
    if (std::regex_search(line, kIgnored) &&
        line.find("best-effort:") == std::string::npos) {
      Emit(line, lineno, kRuleNoIgnoredStatus,
           "dropped Status must explain itself: append `// best-effort: "
           "<reason>`");
    }
  }

  void CheckRawFileOutput(const std::string& line, int lineno) {
    if (path_ == "src/recovery/atomic_file.cc") return;
    struct Token {
      const char* text;
      bool needs_call;  // must be followed by '(' to count
    };
    // Only the first entry needs a suppression: the needs_call tokens
    // are not followed by '(' on their own table lines, so the rule
    // never fires there (the stale-suppression pass enforces this).
    static const Token kTokens[] = {{"ofstream", false},  // lint:allow(no-raw-file-output): the rule's own token table
                                    {"fopen", true},
                                    {"fwrite", true},
                                    {"fputs", true},
                                    {"fprintf", true}};
    for (const Token& token : kTokens) {
      const std::string text = token.text;
      size_t pos = 0;
      while ((pos = line.find(text, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
        size_t after = pos + text.size();
        const bool right_ok =
            after >= line.size() || !IsWordChar(line[after]);
        bool is_call = true;
        if (token.needs_call) {
          size_t paren = SkipSpaces(line, after);
          is_call = paren < line.size() && line[paren] == '(';
          if (is_call) {
            // Console diagnostics are fine; the rule is about files.
            // A call wrapped before its first argument cannot be
            // judged line-locally and is skipped.
            const std::string rest = line.substr(paren);
            if (rest.find("stderr") != std::string::npos ||
                rest.find("stdout") != std::string::npos ||
                SkipSpaces(rest, 1) >= rest.size()) {
              is_call = false;
            }
          }
        }
        if (left_ok && right_ok && is_call) {
          Emit(line, lineno, kRuleNoRawFileOutput,
               "raw file output ('" + text +
                   "') outside src/recovery/atomic_file.cc; use "
                   "recovery::WriteFileAtomic so partial writes can "
                   "never be observed");
          break;  // one diagnostic per token per line is enough
        }
        pos = after;
      }
    }
  }

  // The kernels_* translation units are the process's hot loops: they
  // run under ResolveKernel() dispatch inside per-candidate inner
  // loops, so any allocation, lock or container use there is a
  // performance bug (and usually an aliasing one — callers own every
  // buffer). The rule keys on the "kernels" basename prefix, so a
  // non-kernel header in the same directory stays outside it.
  void CheckKernelNoAlloc(const std::string& line, int lineno) {
    if (!StartsWith(path_, "src/fpm/kernels/")) return;
    const std::string base = path_.substr(path_.rfind('/') + 1);
    if (!StartsWith(base, "kernels")) return;
    static const char* kForbidden[] = {
        "new",        "malloc",      "calloc",     "realloc",
        "free",       "make_unique", "make_shared",
        "vector",     "string",      "map",        "deque",
        "mutex",      "lock_guard",  "unique_lock", "shared_lock",
        "resize",     "push_back",   "reserve",    "emplace_back",
    };
    for (const char* token : kForbidden) {
      const std::string text = token;
      size_t pos = 0;
      while ((pos = line.find(text, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
        const size_t after = pos + text.size();
        const bool right_ok =
            after >= line.size() || !IsWordChar(line[after]);
        if (left_ok && right_ok) {
          Emit(line, lineno, kRuleKernelNoAlloc,
               "'" + text +
                   "' in a kernel translation unit; kernels are pure "
                   "compute over caller-owned buffers — no allocation, "
                   "containers or locks (hoist it to the caller)");
          break;  // one diagnostic per token per line is enough
        }
        pos = after;
      }
    }
  }

  // The serving layer's whole concurrency story is that the mapped
  // artifact is immutable: one mapping shared by every server thread
  // with no synchronization. Any path to writing through it —
  // const_cast of the view's spans, remapping the pages writable —
  // breaks that contract, so the tokens are banned outright in
  // src/serve/ rather than reviewed case by case.
  void CheckServeNoMutation(const std::string& line, int lineno) {
    if (!StartsWith(path_, "src/serve/")) return;
    static const char* kForbidden[] = {"const_cast", "PROT_WRITE",
                                       "mprotect", "MAP_SHARED"};
    for (const char* token : kForbidden) {
      const std::string text = token;
      size_t pos = 0;
      while ((pos = line.find(text, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
        const size_t after = pos + text.size();
        const bool right_ok =
            after >= line.size() || !IsWordChar(line[after]);
        if (left_ok && right_ok) {
          Emit(line, lineno, kRuleServeNoMutation,
               "'" + text +
                   "' in the serving layer; an attached artifact is "
                   "immutable and shared across server threads without "
                   "locks — nothing in src/serve/ may open a path to "
                   "writing through the mapping");
          break;  // one diagnostic per token per line is enough
        }
        pos = after;
      }
    }
  }

  // Process creation is allowed in exactly one translation unit:
  // src/util/subprocess.cc. Everything else must go through its
  // wrappers so the coordinator's spawn/reap accounting (the zombie
  // invariant tests assert SpawnCount == ReapCount) can never be
  // bypassed, and so a worker can never itself become a fork site.
  void CheckRawSubprocess(const std::string& line, int lineno) {
    if (!in_layered_src_) return;
    if (path_ == "src/util/subprocess.cc") return;
    static const char* kForbidden[] = {
        "fork",  "vfork",       "execv",        "execve",
        "execvp", "execl",      "execlp",       "execle",
        "posix_spawn", "posix_spawnp", "system",
    };
    for (const char* token : kForbidden) {
      const std::string text = token;
      size_t pos = 0;
      while ((pos = line.find(text, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
        const size_t after = pos + text.size();
        const bool right_ok =
            after >= line.size() || !IsWordChar(line[after]);
        // Only call-like uses count: prose ("fork/exec") and
        // identifiers embedded in longer words stay quiet.
        const size_t paren = SkipSpaces(line, after);
        const bool is_call = paren < line.size() && line[paren] == '(';
        if (left_ok && right_ok && is_call) {
          Emit(line, lineno, kRuleNoRawSubprocess,
               "raw process creation ('" + text +
                   "') outside src/util/subprocess.cc; use "
                   "divexp::SpawnWithStatusPipe so every child is "
                   "accounted for and reaped");
          break;  // one diagnostic per token per line is enough
        }
        pos = after;
      }
    }
  }

  void CheckFailPoints(const std::string& line, int lineno) {
    // Definition sites: DIVEXP_FAILPOINT("name") literals.
    static const char* kMacros[] = {"DIVEXP_FAILPOINT_STATUS",
                                    "DIVEXP_FAILPOINT"};
    size_t scan = 0;
    while (scan < line.size()) {
      size_t best = std::string::npos;
      const char* macro = nullptr;
      for (const char* m : kMacros) {
        size_t pos = line.find(m, scan);
        if (pos != std::string::npos &&
            (best == std::string::npos || pos < best)) {
          best = pos;
          macro = m;
        }
      }
      if (best == std::string::npos) break;
      size_t p = best + std::string(macro).size();
      // Skip the shorter macro matching inside the longer one.
      if (p < line.size() && IsWordChar(line[p])) {
        scan = best + 1;
        continue;
      }
      p = SkipSpaces(line, p);
      if (p >= line.size() || line[p] != '(') {
        scan = best + 1;
        continue;
      }
      p = SkipSpaces(line, p + 1);
      std::string name;
      size_t end = 0;
      if (ParseStringLiteral(line, p, &name, &end)) {
        if (!IsDottedName(name)) {
          Emit(line, lineno, kRuleFailpointName,
               "fail point '" + name +
                   "' must be dotted snake_case (subsystem.site)");
        } else if (in_layered_src_ &&
                   catalogs_.failpoints.count(name) == 0) {
          Emit(line, lineno, kRuleFailpointName,
               "fail point '" + name +
                   "' is not in the catalog table of docs/recovery.md; "
                   "add it so --failpoints users can discover it");
        }
      }
      scan = best + 1;
    }
    // Arming sites: spec strings ("name@ordinal:action[,...]")
    // passed to ScopedFailPoints / Arm / ParseFailPointSpecs.
    if (line.find("ScopedFailPoints") == std::string::npos &&
        line.find("ParseFailPointSpecs") == std::string::npos &&
        line.find("Arm(") == std::string::npos &&
        line.find("--failpoints") == std::string::npos) {
      return;
    }
    size_t pos = 0;
    while ((pos = line.find('"', pos)) != std::string::npos) {
      std::string literal;
      size_t end = 0;
      if (!ParseStringLiteral(line, pos, &literal, &end)) break;
      pos = end;
      if (literal.find('@') == std::string::npos) continue;
      std::string specs = literal;
      const std::string flag = "--failpoints=";
      if (StartsWith(specs, flag)) specs = specs.substr(flag.size());
      std::istringstream split(specs);
      std::string spec;
      while (std::getline(split, spec, ',')) {
        std::string why;
        if (!ValidateFailPointSpec(spec, &why)) {
          Emit(line, lineno, kRuleFailpointName,
               "fail-point spec '" + spec + "': " + why +
                   " (grammar: name@ordinal:action, action one of "
                   "return-error|throw|abort|segv|kill|delay-<ms>)");
        } else if (in_layered_src_) {
          const std::string name = spec.substr(0, spec.find('@'));
          if (catalogs_.failpoints.count(name) == 0) {
            Emit(line, lineno, kRuleFailpointName,
                 "fail point '" + name +
                     "' is not in the catalog table of docs/recovery.md");
          }
        }
      }
    }
  }

  void CheckMetricNames(const std::string& line, int lineno) {
    static const char* kGetters[] = {"GetCounter", "GetGauge",
                                     "GetHistogram"};
    for (const char* getter : kGetters) {
      size_t pos = 0;
      while ((pos = line.find(getter, pos)) != std::string::npos) {
        const size_t after = pos + std::string(getter).size();
        const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
        pos = after;
        if (!left_ok || after >= line.size() || line[after] != '(') {
          continue;
        }
        size_t p = SkipSpaces(line, after + 1);
        std::string name;
        size_t end = 0;
        if (!ParseStringLiteral(line, p, &name, &end)) continue;
        const bool concatenated =
            SkipSpaces(line, end) < line.size() &&
            line[SkipSpaces(line, end)] == '+';
        if (concatenated) {
          // A dynamic family: the literal is a prefix ending in '.',
          // and the family itself must be documented (e.g.
          // `recovery.failpoint.<name>`).
          if (name.empty() || name.back() != '.' ||
              !IsDottedName(name + "x")) {
            Emit(line, lineno, kRuleMetricName,
                 "dynamic metric prefix '" + name +
                     "' must be dotted snake_case ending in '.'");
          } else if (in_layered_src_ &&
                     catalogs_.dynamic_prefixes.count(name) == 0) {
            Emit(line, lineno, kRuleMetricName,
                 "dynamic metric family '" + name +
                     "<...>' is not documented in docs/observability.md "
                     "or docs/recovery.md");
          }
          continue;
        }
        if (!IsDottedName(name)) {
          Emit(line, lineno, kRuleMetricName,
               "metric '" + name +
                   "' must follow subsystem.noun[_verb] (dotted "
                   "snake_case, >= 2 segments)");
        } else if (in_layered_src_ &&
                   catalogs_.documented_names.count(name) == 0) {
          Emit(line, lineno, kRuleMetricName,
               "metric '" + name +
                   "' is not documented in docs/observability.md; the "
                   "--metrics-json schema and dashboards track that "
                   "list");
        }
      }
    }
  }

  // Accumulates evidence for the file-level shard-status-propagated
  // rule: a file that consumes ShardOutcome values but never reads
  // their `.status` field would silently treat a failed shard as an
  // empty-but-successful one.
  void NoteShardTokens(const std::string& line, int lineno) {
    const std::string kType = "ShardOutcome";
    size_t pos = 0;
    while ((pos = line.find(kType, pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
      const size_t after = pos + kType.size();
      const bool right_ok =
          after >= line.size() || !IsWordChar(line[after]);
      if (left_ok && right_ok) {
        if (shard_mention_line_ == 0) {
          shard_mention_line_ = lineno;
          shard_mention_text_ = line;
        }
        // The type's own definition file (and forward declarations)
        // cannot meaningfully "check" the field; exempt it.
        if (pos >= 7 && line.compare(pos - 7, 7, "struct ") == 0) {
          shard_defines_outcome_ = true;
        }
      }
      pos = after;
    }
    for (const char* access : {".status", "->status"}) {
      size_t hit = 0;
      const std::string needle = access;
      while ((hit = line.find(needle, hit)) != std::string::npos) {
        const size_t end = hit + needle.size();
        if (end >= line.size() || !IsWordChar(line[end])) {
          shard_status_read_ = true;
          return;
        }
        hit = end;
      }
    }
  }

  void CheckShardStatus() {
    if (!in_layered_src_ || shard_mention_line_ == 0) return;
    if (shard_defines_outcome_ || shard_status_read_) return;
    Emit(shard_mention_text_, shard_mention_line_, kRuleShardStatus,
         "this file consumes ShardOutcome but never reads `.status`; a "
         "failed shard would be indistinguishable from an empty "
         "successful one — check or propagate outcome.status before "
         "using the patterns");
  }

  void CheckStageNames(const std::string& line, int lineno) {
    if (path_ != "src/obs/stage.h") return;
    size_t pos = line.find("kStage");
    if (pos == std::string::npos) return;
    size_t eq = line.find('=', pos);
    if (eq == std::string::npos) return;
    size_t p = SkipSpaces(line, eq + 1);
    std::string value;
    size_t end = 0;
    if (!ParseStringLiteral(line, p, &value, &end)) return;
    if (catalogs_.documented_names.count(value) == 0) {
      Emit(line, lineno, kRuleStageDocumented,
           "stage '" + value +
               "' is not in the stage table of docs/observability.md; "
               "every kStage* constant must be documented there");
    }
  }

  std::string path_;
  const Catalogs& catalogs_;
  std::vector<Diagnostic>* out_;
  SuppressionLog* log_ = nullptr;
  bool in_layered_src_ = false;
  int source_layer_ = -1;
  // shard-status-propagated accumulator state.
  int shard_mention_line_ = 0;
  std::string shard_mention_text_;
  bool shard_defines_outcome_ = false;
  bool shard_status_read_ = false;
};

}  // namespace

bool IsDottedName(const std::string& name) {
  size_t start = 0;
  int segments = 0;
  while (true) {
    size_t dot = name.find('.', start);
    const std::string segment =
        dot == std::string::npos ? name.substr(start)
                                 : name.substr(start, dot - start);
    if (!IsNameSegment(segment)) return false;
    ++segments;
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return segments >= 2;
}

int LayerOf(const std::string& logical_path) {
  if (StartsWith(logical_path, "src/")) {
    const std::string rest = logical_path.substr(4);
    int pinned = PinnedRecoveryIoLayer(rest);
    if (pinned < 0) pinned = PinnedKernelLayer(rest);
    if (pinned < 0) pinned = PinnedWorkerLayer(rest);
    if (pinned >= 0) return pinned;
    size_t slash = rest.find('/');
    if (slash == std::string::npos) return -1;
    auto it = SrcDirLayers().find(rest.substr(0, slash));
    return it == SrcDirLayers().end() ? -1 : it->second;
  }
  if (StartsWith(logical_path, "tools/") ||
      StartsWith(logical_path, "bench/") ||
      StartsWith(logical_path, "examples/")) {
    return 80;
  }
  if (StartsWith(logical_path, "tests/testing/")) return 85;
  if (StartsWith(logical_path, "tests/")) return 90;
  return -1;
}

struct TreeLinter::Impl {
  explicit Impl(const Catalogs& catalogs) : catalogs(catalogs) {}

  const Catalogs& catalogs;
  SuppressionLog log;
  std::vector<Diagnostic> diags;
  SymbolIndex index;
};

TreeLinter::TreeLinter(const Catalogs& catalogs)
    : impl_(std::make_unique<Impl>(catalogs)) {}

TreeLinter::~TreeLinter() = default;

void TreeLinter::AddFile(const std::string& logical_path,
                         const std::string& content) {
  const std::string path = EffectivePath(logical_path, content);
  FileLinter linter(path, impl_->catalogs, &impl_->diags, &impl_->log);
  linter.Lint(content);
  impl_->index.AddFile(path, content);
}

std::vector<Diagnostic> TreeLinter::Run() {
  impl_->index.Build();
  // Line text per file, for suppression checks on lock findings.
  auto line_text = [this](const std::string& file,
                          int lineno) -> const std::string* {
    for (const IndexedFile& f : impl_->index.files()) {
      if (f.path != file) continue;
      if (lineno >= 1 &&
          static_cast<size_t>(lineno) <= f.lines.size()) {
        return &f.lines[lineno - 1];
      }
      return nullptr;
    }
    return nullptr;
  };
  RunLockPasses(
      impl_->index, impl_->catalogs,
      [&](const std::string& file, int line, const char* rule,
          const std::string& message) {
        const std::string* text = line_text(file, line);
        if (text != nullptr && HasAllow(*text, rule)) {
          impl_->log.used.insert(SuppressionLog::Key(file, line, rule));
          return;
        }
        impl_->diags.push_back(Diagnostic{file, line, rule, message});
      });
  // Stale-suppression pass: every well-formed allow must have earned
  // its keep in one of the passes above. (An allow of
  // stale-suppression itself is never honoured — the inventory check
  // must not be suppressible.)
  for (const IndexedFile& file : impl_->index.files()) {
    for (size_t i = 0; i < file.lines.size(); ++i) {
      const int lineno = static_cast<int>(i) + 1;
      for (const std::string& rule : AllowedRulesOnLine(file.lines[i])) {
        if (impl_->log.used.count(
                SuppressionLog::Key(file.path, lineno, rule)) > 0) {
          continue;
        }
        impl_->diags.push_back(Diagnostic{
            file.path, lineno, kRuleStaleSuppression,
            "lint:allow(" + rule +
                ") suppresses nothing: no '" + rule +
                "' finding fires on this line any more — delete the "
                "stale allow so it cannot mask a future regression"});
      }
    }
  }
  std::sort(impl_->diags.begin(), impl_->diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return std::move(impl_->diags);
}

void LintFile(const std::string& logical_path, const std::string& content,
              const Catalogs& catalogs, std::vector<Diagnostic>* out) {
  TreeLinter linter(catalogs);
  linter.AddFile(logical_path, content);
  std::vector<Diagnostic> diags = linter.Run();
  out->insert(out->end(), diags.begin(), diags.end());
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// GitHub workflow commands percent-encode their message payload;
// property values additionally escape ':' and ','.
std::string GithubEscapeData(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '%') out += "%25";
    else if (c == '\r') out += "%0D";
    else if (c == '\n') out += "%0A";
    else out += c;
  }
  return out;
}

std::string GithubEscapeProperty(const std::string& s) {
  std::string out;
  for (char c : GithubEscapeData(s)) {
    if (c == ':') out += "%3A";
    else if (c == ',') out += "%2C";
    else out += c;
  }
  return out;
}

}  // namespace

std::string RenderJson(const std::vector<Diagnostic>& diagnostics,
                       size_t files_linted) {
  std::string out = "{\n  \"files\": " + std::to_string(files_linted) +
                    ",\n  \"findings\": [";
  for (size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"file\": \"" + JsonEscape(d.file) +
           "\", \"line\": " + std::to_string(d.line) + ", \"rule\": \"" +
           JsonEscape(d.rule) + "\", \"message\": \"" +
           JsonEscape(d.message) + "\"}";
  }
  out += diagnostics.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string RenderGitHub(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += "::error file=" + GithubEscapeProperty(d.file) +
           ",line=" + std::to_string(d.line) +
           ",title=" + GithubEscapeProperty("divexp-lint " + d.rule) +
           "::" + GithubEscapeData("[" + d.rule + "] " + d.message) +
           "\n";
  }
  return out;
}

bool LoadCatalogs(const std::string& root, Catalogs* catalogs,
                  std::string* error) {
  const std::string recovery_md =
      ReadFileOrEmpty(fs::path(root) / "docs" / "recovery.md");
  const std::string observability_md =
      ReadFileOrEmpty(fs::path(root) / "docs" / "observability.md");
  if (recovery_md.empty() || observability_md.empty()) {
    *error = "missing docs/recovery.md or docs/observability.md under " +
             root;
    return false;
  }

  // Fail-point catalog: backticked names in the first cell of the
  // table under "### Fail-point catalog".
  bool in_catalog = false;
  for (const std::string& line : SplitLines(recovery_md)) {
    if (line.find("Fail-point catalog") != std::string::npos) {
      in_catalog = true;
      continue;
    }
    if (in_catalog && StartsWith(line, "#")) in_catalog = false;
    if (!in_catalog || line.empty() || line[0] != '|') continue;
    size_t cell_end = line.find('|', 1);
    if (cell_end == std::string::npos) continue;
    for (const std::string& token :
         BacktickTokens(line.substr(0, cell_end))) {
      if (IsDottedName(token)) catalogs->failpoints.insert(token);
    }
  }

  // Documented dotted names (metrics and stages) from both docs;
  // `family.<name>` placeholders become dynamic prefixes.
  for (const std::string* doc : {&observability_md, &recovery_md}) {
    for (const std::string& line : SplitLines(*doc)) {
      for (const std::string& token : BacktickTokens(line)) {
        if (IsDottedName(token)) {
          catalogs->documented_names.insert(token);
          continue;
        }
        size_t angle = token.find('<');
        if (angle != std::string::npos && angle > 0 &&
            token[angle - 1] == '.') {
          const std::string prefix = token.substr(0, angle);
          if (IsDottedName(prefix + "x")) {
            catalogs->dynamic_prefixes.insert(prefix);
          }
        }
      }
    }
  }

  // Status/Result-returning function names from every header in src/
  // and tools/ (declaration scan; good enough to recognise a silenced
  // call by its callee name).
  static const std::regex kStatusDecl(
      R"((?:^|[^\w:])(?:Status|Result<[^;{}()]*>)\s+([A-Za-z_]\w*)\s*\()");
  for (const char* dir : {"src", "tools"}) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      if (entry.path().extension() != ".h") continue;
      const std::string text = ReadFileOrEmpty(entry.path());
      for (std::sregex_iterator it(text.begin(), text.end(), kStatusDecl),
           end;
           it != end; ++it) {
        catalogs->status_functions.insert((*it)[1].str());
      }
    }
  }

  // Canonical lock hierarchy: the table under "## Canonical lock
  // hierarchy" in docs/static-analysis.md. Columns:
  // | Rank | Lock | Declared in | May block |
  const std::string static_analysis_md =
      ReadFileOrEmpty(fs::path(root) / "docs" / "static-analysis.md");
  if (static_analysis_md.empty()) {
    *error = "missing docs/static-analysis.md under " + root;
    return false;
  }
  bool in_hierarchy = false;
  for (const std::string& line : SplitLines(static_analysis_md)) {
    if (line.find("Canonical lock hierarchy") != std::string::npos) {
      in_hierarchy = true;
      continue;
    }
    if (in_hierarchy && StartsWith(line, "#")) in_hierarchy = false;
    if (!in_hierarchy || line.empty() || line[0] != '|') continue;
    // Split into cells.
    std::vector<std::string> cells;
    size_t pos = 1;
    while (pos < line.size()) {
      size_t next = line.find('|', pos);
      if (next == std::string::npos) break;
      cells.push_back(line.substr(pos, next - pos));
      pos = next + 1;
    }
    if (cells.size() < 3) continue;
    // Rank cell must be an integer (skips the header and |---| rows).
    const std::string& rank_cell = cells[0];
    size_t digit = rank_cell.find_first_of("0123456789");
    if (digit == std::string::npos) continue;
    bool all_digits = true;
    int rank = 0;
    for (size_t i = digit; i < rank_cell.size(); ++i) {
      char c = rank_cell[i];
      if (c >= '0' && c <= '9') {
        rank = rank * 10 + (c - '0');
      } else if (c == ' ') {
        break;
      } else {
        all_digits = false;
        break;
      }
    }
    if (!all_digits) continue;
    const std::vector<std::string> lock_tokens = BacktickTokens(cells[1]);
    if (lock_tokens.empty()) continue;
    const std::string& lock = lock_tokens[0];
    catalogs->lock_ranks[lock] = rank;
    if (cells.size() >= 4 &&
        cells[3].find("yes") != std::string::npos) {
      catalogs->lock_may_block.insert(lock);
    }
  }

  if (catalogs->failpoints.empty()) {
    *error = "no fail-point catalog parsed from docs/recovery.md";
    return false;
  }
  if (catalogs->documented_names.empty()) {
    *error = "no documented metric/stage names parsed from docs/";
    return false;
  }
  if (catalogs->status_functions.empty()) {
    *error = "no Status/Result-returning declarations found under src/";
    return false;
  }
  if (catalogs->lock_ranks.empty()) {
    *error =
        "no lock hierarchy table parsed from docs/static-analysis.md "
        "(section 'Canonical lock hierarchy')";
    return false;
  }
  return true;
}

}  // namespace lint
}  // namespace divexp
