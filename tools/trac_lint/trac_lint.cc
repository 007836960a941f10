// trac_lint: project-specific lint rules the compiler cannot enforce.
//
// Usage: trac_lint <dir-or-file>...
//
// Walks the given directories for .h/.cc files and checks:
//   nodiscard          every unqualified Status/Result<T>-returning
//                      declaration carries [[nodiscard]]
//   naked-mutex        no std::mutex / std::shared_mutex / std lock RAII
//                      outside common/mutex.h (use trac::Mutex et al so
//                      Clang thread-safety analysis sees acquisitions)
//   include-cc         no #include of .cc files
//   include-guard      every header has an include guard or #pragma once
//   no-localtime-rand  no direct localtime/rand/srand calls (use
//                      common/timestamp.h / common/random.h)
//   no-raw-clock       no raw std::chrono steady_clock/system_clock/
//                      high_resolution_clock ::now() outside common/
//                      and monitor/sim_clock — telemetry and timing
//                      take the injected ClockFn (common/clock.h) so
//                      traces are deterministic in tests
//   no-throw-abort     no throw / abort() outside common/dcheck.h (the
//                      library reports failures through Status/Result;
//                      death lives behind TRAC_DCHECK only)
//   no-iostream        no std::cout / std::cerr outside tools/,
//                      examples/, bench/ (the library never writes to
//                      the process's console)
//   snapshot-acquire   no raw Snapshot{...} construction outside
//                      storage/ and core/session.cc (a fabricated epoch
//                      bypasses the acquire-ordered counter; take
//                      Database::LatestSnapshot() or thread an existing
//                      Snapshot through)
//   doc-drift          every TRAC-V###/TRAC-W###/TRAC-P### diagnostic code emitted
//                      on a code line must appear in the DESIGN.md rule
//                      tables (found by walking up from the first lint
//                      root) — a code the docs do not know is a rule
//                      nobody can look up
//   fingerprint-confinement
//                      the 64-bit FNV-1a constants (offset basis and
//                      prime) appear only under ir/ — every fingerprint
//                      is computed by ir/fingerprint.h's Fnv1a64, never
//                      re-implemented; a second hash implementation that
//                      drifts would silently give one predicate two
//                      pred= fingerprints
//   corpus-drift       every fixture under examples/plans/bad/ (found by
//                      walking up from the first lint root) must be
//                      referenced — literally or via a glob/${VAR}
//                      pattern — from a CMakeLists.txt/*.cmake/*.sh
//                      build file, so a seeded-bad plan cannot silently
//                      drop out of the CTest gates
//
// A line ending in a NOLINT(trac-<rule>) comment is exempt from <rule>.
// Exit status is non-zero iff any violation was found; runs as a CTest
// test so the rules gate every merge (see tools/CMakeLists.txt).
//
// Deliberately self-contained (std library only, line-oriented): it
// needs no compilation database and finishes in milliseconds, which is
// what keeps it in the inner loop instead of becoming a nightly job.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string file;
  size_t line;
  std::string rule;
  std::string message;
};

std::vector<Violation> violations;

void Report(const std::string& file, size_t line, const std::string& rule,
            const std::string& message) {
  violations.push_back(Violation{file, line, rule, message});
}

std::string Trim(const std::string& s) {
  const size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool IsCommentLine(const std::string& trimmed) {
  return trimmed.rfind("//", 0) == 0 || trimmed.rfind("*", 0) == 0 ||
         trimmed.rfind("/*", 0) == 0;
}

bool HasNolint(const std::string& line, const std::string& rule) {
  return line.find("NOLINT(trac-" + rule + ")") != std::string::npos;
}

/// True when `path` (generic form) names the annotated-mutex wrapper
/// header, the only place allowed to touch raw standard mutexes.
bool IsMutexWrapperHeader(const std::string& path) {
  return path.size() >= 14 &&
         path.compare(path.size() - 14, 14, "common/mutex.h") == 0;
}

/// True when `path` names the TRAC_DCHECK header, the only library code
/// allowed to terminate the process.
bool IsDcheckHeader(const std::string& path) {
  const std::string suffix = "common/dcheck.h";
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

/// Executables own their console; library code does not. The seeded
/// violation corpus (testdata) stays lintable so the self-test can prove
/// the rule still fires.
bool IsConsoleOwningPath(const std::string& path) {
  if (path.find("testdata") != std::string::npos) return false;
  for (const char* prefix : {"tools/", "examples/", "bench/"}) {
    if (path.rfind(prefix, 0) == 0 ||
        path.find(std::string("/") + prefix) != std::string::npos) {
      return true;
    }
  }
  return false;
}

bool IsTimeOrRandomWrapper(const std::string& path) {
  for (const char* allowed :
       {"common/timestamp.h", "common/timestamp.cc", "common/random.h",
        "common/random.cc"}) {
    const std::string suffix(allowed);
    if (path.size() >= suffix.size() &&
        path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return true;
    }
  }
  return false;
}

// --- Rule: nodiscard -------------------------------------------------------

const std::regex kStatusDeclRe(
    R"(^(?:(?:static|virtual|inline|constexpr|friend|explicit)\s+)*(Status|Result<.*>)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\()");

void CheckNodiscard(const std::string& path,
                    const std::vector<std::string>& lines) {
  std::string prev_nonblank;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& raw = lines[i];
    const std::string trimmed = Trim(raw);
    if (trimmed.empty()) continue;
    if (IsCommentLine(trimmed) || trimmed[0] == '#') {
      // Comments and preprocessor lines never declare functions, and do
      // not interrupt a [[nodiscard]] on the preceding line.
      continue;
    }
    std::smatch m;
    std::string candidate = trimmed;
    bool marked_inline = false;
    const std::string kMark = "[[nodiscard]]";
    if (candidate.rfind(kMark, 0) == 0) {
      marked_inline = true;
      candidate = Trim(candidate.substr(kMark.size()));
    }
    if (std::regex_search(candidate, m, kStatusDeclRe) &&
        !HasNolint(raw, "nodiscard")) {
      const bool marked_prev =
          prev_nonblank.size() >= kMark.size() &&
          prev_nonblank.compare(prev_nonblank.size() - kMark.size(),
                                kMark.size(), kMark) == 0;
      if (!marked_inline && !marked_prev) {
        Report(path, i + 1, "nodiscard",
               "declaration of '" + m[2].str() + "' returns " + m[1].str() +
                   " but is not [[nodiscard]]");
      }
    }
    prev_nonblank = trimmed;
  }
}

// --- Rule: naked-mutex -----------------------------------------------------

const char* const kBannedSyncTokens[] = {
    "std::mutex",       "std::shared_mutex",       "std::recursive_mutex",
    "std::timed_mutex", "std::condition_variable", "std::lock_guard",
    "std::unique_lock", "std::shared_lock",        "std::scoped_lock",
};
const char* const kBannedSyncIncludes[] = {
    "#include <mutex>",
    "#include <shared_mutex>",
    "#include <condition_variable>",
};

void CheckNakedMutex(const std::string& path,
                     const std::vector<std::string>& lines) {
  if (IsMutexWrapperHeader(path)) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string trimmed = Trim(lines[i]);
    if (IsCommentLine(trimmed) || HasNolint(lines[i], "naked-mutex")) {
      continue;
    }
    for (const char* token : kBannedSyncTokens) {
      if (trimmed.find(token) != std::string::npos) {
        Report(path, i + 1, "naked-mutex",
               std::string(token) +
                   " outside common/mutex.h; use trac::Mutex / "
                   "trac::SharedMutex and their RAII guards so the "
                   "thread-safety analysis sees the acquisition");
      }
    }
    for (const char* inc : kBannedSyncIncludes) {
      if (trimmed.rfind(inc, 0) == 0) {
        Report(path, i + 1, "naked-mutex",
               std::string(inc) + " outside common/mutex.h");
      }
    }
  }
}

// --- Rule: include-cc ------------------------------------------------------

const std::regex kIncludeCcRe(R"(^\s*#\s*include\s*[<"][^>"]*\.cc[>"])");

void CheckIncludeCc(const std::string& path,
                    const std::vector<std::string>& lines) {
  for (size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(lines[i], kIncludeCcRe) &&
        !HasNolint(lines[i], "include-cc")) {
      Report(path, i + 1, "include-cc",
             "#include of a .cc file; give the code a header or add it "
             "to the library's source list");
    }
  }
}

// --- Rule: include-guard ---------------------------------------------------

void CheckIncludeGuard(const std::string& path,
                       const std::vector<std::string>& lines) {
  bool has_pragma_once = false;
  bool has_ifndef = false;
  bool has_define = false;
  const size_t horizon = std::min<size_t>(lines.size(), 64);
  for (size_t i = 0; i < horizon; ++i) {
    const std::string trimmed = Trim(lines[i]);
    if (trimmed.rfind("#pragma once", 0) == 0) has_pragma_once = true;
    if (trimmed.rfind("#ifndef", 0) == 0) has_ifndef = true;
    if (has_ifndef && trimmed.rfind("#define", 0) == 0) has_define = true;
  }
  if (!has_pragma_once && !(has_ifndef && has_define)) {
    Report(path, 1, "include-guard",
           "header lacks an include guard (#ifndef/#define) and has no "
           "#pragma once");
  }
}

// --- Rule: no-localtime-rand ----------------------------------------------

const std::regex kTimeRandRe(
    R"((^|[^A-Za-z0-9_:])((std::)?(localtime(_r|_s)?|rand|srand))\s*\()");

void CheckLocaltimeRand(const std::string& path,
                        const std::vector<std::string>& lines) {
  if (IsTimeOrRandomWrapper(path)) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string trimmed = Trim(lines[i]);
    if (IsCommentLine(trimmed) ||
        HasNolint(lines[i], "no-localtime-rand")) {
      continue;
    }
    std::smatch m;
    if (std::regex_search(lines[i], m, kTimeRandRe)) {
      Report(path, i + 1, "no-localtime-rand",
             "direct call to " + m[2].str() +
                 "(); use common/timestamp.h (UTC, injectable clocks) or "
                 "common/random.h (seeded, reproducible) instead");
    }
  }
}

// --- Rule: no-raw-clock ----------------------------------------------------

const std::regex kRawClockRe(
    R"((steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\()");

/// common/ owns the one raw steady_clock call site (common/clock.cc) and
/// its wrappers; monitor/sim_clock is the simulated-time source.
bool IsClockOwningPath(const std::string& path) {
  return path.find("common/") != std::string::npos ||
         path.find("monitor/sim_clock") != std::string::npos;
}

void CheckRawClock(const std::string& path,
                   const std::vector<std::string>& lines) {
  if (IsClockOwningPath(path)) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string trimmed = Trim(lines[i]);
    if (IsCommentLine(trimmed) || HasNolint(lines[i], "no-raw-clock")) {
      continue;
    }
    std::smatch m;
    if (std::regex_search(lines[i], m, kRawClockRe)) {
      Report(path, i + 1, "no-raw-clock",
             "raw " + m[1].str() +
                 "::now(); take a trac::ClockFn (common/clock.h) or use "
                 "the SimClock so timings stay injectable and traces "
                 "deterministic");
    }
  }
}

// --- Rule: no-throw-abort --------------------------------------------------

const std::regex kThrowAbortRe(
    R"((^|[^A-Za-z0-9_])(throw\b|(std::)?abort\s*\())");

void CheckThrowAbort(const std::string& path,
                     const std::vector<std::string>& lines) {
  if (IsDcheckHeader(path) || IsConsoleOwningPath(path)) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string trimmed = Trim(lines[i]);
    if (IsCommentLine(trimmed) || HasNolint(lines[i], "no-throw-abort")) {
      continue;
    }
    if (std::regex_search(lines[i], kThrowAbortRe)) {
      Report(path, i + 1, "no-throw-abort",
             "throw/abort() outside common/dcheck.h; report failures "
             "through Status/Result (terminate only via TRAC_DCHECK)");
    }
  }
}

// --- Rule: no-iostream -----------------------------------------------------

const char* const kBannedConsoleTokens[] = {
    "std::cout",
    "std::cerr",
    "std::clog",
};

void CheckIostream(const std::string& path,
                   const std::vector<std::string>& lines) {
  if (IsConsoleOwningPath(path)) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string trimmed = Trim(lines[i]);
    if (IsCommentLine(trimmed) || HasNolint(lines[i], "no-iostream")) {
      continue;
    }
    for (const char* token : kBannedConsoleTokens) {
      if (trimmed.find(token) != std::string::npos) {
        Report(path, i + 1, "no-iostream",
               std::string(token) +
                   " in library code; only tools/, examples/ and bench/ "
                   "own the console (return data, or take an ostream&)");
      }
    }
  }
}

// --- Rule: snapshot-acquire ------------------------------------------------

/// Matches brace-construction of a Snapshot (`Snapshot{...}`), i.e.
/// minting an epoch out of thin air. Reads like `db.LatestSnapshot()`
/// and pass-through parameters (`Snapshot snap`) do not match.
const std::regex kSnapshotBraceRe(R"((^|[^A-Za-z0-9_])Snapshot\s*\{)");

/// True when `path` may legitimately construct a Snapshot: the storage
/// layer (which owns the version counter) and the session layer (which
/// pins an epoch for its lifetime).
bool IsSnapshotAcquireSite(const std::string& path) {
  if (path.rfind("storage/", 0) == 0 ||
      path.find("/storage/") != std::string::npos) {
    return true;
  }
  const std::string suffix = "core/session.cc";
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void CheckSnapshotAcquire(const std::string& path,
                          const std::vector<std::string>& lines) {
  if (IsSnapshotAcquireSite(path)) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string trimmed = Trim(lines[i]);
    if (IsCommentLine(trimmed) || HasNolint(lines[i], "snapshot-acquire")) {
      continue;
    }
    if (std::regex_search(lines[i], kSnapshotBraceRe)) {
      Report(path, i + 1, "snapshot-acquire",
             "raw Snapshot{...} construction outside storage/ and "
             "core/session.cc; a fabricated epoch bypasses the "
             "acquire-ordered version counter — use "
             "Database::LatestSnapshot() or thread an existing Snapshot "
             "through");
    }
  }
}

// --- Rule: fingerprint-confinement -----------------------------------------

/// The FNV-1a 64-bit offset basis and prime. A file mentioning either on
/// a code line is computing (or re-implementing) Fnv1a64.
const char* const kFnvConstantTokens[] = {
    "14695981039346656037",
    "1099511628211",
};

/// True when `path` lives under the ir/ layer, the one owner of
/// fingerprint computation (ir/fingerprint.{h,cc}).
bool IsFingerprintOwningPath(const std::string& path) {
  return path.rfind("ir/", 0) == 0 || path.find("/ir/") != std::string::npos;
}

void CheckFingerprintConfinement(const std::string& path,
                                 const std::vector<std::string>& lines) {
  if (IsFingerprintOwningPath(path)) return;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string trimmed = Trim(lines[i]);
    if (IsCommentLine(trimmed) ||
        HasNolint(lines[i], "fingerprint-confinement")) {
      continue;
    }
    for (const char* token : kFnvConstantTokens) {
      if (trimmed.find(token) != std::string::npos) {
        Report(path, i + 1, "fingerprint-confinement",
               std::string("FNV-1a constant ") + token +
                   " outside ir/; fingerprints are computed only by "
                   "ir/fingerprint.h (call Fnv1a64 instead of "
                   "re-implementing the hash)");
      }
    }
  }
}

// --- Rule: doc-drift -------------------------------------------------------

/// A verifier/analyzer/profiler diagnostic identifier ("TRAC-V005",
/// "TRAC-W002", "TRAC-P001").
/// Deliberately three digits: the "TRAC-V???" fallback string and prose
/// mentions of rule families never match.
const std::regex kDiagCodeRe(R"(TRAC-[VWP][0-9]{3})");

struct CodeSite {
  std::string file;
  size_t line;
};

/// Every diagnostic code found on a code line, keyed to its first
/// emission site (deterministic: files are linted in sorted order).
std::map<std::string, CodeSite> emitted_codes;

void CollectDiagCodes(const std::string& path,
                      const std::vector<std::string>& lines) {
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string trimmed = Trim(lines[i]);
    if (IsCommentLine(trimmed) || HasNolint(lines[i], "doc-drift")) {
      continue;
    }
    for (auto it = std::sregex_iterator(lines[i].begin(), lines[i].end(),
                                        kDiagCodeRe);
         it != std::sregex_iterator(); ++it) {
      emitted_codes.emplace(it->str(), CodeSite{path, i + 1});
    }
  }
}

/// Checks every collected code against the DESIGN.md rule tables. The
/// doc is found by walking up from `first_root`; when no DESIGN.md
/// exists above the lint roots there is nothing to drift from.
void CheckDocDrift(const fs::path& first_root) {
  if (emitted_codes.empty()) return;
  std::error_code ec;
  fs::path dir = fs::absolute(first_root, ec);
  if (ec) return;
  if (!fs::is_directory(dir, ec)) dir = dir.parent_path();
  std::string design;
  for (int depth = 0; depth < 16; ++depth) {
    const fs::path candidate = dir / "DESIGN.md";
    if (fs::is_regular_file(candidate, ec)) {
      std::ifstream in(candidate);
      std::ostringstream ss;
      ss << in.rdbuf();
      design = ss.str();
      break;
    }
    const fs::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  if (design.empty()) return;
  for (const auto& [code, site] : emitted_codes) {
    if (design.find(code) == std::string::npos) {
      Report(site.file, site.line, "doc-drift",
             "diagnostic code " + code +
                 " is emitted here but does not appear in the DESIGN.md "
                 "rule tables; document the rule where readers will look "
                 "it up");
    }
  }
}

// --- Rule: corpus-drift ----------------------------------------------------

/// Converts one build-file token naming a .ir path — possibly with glob
/// stars and ${VAR} references — into a regex matched against the tail
/// of a fixture's generic path. Returns "" for tokens that cannot be
/// turned into a pattern (unterminated ${).
std::string IrTokenToRegex(const std::string& token) {
  static const std::string kMeta = R"(\^$.|?+()[]{})";
  std::string re;
  for (size_t i = 0; i < token.size(); ++i) {
    const char c = token[i];
    if (c == '$' && i + 1 < token.size() && token[i + 1] == '{') {
      const size_t close = token.find('}', i);
      if (close == std::string::npos) return "";
      re += ".*";
      i = close;
    } else if (c == '*') {
      re += "[^/]*";
    } else if (kMeta.find(c) != std::string::npos) {
      re += '\\';
      re += c;
    } else {
      re += c;
    }
  }
  re += '$';
  return re;
}

/// Directories never holding hand-written build files: generated trees
/// would echo expanded globs and make every fixture look referenced.
bool IsGeneratedTreeDir(const std::string& name) {
  return name.empty() || name[0] == '.' || name.rfind("build", 0) == 0 ||
         name == "scenario-repro";
}

/// Walks up from `first_root` to the nearest directory containing an
/// examples/plans/bad corpus, then checks that every fixture file under
/// it is matched by some .ir-naming token in a build file below that
/// same directory. A fixture no build file can produce a reference to
/// is a test that silently stopped running.
void CheckCorpusDrift(const fs::path& first_root) {
  std::error_code ec;
  fs::path dir = fs::absolute(first_root, ec);
  if (ec) return;
  if (!fs::is_directory(dir, ec)) dir = dir.parent_path();
  fs::path corpus;
  for (int depth = 0; depth < 16; ++depth) {
    const fs::path candidate = dir / "examples" / "plans" / "bad";
    if (fs::is_directory(candidate, ec)) {
      corpus = candidate;
      break;
    }
    const fs::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  if (corpus.empty()) return;

  std::vector<fs::path> fixtures;
  for (fs::recursive_directory_iterator it(corpus, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) fixtures.push_back(it->path());
  }
  std::sort(fixtures.begin(), fixtures.end());
  if (fixtures.empty()) return;

  // Collect every .ir-naming token from the hand-written build files.
  std::vector<std::regex> patterns;
  fs::recursive_directory_iterator walk(dir, ec);
  for (fs::recursive_directory_iterator end; !ec && walk != end;
       walk.increment(ec)) {
    if (walk->is_directory(ec) &&
        IsGeneratedTreeDir(walk->path().filename().string())) {
      walk.disable_recursion_pending();
      continue;
    }
    if (!walk->is_regular_file(ec)) continue;
    const std::string fname = walk->path().filename().string();
    const std::string ext = walk->path().extension().string();
    if (fname != "CMakeLists.txt" && ext != ".cmake" && ext != ".sh") {
      continue;
    }
    std::ifstream in(walk->path());
    std::string word;
    while (in >> word) {
      // Strip shell/CMake punctuation hugging the path token.
      const size_t b = word.find_first_not_of("\"'();,=");
      if (b == std::string::npos) continue;
      const size_t e = word.find_last_not_of("\"'();,=\\");
      word = word.substr(b, e - b + 1);
      if (word.size() < 3 ||
          word.compare(word.size() - 3, 3, ".ir") != 0) {
        continue;
      }
      const std::string re = IrTokenToRegex(word);
      if (!re.empty()) patterns.emplace_back(re);
    }
  }

  for (const fs::path& fixture : fixtures) {
    const std::string path = fixture.generic_string();
    bool referenced = false;
    for (const std::regex& re : patterns) {
      if (std::regex_search(path, re)) {
        referenced = true;
        break;
      }
    }
    if (!referenced) {
      Report(path, 1, "corpus-drift",
             "seeded-bad fixture is not referenced by any "
             "CMakeLists.txt/*.cmake/*.sh under " + dir.generic_string() +
                 "; wire it into a CTest case or delete it");
    }
  }
}

// --- Driver ----------------------------------------------------------------

std::vector<std::string> ReadLines(const fs::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void LintFile(const fs::path& file) {
  const std::string path = file.generic_string();
  const std::string ext = file.extension().string();
  const std::vector<std::string> lines = ReadLines(file);
  CheckNodiscard(path, lines);
  CheckNakedMutex(path, lines);
  CheckIncludeCc(path, lines);
  if (ext == ".h") CheckIncludeGuard(path, lines);
  CheckLocaltimeRand(path, lines);
  CheckRawClock(path, lines);
  CheckThrowAbort(path, lines);
  CheckIostream(path, lines);
  CheckSnapshotAcquire(path, lines);
  CheckFingerprintConfinement(path, lines);
  CollectDiagCodes(path, lines);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <dir-or-file>...\n", argv[0]);
    return 2;
  }
  size_t files = 0;
  for (int i = 1; i < argc; ++i) {
    const fs::path root(argv[i]);
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      LintFile(root);
      ++files;
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      std::fprintf(stderr, "trac_lint: no such file or directory: %s\n",
                   argv[i]);
      return 2;
    }
    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(root)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".h" || ext == ".cc") paths.push_back(entry.path());
    }
    // Deterministic order regardless of directory enumeration.
    std::sort(paths.begin(), paths.end());
    for (const fs::path& p : paths) {
      LintFile(p);
      ++files;
    }
  }
  CheckDocDrift(fs::path(argv[1]));
  CheckCorpusDrift(fs::path(argv[1]));

  for (const Violation& v : violations) {
    std::printf("%s:%zu: [%s] %s\n", v.file.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
  if (violations.empty()) {
    std::printf("trac_lint: OK (%zu files)\n", files);
    return 0;
  }
  std::set<std::string> rules;
  for (const Violation& v : violations) rules.insert(v.rule);
  std::string rule_list;
  for (const std::string& r : rules) {
    if (!rule_list.empty()) rule_list += ", ";
    rule_list += r;
  }
  std::printf("trac_lint: %zu violation(s) across %zu file(s) (rules: %s)\n",
              violations.size(), files, rule_list.c_str());
  return 1;
}
